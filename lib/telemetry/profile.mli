(** Execute-stage attribution profiler.

    The stage spans in {!Telemetry} say {e that} the execute stage
    dominates a sweep; this module says {e where} it goes: every
    nanosecond of engine work is charged to a
    [dialect x function x phase] key, where the phases are the engine's
    own pipeline steps ([parse] / [plan] / [eval] / [storage]) plus the
    detector's verdict bookkeeping ([detector-classify]) and an [other]
    bucket for whatever no named scope claimed.

    Accounting is {b self-time}: a scope's children are subtracted from
    it, so nested scopes (a [storage] table scan inside the [eval] of an
    enclosing function call, a nested function call inside its parent's
    argument list) never double-charge. Per key the profiler keeps
    count / total-self / max-self.

    {b Sampling.} Inside a campaign case ({!begin_case} … {!end_case})
    only one case in {!sample_period} is timed, chosen by a fixed hash
    of its global case number, so the timed set is the same at any
    shard or job count. A timed case's scopes add {!sample_period}
    times their measured self-time, and their max is the measured
    value; an untimed case's scopes read no clock and add their call
    count only. Counts are therefore exact and self-times are
    estimates from the timed cases ({!timed_cases} says how many).
    Scopes opened outside a case (engine arming, a seed load, direct
    callers) are timed exactly.

    Cost model: entering/exiting a timed scope is two monotonic-clock
    reads plus in-place mutation of a preallocated frame; {!switch}
    between sibling scopes shares one read; an untimed scope reads no
    clock. The per-function stats record is
    allocated at a key's first sighting. Hot callers resolve it once
    ({!fn_stats}) and keep it, so a function scope ({!enter_with}) is a
    frame push with no lookup; only {!enter_fn} and a depth-0 {!enter}
    still find the record by an exact-string hashtable probe. Nothing
    on these paths allocates once a key has been seen. Profiling is
    always on, like the stage aggregates.

    Profilers are single-domain; the sharded campaign gives every shard
    its own and merges them (a plain per-key counter union). *)

(** The attribution phases. [Classify] is the detector's verdict
    bookkeeping (outside the engine round-trip); [Other] is the
    remainder of a profiled region not claimed by a named scope — the
    root scope a detector opens around each execution carries it. *)
type phase = Parse | Plan | Eval | Storage | Classify | Other

val phases : phase list
val phase_to_string : phase -> string
(** [Classify] prints as ["detector-classify"]. *)

val phase_of_string : string -> phase option

type t

val create : unit -> t

val set_dialect : t -> string -> unit
(** Subsequent scopes charge keys under this dialect. Set once per
    detector/engine; the string must outlive the profiler (dialect ids
    are static). *)

(** {1 Scopes}

    Scopes nest; [exit] closes the innermost one. A scope entered
    without a function inherits the enclosing scope's function (the
    root inherits the anonymous function [""], rendered as ["-"]). *)

val enter : t -> phase -> unit
val enter_fn : t -> string -> phase -> unit
(** [enter_fn t fname phase] opens a scope charging
    [dialect x fname x phase] — how [eval] time is pinned to the SQL
    function being evaluated. *)

val exit : t -> unit
(** Closes the innermost scope: charges its self-time (duration minus
    children) to its key and adds its full duration to the parent's
    child account. No-op at depth 0. *)

val switch : t -> phase -> unit
(** [switch t phase] closes the innermost scope and opens its sibling on
    the same function under [phase], with one clock read for both: the
    time between the two is charged to neither. Observably [exit] then
    [enter] with the new scope's function unchanged, minus one clock
    read. At depth 0 it is {!enter}. *)

type fn_stats
(** A pre-resolved [dialect x function] stats record. *)

val fn_stats : t -> string -> fn_stats
(** [fn_stats t fname] is the record {!enter_fn}[ t fname] charges under
    the current dialect. Keep it to open that function's scopes with
    {!enter_with}; {!owns} says whether it is still current. *)

val owns : t -> fn_stats -> bool
(** The record belongs to this profiler's current dialect: false for a
    record of another profiler, or of this one before {!set_dialect}
    moved it to another dialect. Physical identity, no lookup. *)

val root_stats : t -> fn_stats
(** The anonymous-function ([""]) record of the current dialect —
    what a depth-0 {!enter} charges. The detector's per-case step opens
    one root scope per engine round-trip with it. Re-resolve after
    {!set_dialect}. *)

val enter_with : t -> fn_stats -> phase -> unit
(** [enter_with t stats phase] opens a scope charging [stats]
    directly — observably identical to {!enter_fn} on the record's
    function, or to {!enter} at depth 0 for {!root_stats}, with the same
    dialect. *)

val with_phase : t -> phase -> (unit -> 'a) -> 'a
(** Exception-safe [enter]/[exit] pair; the scope closes (and the
    exception is re-raised) when the thunk raises — crashes must
    unwind the frame stack. *)

val with_fn : t -> string -> phase -> (unit -> 'a) -> 'a

val depth : t -> int
(** Current scope nesting depth (0 = no open scope). For tests. *)

(** {1 Case sampling} *)

val sample_period : int
(** 16: one campaign case in this many is timed. *)

val timed_case : int -> bool
(** [timed_case n] — whether the case with global number [n] is timed:
    a fixed multiplicative hash of [n], true for one number in
    {!sample_period} on any long stretch of numbers. *)

val begin_case : t -> int -> unit
(** [begin_case t n] makes the scopes up to the next {!end_case} those
    of case [n]: timed and weighted by {!sample_period} when
    {!timed_case}[ n], else counted only. Call it with no scope open. *)

val end_case : t -> unit
(** Back to exact timing, for scopes opened outside a case. *)

val timed_cases : t -> int
(** Cases {!begin_case} timed, summed by {!merge_into}. *)

(** {1 Aggregate views} *)

type row = {
  r_dialect : string;
  r_func : string;  (** [""] for scopes with no function context *)
  r_phase : phase;
  r_count : int;
  r_self_ns : int;
  r_max_ns : int;  (** largest single-scope self-time *)
}

val rows : t -> row list
(** Every key with a nonzero count, sorted by self-time descending
    (ties by dialect, function, phase). *)

val phase_self_ns : t -> phase -> int
(** Total self-time charged to a phase across all keys. *)

val attributed_ns : t -> int
(** Self-time under the named engine phases
    ([Parse]+[Plan]+[Eval]+[Storage]). *)

val other_ns : t -> int
(** Self-time left in the [Other] bucket — profiled engine wall time no
    named scope claimed. *)

val attribution : t -> float
(** [attributed / (attributed + other)] — the fraction of profiled
    engine time charged to named keys; [0.] before any scope closes.
    [Classify] is excluded from both sides: it measures the detector,
    not the engine round-trip. *)

type fn_total = {
  ft_dialect : string;
  ft_func : string;
  ft_calls : int;       (** scope count summed over phases *)
  ft_self_ns : int;     (** self-time summed over phases *)
  ft_phases : (phase * int) list;  (** nonzero per-phase self-times *)
}

val hottest : ?n:int -> t -> fn_total list
(** The [n] (default 10) hottest [dialect x function] keys by total
    self-time. *)

val merge_into : dst:t -> t -> unit
(** Per-key counter union: counts, totals and {!timed_cases} add,
    maxes take the max.
    Commutative and associative with a fresh profiler as identity, so
    merged shard profiles are independent of shard count and completion
    order. The destination's dialect context and open scopes are
    untouched. *)

val merge : t -> t -> t

(** {1 Emitters} *)

val folded_lines : t -> string list
(** One folded stack per key, flamegraph-collapsed format:
    [soft;<dialect>;<func>;<phase> <self_ns>] — feed directly to
    [flamegraph.pl]. Keys with zero self-time are dropped (flamegraph
    ignores zero-weight stacks); [""] functions render as ["-"]. *)

val write_folded : out_channel -> t -> unit

val to_json : ?top:int -> t -> Json.t
(** [{"attribution": f, "timed_cases": n, "attributed_ms": f,
    "other_ms": f, "phase_totals": {...}, "hottest": [...],
    "keys": [...]}] — [top]
    (default 10) bounds the [hottest] table; [keys] always carries
    every row. *)

val top_markdown : ?n:int -> t -> string
(** The hottest-functions table as markdown. *)
