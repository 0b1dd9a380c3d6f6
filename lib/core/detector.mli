(** Crash detection — SOFT's third step.

    Statements run against a live (armed) simulated server. A clean SQL
    error is the expected boundary behaviour; a {!Sqlfun_fault.Fault.Crash}
    or a blown stack is a found bug (the server "died" and is respawned
    on the post-seed tables, see {!create});
    a resource-limit termination is the paper's false-positive class. *)

open Sqlfun_fault
open Sqlfun_dialects

type verdict =
  | Passed
  | Clean_error of string
  | False_positive of string  (** killed by the memory/step guard *)
  | New_bug of Fault.spec     (** first trigger of a ledger bug *)
  | Dup_bug of Fault.spec     (** a site already on file *)
  | Known_crash of string     (** e.g. the CVE-2015-5289-class stack blow *)

type found_bug = {
  spec : Fault.spec;
  found_by : Pattern_id.t option;  (** [None] when a raw seed crashed *)
  poc : string;                    (** the crashing SQL statement *)
  case_number : int;               (** 1-based execution index *)
}

type t

val create :
  ?cov:Sqlfun_coverage.Coverage.t ->
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  ?profile:Sqlfun_telemetry.Profile.t ->
  ?compile:bool ->
  ?compact:bool ->
  Dialect.profile ->
  t
(** Arms an engine for the profile: builds the dialect's registry and
    fault table, loads the seed schema once, and snapshots the resulting
    tables as the baseline. After each crash the engine is respawned
    with {!Sqlfun_engine.Engine.restart} on that baseline: a fresh
    session and catalog over the same registry and armed fault table.
    The seeds never re-run, so a restart adds no coverage hits — hit
    counts record the arming seed load plus case work only.

    [profile] is the execute-stage attribution profiler (see
    {!Sqlfun_telemetry.Profile}): a root scope around every engine
    round-trip catches unclaimed time as [other], the engine's own
    scopes charge parse/plan/eval/storage, and verdict bookkeeping runs
    under [detector-classify]. A private profiler is created when
    omitted; its dialect context is set to this profile's id either
    way.

    Without [telemetry] a private null-sink collector is created, so
    stage timings and verdict counters always accumulate; pass a
    collector to share aggregates with the rest of a campaign or to
    stream events. Each executed statement is timed as an ["execute"]
    span (the engine round-trip) plus a ["detect"] span (verdict
    bookkeeping); the arming and every crash respawn are one
    ["restart-after-crash"] span each; every verdict bumps the
    dialect x pattern x class counter.

    [compile] (default [true]) enables closure compilation of
    skeleton-sharing case families ({!run_batch}): a per-detector plan
    cache keyed by {!Sqlfun_ast.Ast_util.fingerprint_skeleton} compiles
    a family's skeleton once and runs every member by filling its slot
    window, with no AST walk. Compiled execution is observably
    identical to the interpreter (values, coverage, fault sites, ticks,
    profile attribution); shapes outside the compiled subset fall back
    to the interpreter. Seed replays and skeleton-varying cases always
    interpret. Probes are counted on the telemetry collector
    ({!Sqlfun_telemetry.Telemetry.compile_counts}). With
    [compile:false] every batch member is interpreted from its
    reconstructed AST — the reference the compiled path must match.

    [compact] (default [true]) enables the compact value
    representations ({!Sqlfun_value.Value.Range_arr}/[Rope_str]) inside
    the engine; verdicts, coverage and fault sites are
    representation-independent either way. *)

val run_sql :
  t -> ?pattern:Pattern_id.t -> ?case_number:int -> string -> verdict

val run_stmt :
  t -> ?pattern:Pattern_id.t -> ?case_number:int -> Sqlfun_ast.Ast.stmt -> verdict

val run_case : t -> ?case_number:int -> Patterns.case -> verdict
(** [case_number] overrides the detector-local 1-based execution index
    recorded on bug records and verdict events. Shard workers pass the
    case's index in the global (unsharded) stream so merged campaign
    output is bit-identical to a sequential run; plain callers omit
    it. *)

val run_scenario : t -> ?case_number:int -> Patterns.scenario -> verdict
(** One scenario = one case. A bare probe ([prereqs = []]) is exactly
    {!run_case}. Otherwise: the session is reset once, the
    prerequisites and the probe execute as a single classified
    round-trip (so session-state probes see their prerequisites'
    effects), and the engine's storage is returned to the post-seed
    baseline afterwards — by the crash respawn if the scenario crashed,
    explicitly otherwise. A clean prerequisite failure is the
    scenario's verdict; a prerequisite crash is a found bug whose PoC
    is the whole statement list (replayable standalone from a cold
    engine). *)

val run_batch : t -> ?first_case:int -> Patterns.batch -> unit
(** Execute one skeleton-sharing family — the only compiled execution
    path. The telemetry span and plan-cache probe are resolved once,
    and the member loop is fill-window → eval → classify, with no
    statement ASTs materialized and one PoC closure for the whole
    batch. Verdicts, counters, bug records, fault sites and coverage
    are bit-identical to interpreting each member's reconstructed AST
    — the decisions hoisted out of the loop are constant across a
    family by construction, and compiled execution is observably
    identical to interpretation. Families without a usable plan
    (unadmitted, uncompilable, or [compile:false]) are interpreted
    member by member, reconstructing each AST lazily. [first_case]
    makes member [i] global case [first_case + i], overriding the
    detector-local index exactly like [case_number] on {!run_case}. *)

val executed : t -> int
(** Every case run. *)

val passed : t -> int
val clean_errors : t -> int
val false_positives : t -> int

val unique_false_positives : t -> int
(** Distinct false-positive report signatures, the unit the paper's "7
    false positives" counts. *)

val fp_signatures : t -> string list
(** The signatures themselves (sorted), for cross-dialect deduplication. *)

val known_crashes : t -> int

val dup_crashes : t -> int
(** [Dup_bug] verdicts recorded by this detector — the campaign
    timeseries' dup-bug count. *)

val scenarios_executed : t -> int
(** Stateful scenarios admitted (prerequisites non-empty) — one per
    {!run_scenario} call that was not a bare probe. *)

val prereq_statements : t -> int
(** Prerequisite statements admitted across all stateful scenarios. *)

type stage_counts = { parse : int; execute : int; storage : int }
(** Crash-class verdicts (New/Dup/Known) attributed by the paper's
    occurrence stage. Ledger bugs inside function implementations are
    execute-stage; [@PARSE]/[@INSERT] staged specs are parse- and
    storage-stage; a blown stack is execute-stage by definition. *)

val stage_verdicts : t -> stage_counts

val bugs : t -> found_bug list
(** In discovery order. *)

val merge_bugs : found_bug list list -> found_bug list * found_bug list
(** [merge_bugs per_shard] re-derives the sequential New-vs-Dup split
    from shard-local bug lists whose [case_number]s are global stream
    indices: all records are ordered by global case number and the
    first sighting of each site is kept. Returns
    [(kept, demoted)] — [kept] is bit-identical to the bug list of a
    sequential run (order included); [demoted] are shard-local News
    that globally turn out to be duplicates (their [New_bug] verdict
    counters must be reclassified to [Dup_bug]). *)

val coverage : t -> Sqlfun_coverage.Coverage.t

val engine : t -> Sqlfun_engine.Engine.t
(** The current engine; a crash replaces it with its respawn. *)

val profile : t -> Dialect.profile

val telemetry : t -> Sqlfun_telemetry.Telemetry.t
(** The collector the detector records into (the one passed to
    {!create}, or its private one). *)

val exec_profile : t -> Sqlfun_telemetry.Profile.t
(** The attribution profiler the detector's engine charges (the one
    passed to {!create}, or its private one). *)
