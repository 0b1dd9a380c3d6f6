(** Always-on observability for the SOFT pipeline.

    Three layers, from cheapest to most verbose:

    - {b aggregates} — per-stage wall-time (count/total/max + a log2
      latency histogram) and verdict counters keyed dialect x pattern x
      verdict class. Updating either is a hashtable lookup on an existing
      string key plus in-place mutation: nothing is allocated on the hot
      path after a key's first sighting, so instrumentation can stay on
      for every campaign.
    - {b spans} — scoped timings around pipeline stages. With a null sink
      they only feed the aggregates; with a real sink each span emits a
      [span_open]/[span_close] event pair.
    - {b events} — a structured JSONL stream (spans, per-case verdicts,
      bug-found, FP-signature) for offline analysis, enabled by passing a
      sink ([--trace FILE] on the CLI).

    Timestamps come from a monotonic clock (bechamel's CLOCK_MONOTONIC
    stub), so span durations are immune to wall-clock jumps. *)

val now_ns : unit -> int
(** Monotonic nanoseconds (arbitrary epoch). *)

(** {1 Verdict classes} *)

(** Mirror of the detector's six verdict outcomes, decoupled so the
    telemetry layer has no dependency on the core pipeline. *)
type verdict_class =
  | Passed
  | Clean_error
  | False_positive
  | New_bug
  | Dup_bug
  | Known_crash

val verdict_classes : verdict_class list
val verdict_class_to_string : verdict_class -> string

(** {1 Events} *)

(** One telemetry event. [dialect]/[pattern] are [""] when not
    applicable (e.g. the collect stage has no pattern). *)
type event =
  | Span_open of {
      stage : string;
      dialect : string;
      pattern : string;
      depth : int;  (** span nesting depth at open time *)
      ts_ns : int;
    }
  | Span_close of {
      stage : string;
      dialect : string;
      pattern : string;
      depth : int;
      ts_ns : int;
      dur_ns : int;
    }
  | Verdict of {
      dialect : string;
      pattern : string;  (** ["seed"] for sanity-pass replays *)
      verdict : verdict_class;
      case_number : int;
      ts_ns : int;
    }
  | Bug_found of {
      dialect : string;
      site : string;
      kind : string;
      pattern : string;
      case_number : int;
      ts_ns : int;
    }
  | Fp_signature of { dialect : string; signature : string; ts_ns : int }

val event_to_json : event -> Json.t

(** {1 Sinks} *)

type sink = Null | Emit of (event -> unit)

val null_sink : sink
(** Drops every event; aggregates still accumulate. The default. *)

val jsonl_sink : out_channel -> sink
(** One compact JSON object per line. The caller owns the channel. *)

val memory_sink : unit -> sink * (unit -> event list)
(** Buffers events in memory; the closure returns them in emission
    order. For tests. *)

(** {1 Collector handle} *)

type t

val create : ?sink:sink -> unit -> t
(** A fresh collector (empty aggregates, depth 0). One per campaign, or
    one shared across campaigns when cross-dialect aggregation is
    wanted — counters are keyed by dialect either way. *)

val enabled : t -> bool
(** [true] iff the sink is not {!null_sink}; lets callers skip building
    event-only payloads. *)

val emit : t -> event -> unit
(** Sends a hand-built event to the sink (no-op on {!null_sink}). *)

val add_flusher : t -> (unit -> unit) -> unit
(** Registers a sink flusher — typically [fun () -> flush oc] for a
    JSONL channel. Flushers run on {!flush}, which the campaign runner
    calls at campaign end {e and} on the crash/restart path, so abnormal
    termination cannot silently truncate a trace or timeseries stream.
    Flushers are per-collector and are not carried by {!merge_into}. *)

val flush : t -> unit
(** Runs every registered flusher. Exceptions from individual flushers
    are swallowed (a dead channel must not mask the failure that
    triggered the flush). No-op when none are registered. *)

(** {1 Spans and timings} *)

val with_span :
  t -> ?dialect:string -> ?pattern:string -> string -> (unit -> 'a) -> 'a
(** [with_span t stage f] times [f] into [stage]'s aggregate and emits an
    open/close event pair. Exception-safe: the span closes (and the
    exception is re-raised) when [f] raises — crashes are exactly the
    events worth timing. Spans nest; depth is tracked per collector. *)

val time_seq :
  t -> ?dialect:string -> ?pattern:string -> stage:string -> 'a Seq.t -> 'a Seq.t
(** Wraps a lazy sequence so that forcing each node is timed as one
    [stage] span — how the interleaved generate stage is measured without
    forcing the whole sequence up front. *)

val record_stage : t -> stage:string -> int -> unit
(** Feeds a manually measured duration (ns) into a stage aggregate
    without emitting events. *)

(** {1 Verdict counters and one-shot events} *)

type verdict_counter
(** A pre-resolved dialect x pattern counter row. Both keys are
    constant across a work item, so the detector resolves the row once
    per item instead of probing two string-keyed tables per case. *)

val verdict_counter : t -> dialect:string -> pattern:string -> verdict_counter

val count_verdict_row :
  t -> verdict_counter -> dialect:string -> pattern:string ->
  case_number:int -> verdict_class -> unit
(** Bumps the row's counter for the class and, with a live sink, emits a
    [Verdict] event carrying the row's own keys. *)

val bug_event :
  t -> dialect:string -> site:string -> kind:string -> pattern:string ->
  case_number:int -> unit

val fp_event : t -> dialect:string -> signature:string -> unit

(** {1 Retired memoization, plan-compilation and batch counters}

    Verdict memoization, closure compilation and the per-family batch
    counters are gone; these stay so that readers of the old counters
    still build. All always report zero. *)

type memo_counts = { hits : int; misses : int }

val memo_counts : t -> memo_counts
val memo_hit_rate : t -> float

type compile_counts = { c_hits : int; c_misses : int; c_fallbacks : int }

val compile_counts : t -> compile_counts
val compile_hit_rate : t -> float

type batch_counts = { b_flushes : int; b_cases : int }

val batch_counts : t -> batch_counts
(** Every case after the seed replay is a family member and every
    family one work item, so [b_cases] only restated [cases_executed -
    seeds_collected], and [b_flushes] the ["execute"] stage's calls
    minus [seeds_collected]. perfbench is its only reader; ROADMAP item
    2, which drops perfbench's batch metrics, deletes it. *)

val compact_add : t -> hits:int -> spills:int -> unit
(** Credits a delta of compact-representation constructions (hits) and
    materializations (spills) measured on an engine's domain (see
    {!Sqlfun_value.Value.Compact}). Runners call this once per campaign
    (or once per shard worker), not per case. Throughput metadata, not
    determinism-bearing totals. *)

type compact_counts = { k_hits : int; k_spills : int }

val compact_counts : t -> compact_counts

val reclassify_verdict :
  t ->
  dialect:string ->
  pattern:string ->
  from_:verdict_class ->
  to_:verdict_class ->
  unit
(** Moves one recorded verdict from one class to another. The sharded
    campaign merge uses this to demote a shard-local [New_bug] whose
    site was first hit (by global case order) on another shard into the
    [Dup_bug] it would have been in a sequential run. Raises
    [Invalid_argument] when no [from_] verdict is on record for the
    dialect x pattern row. *)

(** {1 Merging}

    Shard-level parallelism gives every worker its own collector;
    campaign totals are the merge of the shards. Merging is a plain
    counter/histogram union — commutative, associative, with a fresh
    collector as identity — so merged aggregates are independent of
    shard count and completion order. Sinks and span depth are not
    merged: events stream only from live collectors. *)

val merge_into : dst:t -> t -> unit
(** Adds the source's stage aggregates (calls, totals, max,
    histogram buckets), verdict counters and throughput counters into
    [dst]. *)

val merge : t -> t -> t
(** Fresh collector (null sink) holding the union of both inputs. *)

(** {1 Aggregate views} *)

type stage_timing = {
  stage : string;
  calls : int;
  total_ns : int;
  max_ns : int;
  p50_ns : int;  (** histogram estimate, <= 2x relative error *)
  p90_ns : int;
  p99_ns : int;
}

val stage_timings : t -> stage_timing list
(** Sorted by total time, descending. Percentiles are log2-bucket upper
    bounds clamped to the observed [max_ns], so a long span (seconds)
    never reports a quantile beyond any recorded sample. *)

type verdict_counts = {
  dialect : string;
  pattern : string;
  by_class : (verdict_class * int) list;  (** every class, zeros included *)
}

val verdict_rows : t -> verdict_counts list
(** Sorted by dialect then pattern. *)

val verdict_total : t -> verdict_class -> int
(** Total count for one class summed over every dialect x pattern row. *)

(** {1 JSON snapshots} *)

val stage_timing_to_json : stage_timing -> Json.t
val stages_to_json : t -> Json.t
val verdicts_to_json : t -> Json.t

(** {1 Histograms}

    Exposed for tests and for callers that aggregate outside stages. *)
module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val total : t -> int

  val bucket_of : int -> int
  (** Index of the log2 bucket holding a duration:
      [2^i <= d < 2^(i+1)], clamped to the last bucket. *)

  val bucket_upper : int -> int
  (** Exclusive upper bound of bucket [i]: [2^(i+1)]. *)

  val percentile : t -> float -> int
  (** Upper bound of the log2 bucket holding the quantile sample; [0] on
      an empty histogram. *)

  val merge_into : dst:t -> t -> unit
  (** Bucket-wise sum. *)
end
