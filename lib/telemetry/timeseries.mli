(** Periodic campaign snapshots — coverage/bug-yield curves over time.

    A campaign end-state says what a sweep found; feedback-directed
    scheduling (and honest perf work) needs the {e curves}: cases/s,
    cumulative branch coverage and new/dup bug counts as the stream
    progresses. A {!t} recorder rides the case loop: every
    executed case {!tick}s it, and every N cases (or T milliseconds,
    whichever fires first) it probes the campaign state and emits one
    delta {!snapshot}.

    Sharding: each shard runs a private recorder tagged with its shard
    index; shard snapshots stream as they fire (wall-clock interleaved,
    so mid-campaign order is not deterministic), and the campaign closes
    with a single {e campaign-final} snapshot ([shard = -1],
    [final = true]) computed from the deterministically merged totals —
    its determinism-relevant fields ([cases], [branches], [functions],
    [new_bugs], [dup_bugs]) are bit-identical at any shard/job count.
    Rates and timestamps are throughput metadata and are not. *)

type snapshot = {
  shard : int;  (** owning shard; [-1] for the campaign-final snapshot *)
  seq : int;  (** 0-based snapshot index within its series *)
  final : bool;
  cases : int;  (** cumulative cases executed by this series *)
  delta_cases : int;  (** cases since the previous snapshot *)
  elapsed_ns : int;  (** since the series started *)
  delta_ns : int;
  cases_per_s : float;  (** over the delta window *)
  branches : int;  (** cumulative distinct coverage points *)
  functions : int;  (** cumulative distinct functions triggered *)
  new_bugs : int;
  dup_bugs : int;
  shard_cases : int array;
      (** per-shard cumulative case counts at snapshot time (campaign-wide
          view, read from the shared progress counters); [[||]] when
          unknown *)
}

(** How to read the campaign state when a snapshot fires. Probes run
    only at snapshot cadence, so O(state) reads are fine. *)
type probe = {
  p_branches : unit -> int;
  p_functions : unit -> int;
  p_new_bugs : unit -> int;
  p_dup_bugs : unit -> int;
  p_shard_cases : unit -> int array;
}

type cfg = {
  every_cases : int;  (** snapshot every N cases; [0] disables the trigger *)
  every_ms : int;  (** snapshot every T ms; [0] disables the trigger *)
  emit : snapshot -> unit;
      (** called at fire time — from a worker domain under sharding, so
          the callback must be thread-safe (the CLI sinks serialize
          behind a mutex) *)
}

type t

val recorder : cfg -> shard:int -> probe -> t
(** A fresh series for one shard. The clock starts now. *)

val tick : t -> unit
(** One case executed. Cheap between snapshots: a counter bump, a
    compare, and (when [every_ms > 0]) one clock read. *)

val cases : t -> int

val finalize : t -> unit
(** Emits the series' last snapshot ([final = true]) carrying whatever
    accumulated since the previous one. Idempotent per series end —
    call exactly once, after the shard's stream is drained. *)

val campaign_final :
  cfg ->
  elapsed_ns:int ->
  cases:int ->
  branches:int ->
  functions:int ->
  new_bugs:int ->
  dup_bugs:int ->
  shard_cases:int array ->
  snapshot
(** Builds and emits the campaign-final snapshot ([shard = -1],
    [final = true], [seq = 0]) from merged campaign totals. Delta fields
    cover the whole campaign. *)

val snapshot_to_json : snapshot -> Json.t
(** One JSONL line: [{"kind": "snapshot", "shard": ..., ...}]. *)

val jsonl_emit : out_channel -> snapshot -> unit
(** Serialized write of one snapshot line guarded by a process-wide
    mutex — safe as a [cfg.emit] under sharding. The caller owns the
    channel. *)
