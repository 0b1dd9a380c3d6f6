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

val pattern_tag : Pattern_id.t option -> string
(** The tag verdict counters, events and bug records carry for a case's
    pattern: {!Pattern_id.to_string}, or ["seed"] for a seed replay. *)

type t

val create :
  ?cov:Sqlfun_coverage.Coverage.t ->
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  ?profile:Sqlfun_telemetry.Profile.t ->
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
    scopes charge parse/plan/eval/storage, and every case's verdict
    bookkeeping runs under [detector-classify]. A private profiler is
    created when omitted; its dialect context is set to this profile's
    id either way.

    Without [telemetry] a private null-sink collector is created, so
    stage timings and verdict counters always accumulate; pass a
    collector to share aggregates with the rest of a campaign or to
    stream events. Each work item is timed as one ["execute"] span
    (engine round-trips and verdict bookkeeping of all its cases); the
    arming and every crash respawn are one ["restart-after-crash"] span
    each; every verdict bumps the dialect x pattern x class counter.

    [compact] (default [true]) enables the compact value
    representations ({!Sqlfun_value.Value.Range_arr}/[Rope_str]) inside
    the engine; verdicts, coverage and fault sites are
    representation-independent either way. *)

val run : t -> ?first_case:int -> Patterns.work -> unit
(** Execute one work item — every case SOFT's oracle classifies goes
    through here. Each case gets a fresh session, one engine round-trip
    under the profiler's root frame (a {!Sqlfun_fault.Fault.Crash} or a
    blown stack is turned into a verdict and respawns the engine), then
    verdict bookkeeping. The item opens one ["execute"] span.

    - [Seed stmt] interprets one statement, counted under pattern
      ["seed"].
    - [Family f] runs one position family (under a budget, the part of
      one that fits a share), member by member: member [i] planting [v]
      is the case [f_build i v] (see {!Patterns.family_cases}). Its
      prerequisites and probe run in order on one session (so
      session-state probes see their prerequisites' effects); the first
      error is the case's result, and a prerequisite crash is a found
      bug whose PoC is the whole statement list (replayable standalone
      from a cold engine).
      A case with prerequisites is a stateful scenario: afterwards the
      engine's storage is back at the post-seed baseline — by the
      crash respawn if it crashed, explicitly otherwise.

    [first_case] makes the item's case [i] global case
    [first_case + i] on bug records and verdict events. Shard workers
    pass the index in the global (unsharded) stream so merged campaign
    output equals a sequential run's; plain callers omit it and get the
    detector-local 1-based execution index. *)

val run_sql : t -> string -> verdict
(** One SQL string as one case under pattern ["seed"]; a parse error
    classifies as a clean error. *)

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
(** Stateful scenarios admitted: the family members {!run} executed
    whose case has prerequisites. *)

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
