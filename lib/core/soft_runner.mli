(** The complete SOFT pipeline: collect → generate per pattern → detect.

    One call of {!fuzz} is one "testing campaign" against one simulated
    DBMS, the unit the paper's Tables 4–6 aggregate.

    Campaigns parallelise at two levels on OCaml 5 domains
    ({!Sqlfun_parallel.Pool}):

    - {b shard-level} — {!fuzz} [~shards:k] partitions the case stream
      across [k] shards, each with a private
      engine/detector/coverage/telemetry, and merges the shard results
      deterministically: verdict counters, bug lists (order and case
      numbers included) and FP-signature sets are bit-identical to a
      single-shard run regardless of shard count or completion order.
    - {b dialect-level} — {!fuzz_all} [~jobs:n] runs whole campaigns on
      separate domains.

    Only wall-clock timings differ between a parallel and a sequential
    run; the "execute" stage total still measures CPU time summed
    across shards. *)

open Sqlfun_fault
open Sqlfun_dialects

type result = {
  dialect : Dialect.profile;
  seeds_collected : int;
  positions : int;
      (** substitution slots in the collected seeds, plus, when the
          campaign is stateful, the slots in every scenario probe;
          independent of budget, shards and jobs *)
  cases_executed : int;
  scenarios_executed : int;
      (** of {!cases_executed}, how many were stateful scenarios
          (non-empty prerequisite lists); deterministic in shard/job
          count *)
  prereq_statements : int;
      (** prerequisite statements admitted across those scenarios *)
  stage_verdicts : Detector.stage_counts;
      (** crash-class verdicts attributed to the paper's occurrence
          stages (parse / execute / storage); deterministic in
          shard/job count *)
  passed : int;
  clean_errors : int;
  false_positives : int;
  unique_false_positives : int;  (** distinct FP report signatures *)
  fp_signatures : string list;
  known_crashes : int;
  bugs : Detector.found_bug list;
  functions_triggered : int; (** distinct functions reached (Table 5) *)
  branches_covered : int;    (** distinct coverage points (Table 6) *)
  timings : Sqlfun_telemetry.Telemetry.stage_timing list;
      (** per-stage wall-time aggregates (campaign, collect, seed-replay,
          generate, execute, restart-after-crash), sorted by
          total time *)
  coverage : Sqlfun_coverage.Coverage.t;
      (** the campaign's coverage recorder, for snapshot slicing *)
  telemetry : Sqlfun_telemetry.Telemetry.t;
      (** the collector the campaign recorded into — holds the
          dialect x pattern x verdict counters behind {!timings} *)
  profile : Sqlfun_telemetry.Profile.t;
      (** execute-stage attribution (dialect x function x phase
          self-times); under sharding, the deterministic merge of the
          per-shard profilers *)
}

val split_budget : int -> int -> int list
(** [split_budget b n] is the per-pattern share of an [n]-pattern
    campaign with budget [b]: [n] entries of [b / n], with the first
    [b mod n] entries getting one extra case so the shares sum to
    exactly [b]. Empty when [n <= 0]. *)

val fuzz :
  ?budget:int ->
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  ?timeseries:Sqlfun_telemetry.Timeseries.cfg ->
  ?patterns:Pattern_id.t list ->
  ?stateful:bool ->
  ?shards:int ->
  ?jobs:int ->
  Dialect.profile ->
  result
(** [budget] caps generated-case executions (default: exhaust all
    patterns); it is split across patterns by {!split_budget}, and a
    pattern that runs dry below its share hands the unused remainder to
    the patterns still generating — a campaign executes exactly
    [budget] cases whenever the patterns can supply them.
    [patterns] restricts the pattern set — the ablation knob. Seeds are
    executed first (sanity pass, not counted against the budget).
    [stateful] (default [true]) appends the synthesized stateful
    scenario stream ({!Patterns.scenario_families}) as one extra
    budget stream; with [stateful:false] the campaign is bit-identical
    to the historical single-statement pipeline. The stateless streams
    never execute DDL/DML as cases, so the parse and storage counts of
    [stage_verdicts] are zero; execute still counts every stateless
    crash-class verdict.
    Every case after the seed replay is a position family's member
    ({!Patterns.family}), and each family is one work item, run by
    {!Detector.run} under one ["execute"] span: every pattern streams
    its position families ({!Patterns.families}), and the scenario
    stream one one-member family per scenario. The ["generate"] span is
    likewise paid once per family, not once per case. Under sharding a
    family runs whole on one shard, and a worker builds only the cases
    of the families it runs. Compact construction/spill counts
    are credited to the campaign collector
    ({!Sqlfun_telemetry.Telemetry.compact_counts}) once per worker
    domain.
    [telemetry] plugs in a shared collector/sink; without it a private
    null-sink collector still populates [timings] — verdicts and bug
    lists are bit-identical either way.

    [shards] (default 1) partitions the case stream across that many
    independent engine instances; [jobs] (default [shards], clamped to
    it) is the number of domains executing them, the calling domain
    included — [jobs - 1] are spawned. Every worker enumerates the
    whole case stream. A work item is a seed statement or a whole
    position family. With one job, each item goes to the shard with the
    fewest cases so far. With more, workers claim items from a shared
    counter ({!Sqlfun_parallel.Claim}) and run each claimed item on the
    least-loaded of their own shards (shard [s] belongs to worker
    [s mod jobs]), so which shard ran an item depends on scheduling.
    [shards = 1] runs one worker inline, recording straight into the
    result's coverage, [telemetry] and profile. Results are
    deterministic in [shards] and [jobs]: only timings, and at
    [jobs > 1] the per-shard split, change. With [shards > 1] a
    [--trace]-style event sink on [telemetry] sees campaign-level spans
    but not per-case events (shard collectors are merged as
    aggregates). An exception raised on any worker stops its peers at
    their next claim and propagates out of [fuzz] once every spawned
    domain has been joined.

    [timeseries] enables periodic campaign snapshots
    ({!Sqlfun_telemetry.Timeseries}): every executed case ticks a
    recorder (one per shard), and the campaign closes with a
    campaign-final snapshot ([shard = -1]) computed from the merged
    totals — its cases/branches/functions/new_bugs/dup_bugs fields are
    identical at any shard/job count. Under sharding the [cfg.emit]
    callback runs on worker domains and must be thread-safe.

    Registered telemetry flushers ({!Sqlfun_telemetry.Telemetry.flush})
    run when the campaign ends {e and} when it unwinds on an exception,
    and on every engine crash-restart, so streaming sinks are never
    left with a silently truncated tail. *)

val fuzz_all :
  ?budget:int ->
  ?stateful:bool ->
  ?jobs:int ->
  ?shards:int ->
  unit ->
  result list
(** One campaign per dialect, paper order, each with a private
    collector. [jobs] (default 1) runs campaigns on that many worker
    domains; [shards] is passed through to each campaign. *)

val fuzz_domains : jobs:int -> shards:int -> int
(** The domains [fuzz ~jobs ~shards] runs at once, the calling one
    included: one per job, jobs capped at the shard count. Spawns
    nothing. *)

val fuzz_all_domains : jobs:int -> shards:int -> int
(** The domains [fuzz_all ~jobs ~shards] runs at once, the calling one
    included: with [jobs > 1], up to one campaign domain per dialect,
    each running a campaign with one job per shard. Spawns nothing. *)
