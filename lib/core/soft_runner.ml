open Sqlfun_fault
open Sqlfun_dialects
module Coverage = Sqlfun_coverage.Coverage
module Telemetry = Sqlfun_telemetry.Telemetry
module Profile = Sqlfun_telemetry.Profile
module Timeseries = Sqlfun_telemetry.Timeseries
module Pool = Sqlfun_parallel.Pool
module Progress = Sqlfun_parallel.Progress
module Value = Sqlfun_value.Value

type result = {
  dialect : Dialect.profile;
  seeds_collected : int;
  positions : int;
  cases_executed : int;
  scenarios_executed : int;
  prereq_statements : int;
  stage_verdicts : Detector.stage_counts;
  passed : int;
  clean_errors : int;
  false_positives : int;
  unique_false_positives : int;
  fp_signatures : string list;
  known_crashes : int;
  bugs : Detector.found_bug list;
  functions_triggered : int;
  branches_covered : int;
  timings : Telemetry.stage_timing list;
  coverage : Coverage.t;
  telemetry : Telemetry.t;
  profile : Profile.t;
}

(* An explicit budget is split across the requested patterns so a
   bounded campaign still exercises every pattern family (the paper's
   full enumeration corresponds to no budget). The remainder of the
   division goes to the first [b mod n] patterns, one case each, so the
   shares always sum to exactly [b] — plain [b / n] would silently
   under-run by up to [n - 1] cases, and a budget smaller than the
   pattern count used to degrade to one case per pattern (overrunning
   the budget). *)
let split_budget b n =
  if n <= 0 then []
  else begin
    let base = b / n and extra = b mod n in
    List.init n (fun i -> if i < extra then base + 1 else base)
  end

(* [drain_share emit families n] forces families through [emit] until
   exactly [n] cases have been emitted; returns how many were emitted
   and the unconsumed rest of the stream ([None] when the stream ran
   dry). A family counts as its member count; one that would overshoot
   the share is split at the boundary and its tail becomes the stream's
   next family, so budget shares cut families at exactly the case
   index a per-case enumeration would have stopped at. *)
let drain_share emit families n =
  let rec go families taken =
    if taken >= n then (taken, Some families)
    else
      match Seq.uncons families with
      | None -> (taken, None)
      | Some ((f : Patterns.family), rest) ->
        let size = List.length f.Patterns.f_members in
        if taken + size > n then begin
          let head, tail = Patterns.split_family f (n - taken) in
          emit head;
          (n, Some (Seq.cons tail rest))
        end
        else begin
          emit f;
          go rest (taken + size)
        end
  in
  go families 0

(* The budgeted enumeration every worker repeats — each MUST emit the
   same stream in the same order, or sharding would change results.
   Each round splits the remaining budget over the streams still live
   (pattern order, {!split_budget} shares); a stream that runs dry below
   its share drops out and its unused share is re-split in the next
   round, so a campaign executes exactly [b] cases whenever the
   patterns can supply them. Terminates because every
   round either spends budget or removes a dry stream. *)
let emit_budgeted ~budget ~streams ~emit =
  match budget with
  | None -> List.iter (Seq.iter emit) streams
  | Some b ->
    let live = ref streams in
    let remaining = ref b in
    while !remaining > 0 && !live <> [] do
      let shares = split_budget !remaining (List.length !live) in
      live :=
        List.concat
          (List.map2
             (fun families share ->
               if share = 0 then [ families ]
               else begin
                 let taken, rest = drain_share emit families share in
                 remaining := !remaining - taken;
                 match rest with Some s -> [ s ] | None -> []
               end)
             !live shares)
    done

(* One snapshot probe per shard: branch/function counts from the
   coverage recorder, bug counts from the detector, and the
   campaign-wide per-shard progress view. Probes run at snapshot cadence only, so the O(bugs) length walk
   is fine. *)
let probe_of det progress =
  {
    Timeseries.p_branches =
      (fun () -> Coverage.count (Detector.coverage det));
    p_functions =
      (fun () -> Coverage.prefixed_count (Detector.coverage det) "fn/");
    p_new_bugs = (fun () -> List.length (Detector.bugs det));
    p_dup_bugs = (fun () -> Detector.dup_crashes det);
    p_shard_cases = (fun () -> Progress.read progress);
  }

let mk_result ~prof ~seeds ~tel ~cov ~profile ~positions ~cases_executed
    ~scenarios_executed ~prereq_statements ~stage_verdicts ~passed
    ~clean_errors ~false_positives ~fp_signatures ~known_crashes ~bugs =
  {
    dialect = prof;
    seeds_collected = List.length seeds;
    positions;
    cases_executed;
    scenarios_executed;
    prereq_statements;
    stage_verdicts;
    passed;
    clean_errors;
    false_positives;
    unique_false_positives = List.length fp_signatures;
    fp_signatures;
    known_crashes;
    bugs;
    functions_triggered = Coverage.prefixed_count cov "fn/";
    branches_covered = Coverage.count cov;
    timings = Telemetry.stage_timings tel;
    coverage = cov;
    telemetry = tel;
    profile;
  }

(* The CLI "positions" line stays honest for stateful campaigns: the
   seed substitution slots plus the slots in every synthesized scenario
   probe (INSERT/WHERE expression positions included), counted per
   scenario family without building the stream. *)
let count_all_positions ~registry ~seeds ~stateful =
  Patterns.count_positions seeds
  + (if stateful then Patterns.scenario_positions ~registry ~seeds else 0)

(* The budgeted streams every worker enumerates: every pattern's
   position families in paper order, then, by default, the synthesized
   stateful stream as an eleventh source, one scenario per family. *)
let family_streams ~tel ~registry ~seeds ~patterns ~stateful =
  List.map
    (fun p -> Patterns.families ~telemetry:tel ~registry ~seeds p)
    patterns
  @
  if stateful then
    [ Patterns.scenario_families ~telemetry:tel ~registry ~seeds () ]
  else []

(* ----- the campaign: producer-free shards -----

   Every worker domain enumerates the whole deterministic stream itself
   (seed replay, then the budgeted pattern streams), numbering cases
   globally, and executes only the work items its shards own.
   Generation reads nothing but the immutable seeds and registry, so
   repeating it on each domain is safe, and no case ever crosses a
   domain. Ownership is per whole item — a seed statement or an entire
   position family (a scenario is a one-member family) goes to the
   shard with the fewest cases so far, lowest index on ties — and every
   worker computes the same assignment. A worker builds the cases of
   the items it owns only. Shard [s] runs on worker [s mod jobs];
   worker 0 is the calling domain, so [jobs - 1] domains are spawned.

   Each shard runs a private engine/detector/coverage/telemetry —
   engines are mutable and crash-restart, so nothing is shared between
   domains. Because a shard executes its items in enumeration order, it
   sees its sub-stream in increasing global order, so merging is pure
   bookkeeping afterwards: counters and histograms add, coverage points
   union, and the New-vs-Dup split is re-derived by globally ordering
   crash records on case number ([Detector.merge_bugs]). With one shard
   the inline worker records straight into the campaign's coverage,
   collector and profile, and there is nothing to merge. *)

(* [shards] fresh per-shard recorders, or the campaign's own when it
   runs as a single shard *)
let per_shard ~shards ~create campaign =
  if shards = 1 then [| campaign |] else Array.init shards (fun _ -> create ())

let merge_shards merge_into ~dst parts =
  if Array.length parts > 1 then Array.iter (fun p -> merge_into ~dst p) parts

let fuzz ?budget ?telemetry ?timeseries ?(patterns = Pattern_id.all)
    ?(compact = true) ?(stateful = true) ?(shards = 1) ?jobs
    prof =
  let shards = Stdlib.max 1 shards in
  let jobs =
    match jobs with
    | Some j -> Stdlib.max 1 (Stdlib.min j shards)
    | None -> shards
  in
  let tel = match telemetry with Some t -> t | None -> Telemetry.create () in
  let cov = Coverage.create () in
  let profile = Profile.create () in
  let dialect = prof.Dialect.id in
  let t0 = Telemetry.now_ns () in
  let shard_covs = per_shard ~shards ~create:Coverage.create cov in
  let shard_tels = per_shard ~shards ~create:Telemetry.create tel in
  let shard_profiles = per_shard ~shards ~create:Profile.create profile in
  let progress = Progress.create shards in
  (* the result record is built after the campaign span closes so the
     "campaign" stage itself shows up in [timings]; the flush guard runs
     even when a case raises, so streaming sinks survive an abnormal
     termination with the campaign's tail intact *)
  let registry, seeds, detectors =
    Fun.protect ~finally:(fun () -> Telemetry.flush tel) @@ fun () ->
    Telemetry.with_span tel ~dialect "campaign" @@ fun () ->
    let registry = Dialect.registry prof in
    let seeds =
      Collector.collect ~telemetry:tel ~registry ~suite:prof.Dialect.seeds ()
    in
    let worker w () =
      (* engines are armed inside the worker domain, so even startup
         cost parallelises. Worker 0 times its campaign-level spans
         (seed replay, generation) on the campaign collector, so a
         streaming sink sees them; every other worker on its first
         shard's. Compact hit/spill cells are domain-local, so a
         before/after delta taken inside the worker attributes exactly
         this worker's compact activity; it is credited to the worker's
         first shard's collector. *)
      let span_tel = if w = 0 then tel else shard_tels.(w) in
      let compact0 = Value.Compact.read () in
      let local =
        Array.init shards (fun s ->
            if s mod jobs <> w then None
            else begin
              let det =
                Detector.create ~cov:shard_covs.(s) ~telemetry:shard_tels.(s)
                  ~profile:shard_profiles.(s) ~compact prof
              in
              let recorder =
                Option.map
                  (fun cfg ->
                    Timeseries.recorder cfg ~shard:s
                      (probe_of det progress))
                  timeseries
              in
              Some (det, recorder)
            end)
      in
      let loads = Array.make shards 0 in
      let next = ref 0 in
      (* [emit w] assigns the item's global case numbers to the
         least-loaded shard and runs it when this worker owns it *)
      let emit w =
        let size = Patterns.work_size w in
        let s = ref 0 in
        for i = 1 to shards - 1 do
          if loads.(i) < loads.(!s) then s := i
        done;
        let s = !s in
        let first_case = !next + 1 in
        loads.(s) <- loads.(s) + size;
        next := !next + size;
        match local.(s) with
        | None -> ()
        | Some (det, recorder) ->
          Detector.run det ~first_case w;
          Option.iter
            (fun r ->
              for _ = 1 to size do
                Progress.tick progress s;
                Timeseries.tick r
              done)
            recorder
      in
      (* Sanity pass: the regression suite must run on the armed server
         too — the paper's tool replays the suite it scanned. *)
      Telemetry.with_span span_tel ~dialect "seed-replay" (fun () ->
          List.iter
            (fun (seed : Collector.seed) ->
              emit (Patterns.Seed seed.Collector.stmt))
            seeds);
      emit_budgeted ~budget
        ~streams:
          (family_streams ~tel:span_tel ~registry ~seeds ~patterns ~stateful)
        ~emit:(fun f -> emit (Patterns.Family f));
      Array.iter
        (Option.iter (fun (_, r) -> Option.iter Timeseries.finalize r))
        local;
      let d = Value.Compact.since compact0 in
      Telemetry.compact_add shard_tels.(w) ~hits:d.Value.Compact.hits
        ~spills:d.Value.Compact.spills;
      Array.map (Option.map fst) local
    in
    let per_worker =
      if jobs = 1 then [ worker 0 () ]
      else
        (* a worker that raises is re-raised here; the pool joins its
           domains on the way out either way *)
        Pool.with_pool (jobs - 1) @@ fun pool ->
        let spawned =
          List.init (jobs - 1) (fun w -> Pool.submit pool (worker (w + 1)))
        in
        let own = worker 0 () in
        own :: List.map Pool.await spawned
    in
    let detectors =
      Array.init shards (fun s ->
          Option.get (List.nth per_worker (s mod jobs)).(s))
    in
    (registry, seeds, detectors)
  in
  (* deterministic merge, in shard order *)
  merge_shards Coverage.merge_into ~dst:cov shard_covs;
  merge_shards Telemetry.merge_into ~dst:tel shard_tels;
  merge_shards Profile.merge_into ~dst:profile shard_profiles;
  let bugs, demoted =
    Detector.merge_bugs (Array.to_list (Array.map Detector.bugs detectors))
  in
  List.iter
    (fun (b : Detector.found_bug) ->
      Telemetry.reclassify_verdict tel ~dialect
        ~pattern:(Detector.pattern_tag b.Detector.found_by)
        ~from_:Telemetry.New_bug ~to_:Telemetry.Dup_bug)
    demoted;
  let sum f = Array.fold_left (fun acc d -> acc + f d) 0 detectors in
  let fp_signatures =
    List.sort_uniq String.compare
      (List.concat_map Detector.fp_signatures (Array.to_list detectors))
  in
  (* the campaign-final snapshot is computed from the deterministically
     merged totals, never from racing shard streams: its
     cases/branches/functions/new_bugs/dup_bugs match a single-shard run
     of the same campaign bit-for-bit (rates are throughput metadata and
     do not) *)
  Option.iter
    (fun cfg ->
      ignore
        (Timeseries.campaign_final cfg
           ~elapsed_ns:(Telemetry.now_ns () - t0)
           ~cases:(sum Detector.executed)
           ~branches:(Coverage.count cov)
           ~functions:(Coverage.prefixed_count cov "fn/")
           ~new_bugs:(List.length bugs)
           ~dup_bugs:(sum Detector.dup_crashes + List.length demoted)
           ~shard_cases:(Array.map Detector.executed detectors)))
    timeseries;
  let stage_verdicts =
    Array.fold_left
      (fun acc d ->
        let sv = Detector.stage_verdicts d in
        {
          Detector.parse = acc.Detector.parse + sv.Detector.parse;
          execute = acc.Detector.execute + sv.Detector.execute;
          storage = acc.Detector.storage + sv.Detector.storage;
        })
      { Detector.parse = 0; execute = 0; storage = 0 }
      detectors
  in
  mk_result ~prof ~seeds ~tel ~cov ~profile
    ~positions:(count_all_positions ~registry ~seeds ~stateful)
    ~cases_executed:(sum Detector.executed)
    ~scenarios_executed:(sum Detector.scenarios_executed)
    ~prereq_statements:(sum Detector.prereq_statements)
    ~stage_verdicts
    ~passed:(sum Detector.passed)
    ~clean_errors:(sum Detector.clean_errors)
    ~false_positives:(sum Detector.false_positives)
    ~fp_signatures ~known_crashes:(sum Detector.known_crashes) ~bugs

let fuzz_all ?budget ?stateful ?(jobs = 1) ?(shards = 1) () =
  let campaign prof = fuzz ?budget ?stateful ~shards prof in
  if jobs <= 1 then List.map campaign Dialect.all
  else
    Pool.with_pool
      (Stdlib.min jobs (List.length Dialect.all))
      (fun pool ->
        Pool.run pool (List.map (fun prof () -> campaign prof) Dialect.all))
