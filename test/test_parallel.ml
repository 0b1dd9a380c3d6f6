(* The parallel layer and the determinism contract of sharded campaigns.

   The load-bearing property is at the bottom: a campaign sharded across
   4 worker domains must produce verdict counters, bug lists (order and
   case numbers included) and FP-signature sets bit-identical to the
   sequential run. Everything above it tests the pieces that property is
   assembled from — the pool, the budget split, and the merge algebra on
   coverage and telemetry. *)

module Pool = Sqlfun_parallel.Pool
module Coverage = Sqlfun_coverage.Coverage
module Telemetry = Sqlfun_telemetry.Telemetry
open Sqlfun_dialects

(* ----- Pool ----- *)

let test_pool_runs_jobs () =
  let results =
    Pool.with_pool 4 (fun pool ->
        Pool.run pool (List.init 20 (fun i () -> i * i)))
  in
  Alcotest.(check (list int)) "results in submission order"
    (List.init 20 (fun i -> i * i))
    results

let test_pool_propagates_exceptions () =
  Alcotest.check_raises "await re-raises the job's exception"
    (Failure "boom")
    (fun () ->
      ignore
        (Pool.with_pool 2 (fun pool ->
             Pool.run pool
               [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ])))

let test_pool_parallel_sum () =
  (* jobs > domains and domains > jobs both drain fully *)
  List.iter
    (fun jobs ->
      let counter = Atomic.make 0 in
      Pool.with_pool jobs (fun pool ->
          ignore
            (Pool.run pool
               (List.init 100 (fun i () -> Atomic.fetch_and_add counter i))));
      Alcotest.(check int)
        (Printf.sprintf "all 100 jobs ran at jobs=%d" jobs)
        (100 * 99 / 2) (Atomic.get counter))
    [ 1; 3; 8 ]

(* ----- split_budget (satellite a) ----- *)

let test_split_budget_exact () =
  let check b n =
    let shares = Soft.Soft_runner.split_budget b n in
    Alcotest.(check int)
      (Printf.sprintf "n entries (b=%d n=%d)" b n)
      n (List.length shares);
    Alcotest.(check int)
      (Printf.sprintf "shares sum to budget (b=%d n=%d)" b n)
      b
      (List.fold_left ( + ) 0 shares);
    (* remainder spread: entries differ by at most one, larger first *)
    List.iter
      (fun s ->
        Alcotest.(check bool) "share within one of b/n" true
          (s = (b / n) || s = (b / n) + 1))
      shares;
    Alcotest.(check bool) "larger shares first" true
      (List.sort (fun a b -> compare b a) shares = shares)
  in
  check 10 10;
  check 9 10;
  check 11 10;
  check 2005 10;
  check 3 7;
  check 0 5;
  Alcotest.(check (list int)) "n=0 is empty" [] (Soft.Soft_runner.split_budget 5 0)

let test_split_budget_qcheck () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"split_budget sums to budget"
       QCheck.(pair (int_bound 100_000) (int_range 1 64))
       (fun (b, n) ->
         let shares = Soft.Soft_runner.split_budget b n in
         List.length shares = n && List.fold_left ( + ) 0 shares = b))

let test_budgeted_campaign_executes_exact_budget () =
  (* the end-to-end view of satellite (a): a budget smaller than, equal
     to, and not divisible by the pattern count all execute exactly
     [budget] generated cases (seed replays are on top, so compare
     against the unbudgeted seed count) *)
  let prof = Dialect.find_exn "mariadb" in
  let seed_replays =
    (Soft.Soft_runner.fuzz ~budget:0 prof).Soft.Soft_runner.cases_executed
  in
  List.iter
    (fun budget ->
      let r = Soft.Soft_runner.fuzz ~budget prof in
      Alcotest.(check int)
        (Printf.sprintf "budget %d executes exactly" budget)
        (seed_replays + budget)
        r.Soft.Soft_runner.cases_executed)
    [ 3; 10; 2005 ]

(* ----- merge algebra (satellite c) ----- *)

let mk_cov points =
  let c = Coverage.create () in
  List.iter (fun (p, hits) -> for _ = 1 to hits do Coverage.hit c p done) points;
  c

let cov_gen =
  QCheck.Gen.(
    map mk_cov
      (list_size (int_bound 8)
         (pair (map (Printf.sprintf "pt%d") (int_bound 5)) (int_range 1 4))))

let test_coverage_merge_algebra () =
  let eq a b = Coverage.points a = Coverage.points b in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"coverage merge commutative"
       (QCheck.make QCheck.Gen.(pair cov_gen cov_gen))
       (fun (a, b) -> eq (Coverage.merge a b) (Coverage.merge b a)));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"coverage merge associative"
       (QCheck.make QCheck.Gen.(triple cov_gen cov_gen cov_gen))
       (fun (a, b, c) ->
         eq
           (Coverage.merge (Coverage.merge a b) c)
           (Coverage.merge a (Coverage.merge b c))));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"fresh recorder is identity"
       (QCheck.make cov_gen)
       (fun a ->
         eq (Coverage.merge a (Coverage.create ())) a
         && eq (Coverage.merge (Coverage.create ()) a) a))

(* a telemetry collector is observed through its two aggregate views *)
let tel_view t = (Telemetry.stage_timings t, Telemetry.verdict_rows t)

let mk_tel spec =
  let t = Telemetry.create () in
  List.iter
    (fun (stage, dur, verdict) ->
      Telemetry.record_stage t ~stage dur;
      Telemetry.count_verdict_row t
        (Telemetry.verdict_counter t ~dialect:"d" ~pattern:stage)
        ~dialect:"d" ~pattern:stage ~case_number:1 verdict)
    spec;
  t

let tel_gen =
  QCheck.Gen.(
    map mk_tel
      (list_size (int_bound 8)
         (triple
            (map (Printf.sprintf "s%d") (int_bound 3))
            (int_range 1 1_000_000)
            (oneofl Telemetry.verdict_classes))))

let test_telemetry_merge_algebra () =
  let eq a b = tel_view a = tel_view b in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"telemetry merge commutative"
       (QCheck.make QCheck.Gen.(pair tel_gen tel_gen))
       (fun (a, b) -> eq (Telemetry.merge a b) (Telemetry.merge b a)));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"telemetry merge associative"
       (QCheck.make QCheck.Gen.(triple tel_gen tel_gen tel_gen))
       (fun (a, b, c) ->
         eq
           (Telemetry.merge (Telemetry.merge a b) c)
           (Telemetry.merge a (Telemetry.merge b c))));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"fresh collector is identity"
       (QCheck.make tel_gen)
       (fun a ->
         eq (Telemetry.merge a (Telemetry.create ())) a
         && eq (Telemetry.merge (Telemetry.create ()) a) a))

let test_reclassify_verdict () =
  let t = Telemetry.create () in
  Telemetry.count_verdict_row t
    (Telemetry.verdict_counter t ~dialect:"d" ~pattern:"p")
    ~dialect:"d" ~pattern:"p" ~case_number:1 Telemetry.New_bug;
  Telemetry.reclassify_verdict t ~dialect:"d" ~pattern:"p"
    ~from_:Telemetry.New_bug ~to_:Telemetry.Dup_bug;
  let row =
    List.find
      (fun (r : Telemetry.verdict_counts) -> r.Telemetry.pattern = "p")
      (Telemetry.verdict_rows t)
  in
  Alcotest.(check int) "New_bug drained" 0
    (List.assoc Telemetry.New_bug row.Telemetry.by_class);
  Alcotest.(check int) "Dup_bug gained" 1
    (List.assoc Telemetry.Dup_bug row.Telemetry.by_class);
  Alcotest.check_raises "underflow rejected"
    (Invalid_argument
       "Telemetry.reclassify_verdict: no new_bug verdict recorded for d/p")
    (fun () ->
      Telemetry.reclassify_verdict t ~dialect:"d" ~pattern:"p"
        ~from_:Telemetry.New_bug ~to_:Telemetry.Dup_bug)

(* ----- campaign determinism (tentpole + satellites c/d) ----- *)

let bug_key (b : Soft.Detector.found_bug) =
  ( b.Soft.Detector.spec.Sqlfun_fault.Fault.site,
    b.Soft.Detector.case_number,
    b.Soft.Detector.found_by,
    b.Soft.Detector.poc )

(* every deterministic field of a campaign result, for field-for-field
   comparison (coverage hit counts are excluded by design: k shard
   engines arm independently, which inflates arming-path hit counts —
   the distinct point sets still agree and are compared) *)
let result_key (r : Soft.Soft_runner.result) =
  ( ( r.Soft.Soft_runner.seeds_collected,
      r.Soft.Soft_runner.positions,
      r.Soft.Soft_runner.cases_executed,
      r.Soft.Soft_runner.passed,
      r.Soft.Soft_runner.clean_errors ),
    ( r.Soft.Soft_runner.false_positives,
      r.Soft.Soft_runner.unique_false_positives,
      r.Soft.Soft_runner.fp_signatures,
      r.Soft.Soft_runner.known_crashes ),
    ( r.Soft.Soft_runner.scenarios_executed,
      r.Soft.Soft_runner.prereq_statements,
      r.Soft.Soft_runner.stage_verdicts ),
    ( List.map bug_key r.Soft.Soft_runner.bugs,
      r.Soft.Soft_runner.functions_triggered,
      r.Soft.Soft_runner.branches_covered,
      List.map fst (Coverage.points r.Soft.Soft_runner.coverage) ) )

let verdict_key tel =
  List.map
    (fun (r : Telemetry.verdict_counts) ->
      (r.Telemetry.dialect, r.Telemetry.pattern, r.Telemetry.by_class))
    (Telemetry.verdict_rows tel)

let test_sharded_campaign_deterministic () =
  (* the ISSUE's gating regression: jobs=1/shards=1 vs jobs=4/shards=4
     on a real campaign — identical verdict counters, identical bug
     lists (order and case numbers included), identical FP signatures *)
  let prof = Dialect.find_exn "mysql" in
  let seq = Soft.Soft_runner.fuzz ~budget:4000 ~shards:1 ~jobs:1 prof in
  let par = Soft.Soft_runner.fuzz ~budget:4000 ~shards:4 ~jobs:4 prof in
  Alcotest.(check bool) "bugs found" true (seq.Soft.Soft_runner.bugs <> []);
  Alcotest.(check (list (triple string int (option string))))
    "bug lists identical, order included"
    (List.map
       (fun (b : Soft.Detector.found_bug) ->
         ( b.Soft.Detector.spec.Sqlfun_fault.Fault.site,
           b.Soft.Detector.case_number,
           Option.map Sqlfun_fault.Pattern_id.to_string b.Soft.Detector.found_by ))
       seq.Soft.Soft_runner.bugs)
    (List.map
       (fun (b : Soft.Detector.found_bug) ->
         ( b.Soft.Detector.spec.Sqlfun_fault.Fault.site,
           b.Soft.Detector.case_number,
           Option.map Sqlfun_fault.Pattern_id.to_string b.Soft.Detector.found_by ))
       par.Soft.Soft_runner.bugs);
  Alcotest.(check (list string))
    "unique FP signatures identical" seq.Soft.Soft_runner.fp_signatures
    par.Soft.Soft_runner.fp_signatures;
  Alcotest.(check bool) "all result fields agree" true
    (result_key seq = result_key par);
  Alcotest.(check bool) "verdict counters identical" true
    (verdict_key seq.Soft.Soft_runner.telemetry
    = verdict_key par.Soft.Soft_runner.telemetry)

let test_more_shards_than_jobs () =
  (* jobs < shards puts several shards on one worker *)
  let prof = Dialect.find_exn "postgresql" in
  let seq = Soft.Soft_runner.fuzz ~budget:1200 prof in
  let par = Soft.Soft_runner.fuzz ~budget:1200 ~shards:7 ~jobs:2 prof in
  Alcotest.(check bool) "7 shards on 2 workers matches sequential" true
    (result_key seq = result_key par)

let test_stateful_sharded_deterministic () =
  (* the stateful gating regression: a scenario is one atomic work item,
     so sequential vs jobs=2/shards=2 must agree on every deterministic
     field — scenario counters and per-stage verdict attribution
     included — and the campaign must surface verdicts from all three
     occurrence stages *)
  let prof = Dialect.find_exn "duckdb" in
  let seq = Soft.Soft_runner.fuzz ~budget:2000 ~shards:1 ~jobs:1 prof in
  let par = Soft.Soft_runner.fuzz ~budget:2000 ~shards:2 ~jobs:2 prof in
  Alcotest.(check bool) "scenarios ran" true
    (seq.Soft.Soft_runner.scenarios_executed > 0);
  let sv = seq.Soft.Soft_runner.stage_verdicts in
  Alcotest.(check bool) "parse-stage verdicts surfaced" true
    (sv.Soft.Detector.parse > 0);
  Alcotest.(check bool) "execute-stage verdicts surfaced" true
    (sv.Soft.Detector.execute > 0);
  Alcotest.(check bool) "storage-stage verdicts surfaced" true
    (sv.Soft.Detector.storage > 0);
  Alcotest.(check bool) "sharded stateful run matches sequential" true
    (result_key seq = result_key par);
  Alcotest.(check bool) "verdict counters agree" true
    (verdict_key seq.Soft.Soft_runner.telemetry
    = verdict_key par.Soft.Soft_runner.telemetry)

let test_batched_sharded_deterministic () =
  (* a position family is one work item, owned whole by one shard, so
     the campaign at any jobs/shards combination — more shards than
     jobs included — must match the 1x1 run on every result field, and
     some item must carry more than one case on the sharded legs (fewer
     execute spans than cases) for the check to mean anything *)
  let prof = Dialect.find_exn "clickhouse" in
  let baseline = Soft.Soft_runner.fuzz ~budget:3000 ~shards:1 ~jobs:1 prof in
  List.iter
    (fun (shards, jobs) ->
      let r = Soft.Soft_runner.fuzz ~budget:3000 ~shards ~jobs prof in
      Alcotest.(check bool)
        (Printf.sprintf "shards=%d jobs=%d matches 1x1" shards jobs)
        true
        (result_key baseline = result_key r);
      Alcotest.(check bool) "verdict counters agree" true
        (verdict_key baseline.Soft.Soft_runner.telemetry
        = verdict_key r.Soft.Soft_runner.telemetry);
      let execute_calls =
        List.fold_left
          (fun acc (s : Sqlfun_telemetry.Telemetry.stage_timing) ->
            if s.Sqlfun_telemetry.Telemetry.stage = "execute" then
              acc + s.Sqlfun_telemetry.Telemetry.calls
            else acc)
          0 r.Soft.Soft_runner.timings
      in
      Alcotest.(check bool) "multi-case families executed" true
        (execute_calls < r.Soft.Soft_runner.cases_executed))
    [ (3, 2); (4, 4) ]

let test_timeseries_final_snapshot_shard_invariant () =
  (* the campaign-final timeseries snapshot (shard = -1) is computed
     from the deterministically merged totals, so its
     determinism-relevant fields must be identical at any shard/job
     count — only rates and timestamps may differ *)
  let module Timeseries = Sqlfun_telemetry.Timeseries in
  let final_of shards jobs =
    let captured = ref None in
    let cfg =
      {
        Timeseries.every_cases = 500;
        every_ms = 0;
        emit =
          (fun s -> if s.Timeseries.shard = -1 then captured := Some s);
      }
    in
    let prof = Dialect.find_exn "mariadb" in
    let r = Soft.Soft_runner.fuzz ~budget:2000 ~timeseries:cfg ~shards ~jobs prof in
    match !captured with
    | Some s -> (r, s)
    | None -> Alcotest.fail "campaign-final snapshot never emitted"
  in
  let r_seq, seq = final_of 1 1 in
  let _, par = final_of 3 3 in
  let key (s : Timeseries.snapshot) =
    ( s.Timeseries.cases,
      s.Timeseries.branches,
      s.Timeseries.functions,
      s.Timeseries.new_bugs,
      s.Timeseries.dup_bugs )
  in
  Alcotest.(check (list int)) "final snapshot shard-invariant"
    (let (a, b, c, d, e) = key seq in [ a; b; c; d; e ])
    (let (a, b, c, d, e) = key par in [ a; b; c; d; e ]);
  Alcotest.(check int) "final cases = campaign total"
    r_seq.Soft.Soft_runner.cases_executed seq.Timeseries.cases;
  Alcotest.(check int) "final branches = campaign total"
    r_seq.Soft.Soft_runner.branches_covered seq.Timeseries.branches;
  Alcotest.(check int) "final new_bugs = campaign total"
    (List.length r_seq.Soft.Soft_runner.bugs) seq.Timeseries.new_bugs;
  (* the sharded final also accounts every executed case to a shard *)
  Alcotest.(check int) "shard_cases sums to cases" par.Timeseries.cases
    (Array.fold_left ( + ) 0 par.Timeseries.shard_cases)

let test_failing_worker_propagates () =
  (* a shard whose timeseries emit raises must take the campaign down
     with that exception, whether the shard runs on the spawned domain
     (shard 1) or on the inline worker 0 (shard 0) — without hanging on
     the other worker, and leaving nothing behind that stops the next
     campaign. The budget is well past the first snapshot, so the
     surviving worker has thousands of cases left to run. *)
  let module Timeseries = Sqlfun_telemetry.Timeseries in
  let prof = Dialect.find_exn "mariadb" in
  List.iter
    (fun bad ->
      let cfg =
        {
          Timeseries.every_cases = 100;
          every_ms = 0;
          emit = (fun s -> if s.Timeseries.shard = bad then failwith "emit");
        }
      in
      Alcotest.check_raises
        (Printf.sprintf "shard %d failure surfaces" bad)
        (Failure "emit")
        (fun () ->
          ignore
            (Soft.Soft_runner.fuzz ~budget:20000 ~timeseries:cfg ~shards:2
               ~jobs:2 prof)))
    [ 1; 0 ];
  let seq = Soft.Soft_runner.fuzz ~budget:600 prof in
  let par = Soft.Soft_runner.fuzz ~budget:600 ~shards:2 ~jobs:2 prof in
  Alcotest.(check bool) "a following campaign still runs" true
    (result_key seq = result_key par)

let test_fuzz_all_parallel_deterministic () =
  let seq = Soft.Soft_runner.fuzz_all ~budget:400 () in
  let par = Soft.Soft_runner.fuzz_all ~budget:400 ~jobs:4 ~shards:2 () in
  List.iter2
    (fun (a : Soft.Soft_runner.result) b ->
      Alcotest.(check bool)
        (a.Soft.Soft_runner.dialect.Dialect.id ^ " campaign identical")
        true
        (result_key a = result_key b))
    seq par

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool runs jobs in order" `Quick test_pool_runs_jobs;
      Alcotest.test_case "pool propagates exceptions" `Quick
        test_pool_propagates_exceptions;
      Alcotest.test_case "pool drains at any job count" `Quick
        test_pool_parallel_sum;
      Alcotest.test_case "split_budget exact" `Quick test_split_budget_exact;
      Alcotest.test_case "split_budget qcheck" `Quick test_split_budget_qcheck;
      Alcotest.test_case "budget executed exactly" `Slow
        test_budgeted_campaign_executes_exact_budget;
      Alcotest.test_case "coverage merge algebra" `Quick
        test_coverage_merge_algebra;
      Alcotest.test_case "telemetry merge algebra" `Quick
        test_telemetry_merge_algebra;
      Alcotest.test_case "reclassify verdict" `Quick test_reclassify_verdict;
      Alcotest.test_case "4-shard campaign deterministic" `Slow
        test_sharded_campaign_deterministic;
      Alcotest.test_case "more shards than jobs" `Slow
        test_more_shards_than_jobs;
      Alcotest.test_case "stateful campaign shard-deterministic" `Slow
        test_stateful_sharded_deterministic;
      Alcotest.test_case "batched campaign shard-deterministic" `Slow
        test_batched_sharded_deterministic;
      Alcotest.test_case "timeseries final snapshot shard-invariant" `Slow
        test_timeseries_final_snapshot_shard_invariant;
      Alcotest.test_case "failing worker propagates" `Slow
        test_failing_worker_propagates;
      Alcotest.test_case "parallel fuzz_all deterministic" `Slow
        test_fuzz_all_parallel_deterministic;
    ] )
