(* The parallel layer and the determinism contract of sharded campaigns.

   The load-bearing property is at the bottom: a campaign sharded across
   4 worker domains must produce verdict counters, bug lists (order and
   case numbers included) and FP-signature sets bit-identical to the
   sequential run. Everything above it tests the pieces that property is
   assembled from — the pool, the budget split, and the merge algebra on
   coverage and telemetry. *)

module Pool = Sqlfun_parallel.Pool
module Claim = Sqlfun_parallel.Claim
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

(* ----- Claim ----- *)

let test_claim_splits_by_speed () =
  (* two workers walk the same 300 items and run the ones they claim;
     worker 1 sleeps on each. Every index runs exactly once, each
     worker sees its indices in strictly increasing order, and the
     sleeper runs fewer items *)
  let n = 300 in
  let claims = Claim.create () in
  let walk ~work () =
    let c = Claim.cursor claims in
    let mine = ref [] in
    for i = 0 to n - 1 do
      if Claim.mine c i then begin
        work ();
        mine := i :: !mine
      end
    done;
    List.rev !mine
  in
  let fast, slow =
    Pool.with_pool 1 (fun pool ->
        let slow = Pool.submit pool (walk ~work:(fun () -> Unix.sleepf 0.001)) in
        let fast =
          walk ~work:(fun () -> ignore (Sys.opaque_identity (List.init 200 Fun.id))) ()
        in
        (fast, Pool.await slow))
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "fast worker's indices increase" true (increasing fast);
  Alcotest.(check bool) "slow worker's indices increase" true (increasing slow);
  Alcotest.(check (list int)) "every index runs exactly once"
    (List.init n Fun.id)
    (List.sort compare (fast @ slow));
  Alcotest.(check bool)
    (Printf.sprintf "slow worker runs fewer (%d vs %d)" (List.length slow)
       (List.length fast))
    true
    (List.length slow < List.length fast);
  (* after [stop], a cursor's next claim raises instead of claiming *)
  let claims = Claim.create () in
  let c = Claim.cursor claims in
  Alcotest.(check bool) "first claim is item 0" true (Claim.mine c 0);
  Claim.stop claims;
  Alcotest.check_raises "a claim after stop raises" Claim.Stopped (fun () ->
      ignore (Claim.mine c 1))

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

let test_timed_set_shard_invariant () =
  (* the profiler times a case by its global number, so the timed set —
     and with it timed_cases — is the same at any jobs x shards, and
     every function key's call count stays exact (root keys differ:
     each shard arms its own engine) *)
  let module Profile = Sqlfun_telemetry.Profile in
  let prof = Dialect.find_exn "mysql" in
  let view (r : Soft.Soft_runner.result) =
    let p = r.Soft.Soft_runner.profile in
    ( Profile.timed_cases p,
      List.sort compare
        (List.filter_map
           (fun (row : Profile.row) ->
             if row.Profile.r_func = "" then None
             else
               Some
                 ( row.Profile.r_func,
                   Profile.phase_to_string row.Profile.r_phase,
                   row.Profile.r_count ))
           (Profile.rows p)) )
  in
  let seq = Soft.Soft_runner.fuzz ~budget:4000 ~shards:1 ~jobs:1 prof in
  let timed, counts = view seq in
  let expected =
    Seq.length
      (Seq.filter Profile.timed_case
         (Seq.take seq.Soft.Soft_runner.cases_executed (Seq.ints 1)))
  in
  Alcotest.(check int) "1x1 times the sampled case numbers" expected timed;
  Alcotest.(check bool) "function keys counted" true (counts <> []);
  List.iter
    (fun (jobs, shards) ->
      let t, c =
        view (Soft.Soft_runner.fuzz ~budget:4000 ~shards ~jobs prof)
      in
      Alcotest.(check int)
        (Printf.sprintf "%dx%d timed_cases" jobs shards)
        timed t;
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d function call counts" jobs shards)
        true (counts = c))
    [ (2, 2); (2, 4) ]

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
     surviving worker has thousands of cases left to run; the failing
     worker stops the claims, so the survivor finishes at most the item
     it is running and the one it holds, a few snapshots' worth rather
     than its whole share (about 100 snapshots). *)
  let module Timeseries = Sqlfun_telemetry.Timeseries in
  let prof = Dialect.find_exn "mariadb" in
  List.iter
    (fun bad ->
      let failed = Atomic.make false and after = Atomic.make 0 in
      let cfg =
        {
          Timeseries.every_cases = 100;
          every_ms = 0;
          emit =
            (fun s ->
              if s.Timeseries.shard = bad then begin
                Atomic.set failed true;
                failwith "emit"
              end
              else if Atomic.get failed then Atomic.incr after);
        }
      in
      Alcotest.check_raises
        (Printf.sprintf "shard %d failure surfaces" bad)
        (Failure "emit")
        (fun () ->
          ignore
            (Soft.Soft_runner.fuzz ~budget:20000 ~timeseries:cfg ~shards:2
               ~jobs:2 prof));
      let n = Atomic.get after in
      Alcotest.(check bool)
        (Printf.sprintf "shard %d failure stops its peer (%d snapshots after)"
           bad n)
        true (n <= 10))
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

(* The domain counts the CLI refuses past the runtime's limit, computed
   without spawning: [fuzz] runs one domain per job (jobs capped at the
   shard count); [fuzz_all] runs one campaign domain per dialect, each
   with one job per shard. *)
let test_domain_counts () =
  let open Soft.Soft_runner in
  let within n = n <= Pool.max_domains in
  Alcotest.(check int) "runtime limit" 128 Pool.max_domains;
  Alcotest.(check int) "fuzz 200x200" 200 (fuzz_domains ~jobs:200 ~shards:200);
  Alcotest.(check bool) "fuzz 200x200 refused" false
    (within (fuzz_domains ~jobs:200 ~shards:200));
  Alcotest.(check int) "fuzz jobs capped by shards" 4
    (fuzz_domains ~jobs:200 ~shards:4);
  Alcotest.(check bool) "fuzz 128x128 accepted" true
    (within (fuzz_domains ~jobs:128 ~shards:128));
  Alcotest.(check bool) "fuzz 129x129 refused" false
    (within (fuzz_domains ~jobs:129 ~shards:129));
  Alcotest.(check int) "tables 7 jobs x 20 shards" 141
    (fuzz_all_domains ~jobs:7 ~shards:20);
  Alcotest.(check bool) "tables 7x20 refused" false
    (within (fuzz_all_domains ~jobs:7 ~shards:20));
  Alcotest.(check int) "tables 7 jobs x 18 shards" 127
    (fuzz_all_domains ~jobs:7 ~shards:18);
  Alcotest.(check int) "tables jobs capped by dialects" 8
    (fuzz_all_domains ~jobs:50 ~shards:1);
  Alcotest.(check int) "tables 1 job: one campaign at a time" 200
    (fuzz_all_domains ~jobs:1 ~shards:200)

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool runs jobs in order" `Quick test_pool_runs_jobs;
      Alcotest.test_case "pool propagates exceptions" `Quick
        test_pool_propagates_exceptions;
      Alcotest.test_case "pool drains at any job count" `Quick
        test_pool_parallel_sum;
      Alcotest.test_case "claims split by speed" `Quick
        test_claim_splits_by_speed;
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
      Alcotest.test_case "timed set shard-invariant" `Slow
        test_timed_set_shard_invariant;
      Alcotest.test_case "timeseries final snapshot shard-invariant" `Slow
        test_timeseries_final_snapshot_shard_invariant;
      Alcotest.test_case "failing worker propagates" `Slow
        test_failing_worker_propagates;
      Alcotest.test_case "parallel fuzz_all deterministic" `Slow
        test_fuzz_all_parallel_deterministic;
      Alcotest.test_case "domain counts past the runtime limit" `Quick
        test_domain_counts;
    ] )
