open Sqlfun_ast
open Sqlfun_fault
open Sqlfun_dialects

let registry_of dialect = Dialect.registry (Dialect.find_exn dialect)

let seeds_for dialect =
  let prof = Dialect.find_exn dialect in
  Soft.Collector.collect ~registry:(registry_of dialect) ~suite:prof.Dialect.seeds ()

(* ----- boundary pool ----- *)

let test_pool_composition () =
  let pool = Soft.Boundary_pool.all () in
  Alcotest.(check bool) "has NULL" true (List.mem Ast.Null pool);
  Alcotest.(check bool) "has empty string" true (List.mem (Ast.Str_lit "") pool);
  Alcotest.(check bool) "has star" true (List.mem Ast.Star pool);
  (* digit lengths are enumerated rather than one extreme *)
  Alcotest.(check bool) "has 5-digit nines" true
    (List.mem (Ast.Int_lit "99999") pool);
  Alcotest.(check bool) "has 35-digit nines" true
    (List.mem (Ast.Int_lit (String.make 35 '9')) pool);
  Alcotest.(check bool) "has negative decimals" true
    (List.mem (Ast.Dec_lit ("-0." ^ String.make 10 '9')) pool);
  (* pool literals stay below P1.3's splice range so trigger ranges are
     disjoint *)
  List.iter
    (fun e ->
      match e with
      | Ast.Int_lit s | Ast.Dec_lit s ->
        Alcotest.(check bool) "literal under 40 digits" true (String.length s < 40)
      | _ -> ())
    pool

(* ----- collector ----- *)

let test_collector () =
  let seeds = seeds_for "mariadb" in
  Alcotest.(check bool) "collects many seeds" true (List.length seeds > 100);
  let docs, suite =
    List.partition (fun s -> s.Soft.Collector.source = Soft.Collector.Docs) seeds
  in
  Alcotest.(check bool) "docs seeds" true (List.length docs > 80);
  Alcotest.(check bool) "suite seeds" true (List.length suite > 20);
  (* every seed contains at least one known function call *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "seed has a call" true
        (Ast_util.count_function_exprs s.Soft.Collector.stmt >= 1))
    seeds;
  (* prerequisites keep only DDL/DML *)
  let prof = Dialect.find_exn "mariadb" in
  let prereqs = Soft.Collector.prerequisites prof.Dialect.seeds in
  Alcotest.(check int) "4 prerequisites" 4 (List.length prereqs)

let test_donors_distinct () =
  let seeds = seeds_for "mysql" in
  let donors = Soft.Collector.donors seeds in
  let printed = List.map (fun c -> Sql_pp.expr (Ast.Call c)) donors in
  Alcotest.(check int) "donors unique" (List.length printed)
    (List.length (List.sort_uniq String.compare printed))

(* ----- patterns ----- *)

let gen dialect pattern =
  Soft.Patterns.generate ~registry:(registry_of dialect) ~seeds:(seeds_for dialect)
    pattern
  |> List.of_seq

let test_p1_2_substitutes_pool () =
  let cases = gen "mariadb" Pattern_id.P1_2 in
  Alcotest.(check bool) "many cases" true (List.length cases > 1000);
  (* some case must be SELECT with a star argument in a function *)
  Alcotest.(check bool) "has star substitution" true
    (List.exists
       (fun (c : Soft.Patterns.case) ->
         Ast_util.fold_stmt_exprs
           (fun acc e ->
             acc
             || match e with
                | Ast.Call { args; _ } -> List.mem Ast.Star args
                | _ -> false)
           false c.Soft.Patterns.stmt)
       cases)

let test_p1_3_splices_digits () =
  let cases = gen "mariadb" Pattern_id.P1_3 in
  Alcotest.(check bool) "nonempty" true (cases <> []);
  List.iter
    (fun (c : Soft.Patterns.case) ->
      Alcotest.(check bool) "mentions digit run" true
        (Ast_util.fold_stmt_exprs
           (fun acc e ->
             acc
             ||
             match e with
             | Ast.Str_lit s ->
               let contains hay needle =
                 let nh = String.length hay and nn = String.length needle in
                 let rec go i =
                   i + nn <= nh
                   && (String.sub hay i nn = needle || go (i + 1))
                 in
                 go 0
               in
               contains s "99999"
             | Ast.Int_lit s | Ast.Dec_lit s -> String.length s >= 6
             | _ -> false)
           false c.Soft.Patterns.stmt))
    (List.filteri (fun i _ -> i < 20) cases)

let test_p2_1_casts () =
  let cases = gen "mariadb" Pattern_id.P2_1 in
  Alcotest.(check bool) "every case contains a cast" true
    (List.for_all
       (fun (c : Soft.Patterns.case) ->
         Ast_util.fold_stmt_exprs
           (fun acc e -> acc || match e with Ast.Cast _ -> true | _ -> false)
           false c.Soft.Patterns.stmt)
       cases)

let test_p2_2_unions () =
  let cases = gen "mariadb" Pattern_id.P2_2 in
  Alcotest.(check bool) "every case contains a subquery union" true
    (List.for_all
       (fun (c : Soft.Patterns.case) ->
         Ast_util.fold_stmt_exprs
           (fun acc e ->
             acc
             ||
             match e with
             | Ast.Subquery { body = Ast.Body_union _; _ } -> true
             | _ -> false)
           false c.Soft.Patterns.stmt)
       cases)

let test_p2_3_literal_donors () =
  (* donor arglists must be literal-only (nested calls are P3.3) *)
  let cases = gen "monetdb" Pattern_id.P2_3 in
  Alcotest.(check bool) "nonempty" true (cases <> [])

let test_p3_1_repeats () =
  let cases = gen "mariadb" Pattern_id.P3_1 in
  Alcotest.(check bool) "every case calls REPEAT" true
    (List.for_all
       (fun (c : Soft.Patterns.case) ->
         List.exists
           (fun (call : Ast.call) -> call.Ast.fname = "REPEAT")
           (Ast_util.function_calls c.Soft.Patterns.stmt))
       cases);
  (* the huge count that produces the paper's false positives is present *)
  Alcotest.(check bool) "has the 9999999999 count" true
    (List.exists
       (fun (c : Soft.Patterns.case) ->
         Ast_util.fold_stmt_exprs
           (fun acc e -> acc || e = Ast.Int_lit "9999999999")
           false c.Soft.Patterns.stmt)
       cases)

let test_p3_nesting_cap () =
  (* statements with > 2 function exprs are not expanded (Finding 3) *)
  List.iter
    (fun pattern ->
      let cases = gen "mariadb" pattern in
      List.iter
        (fun (c : Soft.Patterns.case) ->
          match Sqlfun_parse.Parser.parse_stmt c.Soft.Patterns.origin with
          | Ok origin_stmt ->
            Alcotest.(check bool) "origin had <= 2 calls" true
              (Ast_util.count_function_exprs origin_stmt <= 2)
          | Error _ -> ())
        (List.filteri (fun i _ -> i < 50) cases))
    [ Pattern_id.P3_2; Pattern_id.P3_3 ]

let test_all_generated_statements_parse () =
  (* print -> parse round trip for generated cases, sampled per pattern *)
  List.iter
    (fun pattern ->
      let cases = gen "mysql" pattern in
      List.iteri
        (fun i (c : Soft.Patterns.case) ->
          if i mod 97 = 0 then begin
            let sql = Sql_pp.stmt c.Soft.Patterns.stmt in
            match Sqlfun_parse.Parser.parse_stmt sql with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "unparseable case %S: %s" sql msg
          end)
        cases)
    Pattern_id.all

(* ----- detector ----- *)

let test_detector_finds_planted_bug () =
  let prof = Dialect.find_exn "clickhouse" in
  let detector = Soft.Detector.create prof in
  (match
     Soft.Detector.run_sql detector "SELECT TODECIMALSTRING(CAST('110' AS DECIMAL256(45)), *)"
   with
   | Soft.Detector.New_bug spec ->
     Alcotest.(check string) "site" "clickhouse/todecimalstring/star-precision"
       spec.Fault.site
   | _ -> Alcotest.fail "expected a crash");
  (* duplicate site reported as Dup_bug, engine restarted in between *)
  (match
     Soft.Detector.run_sql detector "SELECT TODECIMALSTRING(3.14, *)"
   with
   | Soft.Detector.Dup_bug _ -> ()
   | _ -> Alcotest.fail "expected dup");
  Alcotest.(check int) "one unique bug" 1 (List.length (Soft.Detector.bugs detector));
  (* the engine is alive after the restarts *)
  match Soft.Detector.run_sql detector "SELECT 1" with
  | Soft.Detector.Passed -> ()
  | _ -> Alcotest.fail "engine should be alive"

let test_detector_classifies () =
  let prof = Dialect.find_exn "postgresql" in
  let detector = Soft.Detector.create prof in
  (match Soft.Detector.run_sql detector "SELECT LENGTH('x')" with
   | Soft.Detector.Passed -> ()
   | _ -> Alcotest.fail "passed");
  (match Soft.Detector.run_sql detector "SELECT NO_SUCH_FUNC(1)" with
   | Soft.Detector.Clean_error _ -> ()
   | _ -> Alcotest.fail "clean error");
  (match Soft.Detector.run_sql detector "SELECT REPEAT('a', 9999999999)" with
   | Soft.Detector.False_positive _ -> ()
   | _ -> Alcotest.fail "resource FP");
  Alcotest.(check int) "fp count" 1 (Soft.Detector.false_positives detector);
  Alcotest.(check int) "3 executed" 3 (Soft.Detector.executed detector)

let test_budgeted_run () =
  let prof = Dialect.find_exn "monetdb" in
  let r = Soft.Soft_runner.fuzz ~budget:2_000 prof in
  Alcotest.(check bool) "respects budget roughly" true
    (r.Soft.Soft_runner.cases_executed <= 2_200);
  Alcotest.(check bool) "triggered many functions" true
    (r.Soft.Soft_runner.functions_triggered > 40)

let test_soft_beats_baselines_on_mariadb () =
  (* the core claim, in miniature: under the same budget SOFT finds
     injected bugs and the baselines find none *)
  let budget = 40_000 in
  let soft_run = Sqlfun_harness.Compare.run_tool Sqlfun_harness.Compare.Soft_tool ~dialect:"mariadb" ~budget in
  let squirrel = Sqlfun_harness.Compare.run_tool Sqlfun_harness.Compare.Squirrel ~dialect:"mariadb" ~budget in
  let sqlancer = Sqlfun_harness.Compare.run_tool Sqlfun_harness.Compare.Sqlancer ~dialect:"mariadb" ~budget in
  Alcotest.(check bool) "SOFT finds bugs" true (soft_run.Sqlfun_harness.Compare.bugs > 0);
  Alcotest.(check int) "SQUIRREL finds none" 0 squirrel.Sqlfun_harness.Compare.bugs;
  Alcotest.(check int) "SQLancer finds none" 0 sqlancer.Sqlfun_harness.Compare.bugs

(* ----- statement fingerprinting ----- *)

let parse_exn sql =
  match Sqlfun_parse.Parser.parse_stmt sql with
  | Ok stmt -> stmt
  | Error msg -> Alcotest.failf "unparseable %S: %s" sql msg

let test_fingerprint_ddl_dml () =
  (* a DDL/DML statement carries no slots, so its skeleton fingerprint
     is the full structural fingerprint of the statement. Every pair
     differs in one structural detail the plan cache must not conflate:
     table name, column type, declared precision, NOT NULL flag,
     inserted literal, column list, row arity. *)
  let pairs =
    [
      ("CREATE TABLE t (v TEXT)", "CREATE TABLE u (v TEXT)");
      ("CREATE TABLE t (v TEXT)", "CREATE TABLE t (v BIGINT)");
      ( "CREATE TABLE t (v DECIMAL(38, 10))",
        "CREATE TABLE t (v DECIMAL(40, 20))" );
      ("CREATE TABLE t (v TEXT)", "CREATE TABLE t (v TEXT NOT NULL)");
      ("INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (2)");
      ("INSERT INTO t VALUES (1)", "INSERT INTO t (v) VALUES (1)");
      ("INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (1), (1)");
      ("INSERT INTO t VALUES ('x')", "INSERT INTO u VALUES ('x')");
    ]
  in
  let fp = Ast_util.fingerprint_skeleton in
  List.iter
    (fun (a, b) ->
      let sa = parse_exn a and sb = parse_exn b in
      Alcotest.(check bool)
        (Printf.sprintf "%S <> %S structurally" a b)
        false
        (Ast_util.equal_skeleton sa sb);
      if fp sa = fp sb then
        Alcotest.failf "distinct statements %S and %S collided" a b;
      (* round-trip: print -> parse preserves equality and fingerprint *)
      match Sqlfun_parse.Parser.parse_stmt (Sql_pp.stmt sa) with
      | Ok sa' when Ast_util.equal_stmt sa sa' ->
        Alcotest.(check (option int64)) "round-trip hashes equal" (fp sa)
          (fp sa')
      | Ok _ | Error _ -> ())
    pairs

let test_scenario_positions_counted () =
  (* satellite: count_positions counts INSERT/UPDATE/WHERE substitution
     slots, via the scenario probes that put calls there *)
  let prof = Dialect.find_exn "mysql" in
  let registry = Dialect.registry prof in
  let seeds =
    Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds ()
  in
  let scenarios = Soft.Patterns.generate_scenarios ~registry ~seeds () in
  let n = Soft.Patterns.count_scenario_positions scenarios in
  Alcotest.(check bool) "scenario probes expose substitution slots" true
    (n > 0);
  (* INSERT-position and WHERE-position probes specifically carry their
     calls inside Insert rows / WHERE clauses — both must be seen *)
  let kinds = Hashtbl.create 4 in
  Seq.iter
    (fun (sc : Soft.Patterns.scenario) ->
      let c = sc.Soft.Patterns.case in
      let slots =
        List.length (Ast_util.function_calls c.Soft.Patterns.stmt)
      in
      if slots > 0 then
        Hashtbl.replace kinds c.Soft.Patterns.origin ())
    (Soft.Patterns.generate_scenarios ~registry ~seeds ());
  Alcotest.(check bool) "INSERT-position probes counted" true
    (Hashtbl.mem kinds "scenario:insert-position");
  Alcotest.(check bool) "WHERE-position probes counted" true
    (Hashtbl.mem kinds "scenario:where-position")

let test_scenario_crash_restores_baseline () =
  (* satellite: after a mid-scenario crash the restarted engine's
     storage equals the post-seed baseline (no half-created scenario
     tables), and the recorded PoC replays standalone on a cold armed
     engine *)
  let prof = Dialect.find_exn "mysql" in
  let det = Soft.Detector.create prof in
  let registry = Dialect.registry prof in
  let seeds =
    Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds ()
  in
  let crashed = ref None in
  let run_stream scenarios =
    Seq.iter
      (fun sc ->
        match Soft.Detector.run_scenario det sc with
        | (Soft.Detector.New_bug _ | Soft.Detector.Dup_bug _)
          when !crashed = None
               && sc.Soft.Patterns.prereqs <> [] ->
          crashed := Some sc
        | _ -> ())
      scenarios
  in
  run_stream (Soft.Patterns.generate_scenarios ~registry ~seeds ());
  (match !crashed with
   | None -> Alcotest.fail "no stateful scenario crashed (vacuous test)"
   | Some _ -> ());
  (* the detector's engine is back to the post-seed baseline: none of
     the scenario tables survived the crash restart or the restores *)
  List.iter
    (fun tbl ->
      match
        Soft.Detector.run_sql det (Printf.sprintf "SELECT v FROM %s" tbl)
      with
      | Soft.Detector.Clean_error _ -> ()
      | _ -> Alcotest.failf "scenario table %s leaked past the baseline" tbl)
    [ "soft_sa"; "soft_sb"; "soft_sc"; "soft_sd"; "soft_se" ];
  (* and every recorded stateful PoC replays standalone: a cold armed
     engine executes the PoC script and crashes again *)
  let stateful_pocs =
    List.filter_map
      (fun (b : Soft.Detector.found_bug) ->
        if String.contains b.Soft.Detector.poc '\n' then
          Some b.Soft.Detector.poc
        else None)
      (Soft.Detector.bugs det)
  in
  Alcotest.(check bool) "found stateful PoCs" true (stateful_pocs <> []);
  List.iter
    (fun poc ->
      let e = Dialect.make_engine ~armed:true prof in
      match Sqlfun_engine.Engine.exec_script e poc with
      | exception Sqlfun_fault.Fault.Crash _ -> ()
      | exception Stack_overflow -> ()
      | Ok _ | Error _ ->
        Alcotest.failf "stateful PoC did not replay standalone:\n%s" poc)
    stateful_pocs

let test_crash_restart_respawns () =
  (* k crashes of one armed statement: every restart respawns the engine
     over the same registry and armed fault table, on the baseline
     tables, and the campaign coverage grows by the statement's own hits
     only — the seeds are not reloaded *)
  let module Engine = Sqlfun_engine.Engine in
  let module Storage = Sqlfun_engine.Storage in
  let module Coverage = Sqlfun_coverage.Coverage in
  let prof = Dialect.find_exn "clickhouse" in
  let sql = "SELECT TODECIMALSTRING(CAST('110' AS DECIMAL256(45)), *)" in
  let hits_alone =
    let cov = Coverage.create () in
    let e = Dialect.make_engine ~cov ~armed:true prof in
    let before = Coverage.total_hits cov in
    (match Engine.exec_sql e sql with
     | exception Fault.Crash _ -> ()
     | _ -> Alcotest.fail "statement should crash a fresh armed engine");
    Coverage.total_hits cov - before
  in
  Alcotest.(check bool) "statement records hits" true (hits_alone > 0);
  let det = Soft.Detector.create prof in
  let registry = Engine.registry (Soft.Detector.engine det) in
  let tables snap =
    let c = Storage.create_catalog () in
    Storage.restore c snap;
    List.map
      (fun name ->
        match Storage.find_table c name with
        | Some tbl -> (name, tbl.Storage.rows)
        | None -> Alcotest.failf "table %s vanished" name)
      (Storage.table_names c)
  in
  let baseline =
    tables (Storage.snapshot (Engine.catalog (Soft.Detector.engine det)))
  in
  Alcotest.(check bool) "seeds built tables" true (baseline <> []);
  let cov = Soft.Detector.coverage det in
  let hits0 = Coverage.total_hits cov in
  let k = 3 in
  for _ = 1 to k do
    match Soft.Detector.run_sql det sql with
    | Soft.Detector.New_bug _ | Soft.Detector.Dup_bug _ -> ()
    | _ -> Alcotest.fail "expected a crash"
  done;
  let e = Soft.Detector.engine det in
  Alcotest.(check bool) "registry shared" true (Engine.registry e == registry);
  Alcotest.(check bool) "fault runtime still armed" true
    (Fault.is_armed (Engine.context e).Sqlfun_functions.Fn_ctx.fault);
  Alcotest.(check bool) "catalog equals the baseline" true
    (tables (Storage.snapshot (Engine.catalog e)) = baseline);
  Alcotest.(check int) "k x the statement's hits, no seed reload"
    (k * hits_alone)
    (Coverage.total_hits cov - hits0);
  let restarts =
    List.find
      (fun (st : Sqlfun_telemetry.Telemetry.stage_timing) ->
        st.Sqlfun_telemetry.Telemetry.stage = "restart-after-crash")
      (Sqlfun_telemetry.Telemetry.stage_timings (Soft.Detector.telemetry det))
  in
  Alcotest.(check int) "one arming + one respawn per crash" (1 + k)
    restarts.Sqlfun_telemetry.Telemetry.calls

let test_stateful_campaign_stages () =
  (* a stateful campaign runs scenarios and surfaces verdicts from all
     three occurrence stages; with the stateful stream off it runs no
     scenario and reaches no staged fault site *)
  let prof = Dialect.find_exn "duckdb" in
  let on = Soft.Soft_runner.fuzz ~budget:2_000 prof in
  Alcotest.(check bool) "scenarios executed" true
    (on.Soft.Soft_runner.scenarios_executed > 0);
  let sv = on.Soft.Soft_runner.stage_verdicts in
  Alcotest.(check bool) "all three stages surfaced" true
    (sv.Soft.Detector.parse > 0 && sv.Soft.Detector.execute > 0
     && sv.Soft.Detector.storage > 0);
  let legacy = Soft.Soft_runner.fuzz ~budget:2_000 ~stateful:false prof in
  Alcotest.(check int) "no scenarios when off" 0
    legacy.Soft.Soft_runner.scenarios_executed;
  Alcotest.(check int) "no prereqs when off" 0
    legacy.Soft.Soft_runner.prereq_statements;
  let lsv = legacy.Soft.Soft_runner.stage_verdicts in
  Alcotest.(check int) "no parse-stage verdicts when off" 0
    lsv.Soft.Detector.parse;
  Alcotest.(check int) "no storage-stage verdicts when off" 0
    lsv.Soft.Detector.storage

let test_compile_campaign_identical () =
  (* the campaign's identity bar, over every dialect: the default run —
     every skeleton-sharing family through the batched compiled
     executor — against the interpreter reconstructing each member's
     AST. Compiled execution is behaviour-invisible: identical verdict
     JSON, bug lists, FP signatures, the full hit-counted coverage JSON
     and fault sites. Only throughput metadata (timings, plan-cache and
     batch counters) may differ. The budget forces
     {!Soft.Soft_runner.split_budget} shares through mid-family cuts, so
     batch splitting is exercised too. *)
  let open Sqlfun_telemetry in
  let deterministic_keys =
    [ "totals"; "verdicts"; "bugs"; "fp_signatures"; "families"; "coverage" ]
  in
  List.iter
    (fun prof ->
      let name = prof.Dialect.id in
      let on = Soft.Soft_runner.fuzz ~budget:2_000 prof in
      let off = Soft.Soft_runner.fuzz ~budget:2_000 ~compile:false prof in
      let jon = Soft.Report.campaign_to_json on
      and joff = Soft.Report.campaign_to_json off in
      List.iter
        (fun key ->
          let get j =
            match Json.member key j with
            | Some v -> Json.to_string v
            | None -> Alcotest.failf "%s: report lacks %S" name key
          in
          Alcotest.(check string)
            (Printf.sprintf "%s: %s identical" name key)
            (get joff) (get jon))
        deterministic_keys;
      let sites (r : Soft.Soft_runner.result) =
        List.map
          (fun (b : Soft.Detector.found_bug) ->
            (b.Soft.Detector.spec.Fault.site, b.Soft.Detector.case_number))
          r.Soft.Soft_runner.bugs
      in
      Alcotest.(check (list (pair string int)))
        (name ^ ": fault sites identical")
        (sites off) (sites on);
      (* the property is vacuous unless compiled plans and batches
         actually ran *)
      let counts = Telemetry.compile_counts on.Soft.Soft_runner.telemetry in
      Alcotest.(check bool)
        (name ^ ": compiled plans were reused")
        true
        (counts.Telemetry.c_hits > 0);
      let batches = Telemetry.batch_counts on.Soft.Soft_runner.telemetry in
      Alcotest.(check bool)
        (name ^ ": batches executed")
        true (batches.Telemetry.b_cases > 0);
      let counts_off =
        Telemetry.compile_counts off.Soft.Soft_runner.telemetry
      in
      Alcotest.(check int)
        (name ^ ": compile-off never probes the plan cache")
        0
        (counts_off.Telemetry.c_hits + counts_off.Telemetry.c_misses))
    Dialect.all

let test_compact_campaign_identical () =
  (* the compact-representation soundness bar, over every dialect:
     range-array and rope-string values must be behaviour-invisible.
     Compaction cannot even shift coverage hit counts — every branch
     probe and tick survives on the compact paths — so the full
     coverage JSON (hit counts included) is held identical, not just
     the point set. *)
  let open Sqlfun_telemetry in
  let deterministic_keys =
    [ "totals"; "verdicts"; "bugs"; "fp_signatures"; "families"; "coverage" ]
  in
  let total_hits = ref 0 in
  List.iter
    (fun prof ->
      let name = prof.Dialect.id in
      let on = Soft.Soft_runner.fuzz ~budget:2_000 ~compact:true prof in
      let off = Soft.Soft_runner.fuzz ~budget:2_000 ~compact:false prof in
      let jon = Soft.Report.campaign_to_json on
      and joff = Soft.Report.campaign_to_json off in
      List.iter
        (fun key ->
          let get j =
            match Json.member key j with
            | Some v -> Json.to_string v
            | None -> Alcotest.failf "%s: report lacks %S" name key
          in
          Alcotest.(check string)
            (Printf.sprintf "%s: %s identical" name key)
            (get joff) (get jon))
        deterministic_keys;
      Alcotest.(check (list (pair string int)))
        (name ^ ": coverage points identical")
        (Sqlfun_coverage.Coverage.points off.Soft.Soft_runner.coverage)
        (Sqlfun_coverage.Coverage.points on.Soft.Soft_runner.coverage);
      let sites (r : Soft.Soft_runner.result) =
        List.map
          (fun (b : Soft.Detector.found_bug) ->
            (b.Soft.Detector.spec.Fault.site, b.Soft.Detector.case_number))
          r.Soft.Soft_runner.bugs
      in
      Alcotest.(check (list (pair string int)))
        (name ^ ": fault sites identical")
        (sites off) (sites on);
      let kon = Telemetry.compact_counts on.Soft.Soft_runner.telemetry in
      total_hits := !total_hits + kon.Telemetry.k_hits;
      let koff = Telemetry.compact_counts off.Soft.Soft_runner.telemetry in
      Alcotest.(check int)
        (name ^ ": compact-off builds no compact values")
        0 koff.Telemetry.k_hits)
    Dialect.all;
  (* the property is vacuous unless compact values actually flowed *)
  Alcotest.(check bool) "compact values were built" true (!total_hits > 0)

let test_batch_stream_equivalence () =
  (* the slot-stream soundness bar at the generation layer: flattening
     the batched work stream (reconstructing each member's AST from the
     family skeleton plus its slot vector) must reproduce the per-case
     generator's stream element for element — same pattern, same origin,
     structurally equal statement — for every pattern on every dialect;
     and every item of a skeleton-sharing pattern must be a batch. *)
  List.iter
    (fun prof ->
      let name = prof.Dialect.id in
      let registry = Dialect.registry prof in
      let seeds =
        Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds ()
      in
      let batched_total = ref 0 in
      List.iter
        (fun pattern ->
          let flat =
            Soft.Patterns.generate_work ~registry ~seeds pattern
            |> Seq.concat_map (fun w ->
                   (match w with
                    | Soft.Patterns.Batched b ->
                      batched_total := !batched_total + Soft.Patterns.batch_size b
                    | Soft.Patterns.Single _ ->
                      (* a skeleton-sharing case that could not join a
                         family is still a family of one *)
                      if Pattern_id.shares_skeleton pattern then
                        Alcotest.failf "%s %s: skeleton-sharing Single item"
                          name (Pattern_id.to_string pattern));
                   Soft.Patterns.work_cases w)
          in
          let plain = Soft.Patterns.generate ~registry ~seeds pattern in
          let rec go i flat plain =
            match (Seq.uncons flat, Seq.uncons plain) with
            | None, None -> ()
            | Some _, None | None, Some _ ->
              Alcotest.failf "%s %s: streams diverge in length at case %d"
                name (Pattern_id.to_string pattern) i
            | Some (f, flat), Some (p, plain) ->
              let ctx = Printf.sprintf "%s %s case %d" name
                  (Pattern_id.to_string pattern) i in
              if f.Soft.Patterns.pattern <> p.Soft.Patterns.pattern then
                Alcotest.failf "%s: pattern differs" ctx;
              Alcotest.(check string) (ctx ^ ": origin")
                p.Soft.Patterns.origin f.Soft.Patterns.origin;
              if
                not
                  (Ast_util.equal_stmt f.Soft.Patterns.stmt
                     p.Soft.Patterns.stmt)
              then
                Alcotest.failf "%s: reconstructed AST differs:\n  %s\n  %s" ctx
                  (Sql_pp.stmt f.Soft.Patterns.stmt)
                  (Sql_pp.stmt p.Soft.Patterns.stmt);
              go (i + 1) flat plain
          in
          go 1 flat plain)
        Pattern_id.all;
      (* the property is vacuous unless batches actually formed *)
      Alcotest.(check bool) (name ^ ": batches formed") true
        (!batched_total > 0))
    Dialect.all

(* ----- baselines ----- *)

let test_baselines_generate_valid_statements () =
  List.iter
    (fun (make : dialect:string -> seed:int -> Sqlfun_baselines.Baseline.t) ->
      let gen = make ~dialect:"mysql" ~seed:1 in
      let prof = Dialect.find_exn "mysql" in
      let engine = Dialect.make_engine prof in
      let ok = ref 0 in
      for _ = 1 to 300 do
        let stmt = gen.Sqlfun_baselines.Baseline.next () in
        match Sqlfun_engine.Engine.exec_stmt engine stmt with
        | Ok _ -> incr ok
        | Error _ -> ()
      done;
      Alcotest.(check bool)
        (gen.Sqlfun_baselines.Baseline.name ^ " mostly executes")
        true (!ok > 150))
    [
      Sqlfun_baselines.Sqlsmith_gen.make;
      Sqlfun_baselines.Sqlancer_gen.make;
      Sqlfun_baselines.Squirrel_gen.make;
    ]

let test_baselines_deterministic () =
  let a = Sqlfun_baselines.Sqlsmith_gen.make ~dialect:"mysql" ~seed:5 in
  let b = Sqlfun_baselines.Sqlsmith_gen.make ~dialect:"mysql" ~seed:5 in
  for _ = 1 to 50 do
    Alcotest.(check string) "same stream"
      (Sql_pp.stmt (a.Sqlfun_baselines.Baseline.next ()))
      (Sql_pp.stmt (b.Sqlfun_baselines.Baseline.next ()))
  done

let test_sqlancer_only_modeled_functions () =
  let gen = Sqlfun_baselines.Sqlancer_gen.make ~dialect:"postgresql" ~seed:3 in
  for _ = 1 to 200 do
    let stmt = gen.Sqlfun_baselines.Baseline.next () in
    List.iter
      (fun (c : Ast.call) ->
        Alcotest.(check bool)
          (c.Ast.fname ^ " is modeled")
          true
          (List.mem c.Ast.fname Sqlfun_baselines.Sqlancer_gen.modeled))
      (Ast_util.function_calls stmt)
  done

let suite =
  ( "soft",
    [
      Alcotest.test_case "boundary pool composition" `Quick test_pool_composition;
      Alcotest.test_case "collector" `Quick test_collector;
      Alcotest.test_case "donors distinct" `Quick test_donors_distinct;
      Alcotest.test_case "P1.2 substitutes pool" `Quick test_p1_2_substitutes_pool;
      Alcotest.test_case "P1.3 splices digits" `Quick test_p1_3_splices_digits;
      Alcotest.test_case "P2.1 casts" `Quick test_p2_1_casts;
      Alcotest.test_case "P2.2 unions" `Quick test_p2_2_unions;
      Alcotest.test_case "P2.3 literal donors" `Quick test_p2_3_literal_donors;
      Alcotest.test_case "P3.1 repeats" `Quick test_p3_1_repeats;
      Alcotest.test_case "P3 nesting cap (Finding 3)" `Quick test_p3_nesting_cap;
      Alcotest.test_case "generated statements parse" `Slow
        test_all_generated_statements_parse;
      Alcotest.test_case "detector finds planted bug" `Quick
        test_detector_finds_planted_bug;
      Alcotest.test_case "detector classifies" `Quick test_detector_classifies;
      Alcotest.test_case "budgeted run" `Quick test_budgeted_run;
      Alcotest.test_case "fingerprint over DDL/DML" `Quick
        test_fingerprint_ddl_dml;
      Alcotest.test_case "scenario positions counted" `Quick
        test_scenario_positions_counted;
      Alcotest.test_case "crash restart respawns" `Quick
        test_crash_restart_respawns;
      Alcotest.test_case "scenario crash restores baseline" `Quick
        test_scenario_crash_restores_baseline;
      Alcotest.test_case "stateful campaign stages (on/off)" `Slow
        test_stateful_campaign_stages;
      Alcotest.test_case "compiled campaign identical (all dialects)" `Slow
        test_compile_campaign_identical;
      Alcotest.test_case "compact campaign identical (all dialects)" `Slow
        test_compact_campaign_identical;
      Alcotest.test_case "batch stream equivalence (all dialects)" `Slow
        test_batch_stream_equivalence;
      Alcotest.test_case "SOFT beats baselines (mariadb)" `Slow
        test_soft_beats_baselines_on_mariadb;
      Alcotest.test_case "baselines generate valid statements" `Quick
        test_baselines_generate_valid_statements;
      Alcotest.test_case "baselines deterministic" `Quick test_baselines_deterministic;
      Alcotest.test_case "sqlancer modeled set" `Quick
        test_sqlancer_only_modeled_functions;
    ] )
