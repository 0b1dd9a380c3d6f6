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

(* A pattern's cases: its family stream, flattened. *)
let pattern_cases ~registry ~seeds pattern =
  Soft.Patterns.families ~registry ~seeds pattern
  |> Seq.concat_map Soft.Patterns.family_cases

let scenario_cases ~registry ~seeds =
  Soft.Patterns.scenario_families ~registry ~seeds ()
  |> Seq.concat_map Soft.Patterns.family_cases

let gen dialect pattern =
  pattern_cases ~registry:(registry_of dialect) ~seeds:(seeds_for dialect)
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

(* The forced-stream count that [Patterns.scenario_positions] replaced,
   kept verbatim as its oracle: every scenario probe's (call, argument)
   positions, summed over the whole stream. *)
let positions stmt =
  List.concat
    (List.mapi
       (fun ci (c : Ast.call) ->
         List.mapi (fun ai arg -> (ci, ai, c, arg)) c.Ast.args)
       (Ast_util.function_calls stmt))

let count_scenario_positions scenarios =
  Seq.fold_left
    (fun acc (c : Soft.Patterns.case) ->
      acc + List.length (positions c.Soft.Patterns.stmt))
    0 scenarios

(* [Soft_runner.fuzz ~budget:0] positions, stateful / [~stateful:false] *)
let campaign_positions =
  [
    ("postgresql", (29129, 371));
    ("mysql", (30771, 413));
    ("mariadb", (28301, 387));
    ("clickhouse", (35737, 459));
    ("monetdb", (13291, 171));
    ("duckdb", (30316, 386));
    ("virtuoso", (25704, 348));
  ]

let test_scenario_positions_counted () =
  (* the per-family count equals the forced-stream fold on every
     dialect, and the campaign's positions line adds it to the seed
     slots *)
  List.iter
    (fun prof ->
      let registry = Dialect.registry prof in
      let seeds =
        Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds ()
      in
      Alcotest.(check int)
        (prof.Dialect.id ^ " family count = forced-stream fold")
        (count_scenario_positions (scenario_cases ~registry ~seeds))
        (Soft.Patterns.scenario_positions ~registry ~seeds))
    Dialect.all;
  Alcotest.(check (list (pair string (pair int int))))
    "campaign positions" campaign_positions
    (List.map
       (fun prof ->
         let positions stateful =
           (Soft.Soft_runner.fuzz ~budget:0 ~stateful prof)
             .Soft.Soft_runner.positions
         in
         (prof.Dialect.id, (positions true, positions false)))
       Dialect.all);
  (* INSERT-position and WHERE-position probes specifically carry their
     calls inside Insert rows / WHERE clauses — both must be seen *)
  let prof = Dialect.find_exn "mysql" in
  let registry = Dialect.registry prof in
  let seeds =
    Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds ()
  in
  let kinds = Hashtbl.create 4 in
  Seq.iter
    (fun (c : Soft.Patterns.case) ->
      let slots =
        List.length (Ast_util.function_calls c.Soft.Patterns.stmt)
      in
      if slots > 0 then
        Hashtbl.replace kinds c.Soft.Patterns.origin ())
    (scenario_cases ~registry ~seeds);
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
  let crashes () =
    List.length (Soft.Detector.bugs det) + Soft.Detector.dup_crashes det
  in
  Seq.iter
    (fun f -> Soft.Detector.run det (Soft.Patterns.Family f))
    (Soft.Patterns.scenario_families ~registry ~seeds ());
  if crashes () = 0 then
    Alcotest.fail "no stateful scenario crashed (vacuous test)";
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

(* [flat] equals [plain] element for element: same pattern, same
   origin, structurally equal prerequisites and probe. *)
let check_same_cases ctx flat plain =
  let stmts (c : Soft.Patterns.case) =
    c.Soft.Patterns.prereqs @ [ c.Soft.Patterns.stmt ]
  in
  let sql c = String.concat ";\n" (List.map Sql_pp.stmt (stmts c)) in
  let rec go i flat plain =
    match (Seq.uncons flat, Seq.uncons plain) with
    | None, None -> ()
    | Some _, None | None, Some _ ->
      Alcotest.failf "%s: streams diverge in length at case %d" ctx i
    | Some ((f : Soft.Patterns.case), flat), Some ((p : Soft.Patterns.case), plain) ->
      let ctx = Printf.sprintf "%s case %d" ctx i in
      if f.Soft.Patterns.pattern <> p.Soft.Patterns.pattern then
        Alcotest.failf "%s: pattern differs" ctx;
      Alcotest.(check string) (ctx ^ ": origin")
        p.Soft.Patterns.origin f.Soft.Patterns.origin;
      let fs = stmts f and ps = stmts p in
      if
        List.length fs <> List.length ps
        || not (List.for_all2 Ast_util.equal_stmt fs ps)
      then
        Alcotest.failf "%s: reconstructed case differs:\n  %s\n  %s" ctx
          (sql f) (sql p);
      go (i + 1) flat plain
  in
  go 1 flat plain

(* A family cut in two at a budget-share boundary runs the cases the
   whole family would have: the parts' cases, in order, are the
   family's. *)
let check_split ctx (f : Soft.Patterns.family) =
  let n = List.length f.Soft.Patterns.f_members in
  if n > 1 then begin
    let head, tail = Soft.Patterns.split_family f (n / 2) in
    check_same_cases ctx
      (Seq.append (Soft.Patterns.family_cases head)
         (Soft.Patterns.family_cases tail))
      (Soft.Patterns.family_cases f)
  end

let test_batch_stream_equivalence () =
  (* the work-item soundness bar at the generation layer: every pattern
     streams one family per position — each with members, and no two
     consecutive families sharing a builder, so no family is cut in
     two — and the scenario stream streams every scenario as a
     one-member family, so its item sizes (which decide shard
     ownership) are the per-scenario ones. A family split where a
     budget share ends runs the same cases as the whole family, on
     every dialect. What the cases are is pinned by the stream pins
     below. *)
  List.iter
    (fun prof ->
      let name = prof.Dialect.id in
      let registry = Dialect.registry prof in
      let seeds =
        Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds ()
      in
      List.iter
        (fun pattern ->
          let ctx = Printf.sprintf "%s %s" name (Pattern_id.to_string pattern) in
          let prev = ref None and families = ref 0 in
          Seq.iter
            (fun (f : Soft.Patterns.family) ->
              if f.Soft.Patterns.f_members = [] then
                Alcotest.failf "%s: family without members" ctx;
              (match !prev with
               | Some build when build == f.Soft.Patterns.f_build ->
                 Alcotest.failf "%s: one family split across items" ctx
               | Some _ | None -> ());
              prev := Some f.Soft.Patterns.f_build;
              incr families;
              check_split ctx f)
            (Soft.Patterns.families ~registry ~seeds pattern);
          (* the property is vacuous unless families formed *)
          Alcotest.(check bool) (ctx ^ ": families formed") true (!families > 0))
        Pattern_id.all;
      let ctx = name ^ " scenarios" and items = ref 0 in
      Seq.iter
        (fun (f : Soft.Patterns.family) ->
          if List.length f.Soft.Patterns.f_members <> 1 then
            Alcotest.failf "%s: item %d has %d members" ctx !items
              (List.length f.Soft.Patterns.f_members);
          incr items)
        (Soft.Patterns.scenario_families ~registry ~seeds ());
      Alcotest.(check bool) (ctx ^ ": scenarios formed") true (!items > 0))
    Dialect.all

(* The exhaustive default campaigns (scenario stream on) at 1x1, run
   once and shared by the cold replay and the fingerprint. *)
let exhaustive_campaigns =
  lazy (List.map (fun prof -> (prof, Soft.Soft_runner.fuzz prof)) Dialect.all)

(* Every bug an exhaustive campaign finds — the 132 ledger bugs and the
   14 staged ones, each PoC rendered by its family's builder (a
   scenario's PoC is its prerequisites then its probe) — replays from
   its PoC alone on a fresh armed engine, at the same fault site. *)
let test_batched_pocs_replay_cold () =
  let replayed = ref 0 in
  List.iter
    (fun (prof, (r : Soft.Soft_runner.result)) ->
      List.iter
        (fun (b : Soft.Detector.found_bug) ->
          let site = b.Soft.Detector.spec.Fault.site in
          let engine = Dialect.make_engine ~armed:true prof in
          match Sqlfun_engine.Engine.exec_script engine b.Soft.Detector.poc with
          | exception Fault.Crash spec ->
            Alcotest.(check string) (site ^ ": replayed site") site
              spec.Fault.site;
            incr replayed
          | _ -> Alcotest.failf "%s: PoC did not crash cold:\n%s" site
                   b.Soft.Detector.poc)
        r.Soft.Soft_runner.bugs)
    (Lazy.force exhaustive_campaigns);
  Alcotest.(check int) "bugs replayed" 146 !replayed

(* The campaign fingerprint: for each dialect, exhaustive and at
   [--budget 20000], both at 1x1, the bug and case counts and an MD5 of
   every behaviour key — the snapshot's [totals], [verdicts], [bugs]
   (case numbers and PoCs), [fp_signatures], [families] and hit-counted
   [coverage], the compact hits, and every profile key's call count.
   Every field is a program count, independent of timing and of the
   OCaml version. A change that claims equal behaviour leaves this
   table as it is; a deliberate change re-records it (the failure
   prints the measured row) and says why in CHANGES.md. *)
let fingerprint_keys =
  [ "totals"; "verdicts"; "bugs"; "fp_signatures"; "families"; "coverage";
    "compact"; "profile" ]

let campaign_fingerprints =
  [
    (("postgresql", "exhaustive"), ((3, 205291),
      [ "6e113ca16c611c751648e54af6ee3049";
        "3122ab4e6adbb872cc9b8e9ce6de903a";
        "459176ea361364aa33761adf1926836a";
        "dc5814b671e1e55514e9f06756da6947";
        "db510c173343242b4b3c087bd16516e1";
        "925755f36d31bbb964bbb2a215b92d23";
        "b2f627fff19fda463cb386442eac2b3d";
        "2c1aff0fc9dab979d7a75bbf0a99c99d" ]));
    (("mysql", "exhaustive"), ((18, 230484),
      [ "70777a164e018d7cea80b3eba5fa9fdd";
        "01f8669a4f5f5ac9f0ee0acd0103ce32";
        "b9a562038228386b77148b4b4a3835ec";
        "2dd914199193bff7abbcdb53659737fb";
        "d1c7e7a2685289231acb805aee983c8a";
        "737b78160cb09e1b46c0bab556fc5075";
        "dc6a70712a252123c40d2adba6a11d84";
        "5a0d81921b599ef49fad277e0e775d4a" ]));
    (("mariadb", "exhaustive"), ((26, 195941),
      [ "0a841c382766aab57bb43adb9b89db16";
        "097576f9d829f8e714b7cf08e09348ec";
        "c9e379de0acd77452ea72e8ebc818f92";
        "2dd914199193bff7abbcdb53659737fb";
        "5fdf45c3ddcc60b80b51eb9d7d78ce58";
        "8ed251773188e40c3fb660fa6a27e47f";
        "6766aa2750c19aad2fa1b32f36ed4aee";
        "75a4e85d63198cdc4a106851ef9859c3" ]));
    (("clickhouse", "exhaustive"), ((8, 287047),
      [ "1dbe7b67a90d38d49eb75caef571938b";
        "13510edd865c0a20d1ae432f9e9552ea";
        "98e4d0f68909c0941dd06af4aa6e2ae5";
        "718db9bc7a724b54ca3692498b66b403";
        "bb8933716c405d1752c100173a0f49e7";
        "45941f24fa78a69ce722329f2c0fb7e4";
        "08419be897405321542838d77f855226";
        "2e25ab2d315019b8769d290759cc2c7e" ]));
    (("monetdb", "exhaustive"), ((21, 55207),
      [ "e6f228f9cdc1bf06c22cc92cabc0ce38";
        "43d9fe07e32909e9992b652805551b11";
        "c0041e3c9c28e1834a64e2f14410a4e4";
        "5cff7379153fe9cf145a85194ae2b9b9";
        "bd744a3b492ec1d0b1976e555575e2d8";
        "de4764e99d040018a7636f09d4f6f3c6";
        "37bc2f75bf1bcfe8450a1a41c200364c";
        "180f60644417a72718615018b064b7dd" ]));
    (("duckdb", "exhaustive"), ((23, 209374),
      [ "528c47cf71a82e9ea82fac22c2868dea";
        "fb42eaab3a83817d7fc25d2fead0047d";
        "b8ad7a8bccd39d452b562db242c27fbd";
        "dc5814b671e1e55514e9f06756da6947";
        "3ac36f71a834b458bb1b5f692d231fbd";
        "b9935057f002d11a7b5e8007d4299d69";
        "3a0772443a0739141292a5429b952fe6";
        "74c5717c44e2a459eb18098f1bbdd185" ]));
    (("virtuoso", "exhaustive"), ((47, 171424),
      [ "0f9cc357f91462cc2f2865bb06cd05a2";
        "5549aef5e2c8010e27caf6175fdef63e";
        "63c6c25fcc539fe5eef0deab5d323164";
        "2dd914199193bff7abbcdb53659737fb";
        "37f136cfdf2e7e3debac845813e62054";
        "66008cc85fe5fb90f7e88384d989aa9d";
        "07563a3fe3bbe7e3ba84431ad9d055af";
        "ea6a233fc15f97effbbce85e0227db45" ]));
    (("postgresql", "20000"), ((2, 20241),
      [ "d6f7550e6734c2dea63dd9863f61218b";
        "1e854417dda334e6a3152f1f1bb9fc19";
        "73b31d9abd8683bfcc95346d21bf1385";
        "2b7fca16265b2a58af61f9ceb4ce5f5d";
        "58dd3fa1a8ef9237cc54f8074cf70fd0";
        "a60abc28253406e8f2f350fd315f6b6b";
        "b534ba68236ba543ae44b22bd110a1d6";
        "7780a1995a88e419b9e70650ad376c10" ]));
    (("mysql", "20000"), ((8, 20244),
      [ "f00ca7398bceac0a8943b8f47543ea73";
        "30d7b8658b39b44739c06268cedbb668";
        "3da6df18c0b6ac0bfe6529abaf2c78f6";
        "39bab4da8118b2a29e8d4772aba64d39";
        "966ebef9edb32b6762b00ada17007554";
        "26824cb78a42d2b91b6106643fc72bd8";
        "30bb3825e8f631cc6075c0f87bb4978c";
        "a940b8f2a80804303951d345ef542a4c" ]));
    (("mariadb", "20000"), ((11, 20224),
      [ "1c8a65d2bbddf3b21a7088181d381499";
        "67dc49e1e3e3bfaf85a457f0bcea4fc0";
        "bdcdc40381679567faca806d23aeb8c3";
        "39bab4da8118b2a29e8d4772aba64d39";
        "e06b7b82e8014d7c3d70b9367d8b7a26";
        "e84740f37212b86c702d8ba5efd9562f";
        "647bba344396e7c8170902bcf2e15551";
        "ef74073bfec35737dd4a84f893747b09" ]));
    (("clickhouse", "20000"), ((5, 20278),
      [ "d08b6715221a4a9a43cb9d58dce46f7d";
        "171a2fe37e6f2213b014d118f60f1714";
        "c3c30c42b493ec23c42575cf259386a5";
        "2355b2ccaab1f989888a762f5b0024c6";
        "c35095ffdb4201c657561e2cf1d3bbcb";
        "d33af87fb7402466e8c0cc1394f0523c";
        "8b16ebc056e613024c057be590b542eb";
        "f8c078b008e20d44882b10aef1fbb5ca" ]));
    (("monetdb", "20000"), ((19, 20117),
      [ "5a3c35810226a78b16d0648819f1e3cd";
        "4b252dd4410c82bd55d6734f281aa0c5";
        "ea3dd831b8fa7b652322880cdd4f0f60";
        "4c9f7f34062ca056c6f25553c58be4e4";
        "b586bba2f6b7f418f0d0b3b3622817a5";
        "a6d1c6f872a8f2101561ab97d0ce4ed0";
        "d96409bf894217686ba124d7356686c9";
        "fbb086b2d20221c45abf2d546b18c7a7" ]));
    (("duckdb", "20000"), ((17, 20236),
      [ "4f1feff027be0680b36a78573c6f4e0b";
        "7d31a3aa7b1268e1b407a0968721c9d0";
        "24045e0d95d677ccee808c0417ae510b";
        "2b7fca16265b2a58af61f9ceb4ce5f5d";
        "97e50be7a17d26bdbfd65ddbce1e2a43";
        "b10c64937c788e5d2837c0a35c355662";
        "98b297950041a42470269d56260243a1";
        "5de8a923c127dde697e06a71677d2884" ]));
    (("virtuoso", "20000"), ((26, 20210),
      [ "d2d25e7db33c497dc70b474ceb43a97d";
        "1f33578551cc2329a34ed39dc83979f0";
        "2519e3549d61dfd5901c4e5bf842c01d";
        "39bab4da8118b2a29e8d4772aba64d39";
        "d3a9d9bd98d3d09ab9a04518c33e44c1";
        "015efd0f8f450cc1540ac9c4b1182807";
        "d07e70efcfab08731a97e7b91be644de";
        "0dcfc613f64f9da9207f0f7a3894909a" ]));
  ]

let fingerprint (r : Soft.Soft_runner.result) =
  let open Sqlfun_telemetry in
  let json = Soft.Report.campaign_to_json r in
  let member k =
    match Json.member k json with
    | Some v -> Json.to_string v
    | None -> Alcotest.failf "snapshot lacks %S" k
  in
  let compact =
    string_of_int (Telemetry.compact_counts r.Soft.Soft_runner.telemetry).Telemetry.k_hits
  in
  (* profile rows come sorted by self time; only the key and count are
     program facts *)
  let profile =
    List.map
      (fun (row : Profile.row) ->
        Printf.sprintf "%s/%s/%s %d" row.Profile.r_dialect row.Profile.r_func
          (Profile.phase_to_string row.Profile.r_phase) row.Profile.r_count)
      (Profile.rows r.Soft.Soft_runner.profile)
    |> List.sort String.compare |> String.concat "\n"
  in
  List.map
    (fun k ->
      let text =
        match k with "compact" -> compact | "profile" -> profile | k -> member k
      in
      Digest.to_hex (Digest.string text))
    fingerprint_keys

let test_campaign_fingerprint () =
  let budgeted =
    List.map
      (fun prof -> (prof, Soft.Soft_runner.fuzz ~budget:20_000 prof))
      Dialect.all
  in
  let rows =
    List.concat_map
      (fun (mode, campaigns) ->
        List.map
          (fun (prof, (r : Soft.Soft_runner.result)) ->
            ( (prof.Dialect.id, mode),
              ( (List.length r.Soft.Soft_runner.bugs, r.Soft.Soft_runner.cases_executed),
                fingerprint r ) ))
          campaigns)
      [ ("exhaustive", Lazy.force exhaustive_campaigns); ("20000", budgeted) ]
  in
  let sum mode f =
    List.fold_left
      (fun acc ((_, m), (counts, _)) -> if m = mode then acc + f counts else acc)
      0 rows
  in
  Alcotest.(check int) "exhaustive bugs" 146 (sum "exhaustive" fst);
  Alcotest.(check int) "exhaustive cases" 1_354_768 (sum "exhaustive" snd);
  Alcotest.(check int) "bugs at --budget 20000" 88 (sum "20000" fst);
  let show ((d, mode), ((bugs, cases), digests)) =
    Printf.sprintf "    ((%S, %S), ((%d, %d),\n      [ %s ]));" d mode bugs
      cases
      (String.concat ";\n        " (List.map (Printf.sprintf "%S") digests))
  in
  if rows <> campaign_fingerprints then
    prerr_endline
      ("measured fingerprints:\n" ^ String.concat "\n" (List.map show rows));
  Alcotest.(check int) "fingerprint rows"
    (List.length campaign_fingerprints) (List.length rows);
  List.iter2
    (fun ((d, mode), ((bugs, cases), digests)) (_, ((bugs', cases'), digests')) ->
      let ctx what = Printf.sprintf "%s %s: %s" d mode what in
      Alcotest.(check int) (ctx "bugs") bugs bugs';
      Alcotest.(check int) (ctx "cases") cases cases';
      List.iter2
        (fun (k, want) got -> Alcotest.(check string) (ctx k) want got)
        (List.combine fingerprint_keys digests)
        digests')
    campaign_fingerprints rows

(* Each (dialect, pattern) family stream, flattened into its cases and
   pinned as its case count and a chained MD5 over every case's origin
   and printed statement. This pin is the reference for the pattern
   definitions: nothing else notices a changed one. A deliberate change
   to a pattern re-records the table and says why in CHANGES.md. *)
let pattern_stream_pins =
  [
    (("postgresql", "P1.1"), (41, "7aefff6586b288f0096c172e935cf32e"));
    (("postgresql", "P1.2"), (15582, "697c73f9f98bfb4d79cfa81ad75f6781"));
    (("postgresql", "P1.3"), (1452, "8d7536ca6d7e827d5e49f490af62c10a"));
    (("postgresql", "P1.4"), (972, "47dc29058bc597d3f7d2553d44998de5"));
    (("postgresql", "P2.1"), (3710, "b7b380ea5ad9e7c7619d3e28aa46d5b1"));
    (("postgresql", "P2.2"), (3690, "8088cd72717dab2705413a6aae2cb6ce"));
    (("postgresql", "P2.3"), (37340, "7da33f82f65f62addade2fe02364d1af"));
    (("postgresql", "P3.1"), (1636, "5d9007439f5178d680a6ade93f769863"));
    (("postgresql", "P3.2"), (37638, "8eff9e2c445b0b0374478e7e961928e2"));
    (("postgresql", "P3.3"), (84817, "8c333e65a22c8a3ded34210ed197e157"));
    (("mysql", "P1.1"), (41, "7aefff6586b288f0096c172e935cf32e"));
    (("mysql", "P1.2"), (17346, "65e95b25b9482e9960d0c01ec098ec09"));
    (("mysql", "P1.3"), (1713, "74ca0aea05b7a5c939447430b4b9cd08"));
    (("mysql", "P1.4"), (1212, "9644e9ed70aff6bb4620065280c87605"));
    (("mysql", "P2.1"), (4130, "4b0f7e74907d16bc02cef0ed3687c959"));
    (("mysql", "P2.2"), (4110, "b6682ee18dc03f9b1d0ff3e2c2e9373c"));
    (("mysql", "P2.3"), (43552, "1ff7dc593754ca681d3dc8f2ef110597"));
    (("mysql", "P3.1"), (2016, "403b4adc97bf1898a7a6c08f266bb1ec"));
    (("mysql", "P3.2"), (42105, "2437374687139ad2fb5aaedf6bd4bc08"));
    (("mysql", "P3.3"), (95289, "c40b6c717b04d6229f3238f10a3d45ad"));
    (("mariadb", "P1.1"), (41, "7aefff6586b288f0096c172e935cf32e"));
    (("mariadb", "P1.2"), (16254, "dc0fe8c51b564aef239062fc88a570ff"));
    (("mariadb", "P1.3"), (1575, "50e38a24b6f1b9b3ac350f02758fe918"));
    (("mariadb", "P1.4"), (1104, "b4b5ddaa2aece46df3447b8b3a796bc2"));
    (("mariadb", "P2.1"), (3870, "ee4c4cbb8b598a60892424bd0e8ac1e4"));
    (("mariadb", "P2.2"), (3850, "773c5533a4cdf8f2d57ad1b443673aa9"));
    (("mariadb", "P2.3"), (35577, "9d4aa50b66bed5959bfca3510ed4dcb5"));
    (("mariadb", "P3.1"), (1840, "1a96a7bdc0d7e8be1064554e7ae103bf"));
    (("mariadb", "P3.2"), (33750, "9e42af9ce47bdb278a919dc1ce5ee6e0"));
    (("mariadb", "P3.3"), (80844, "bdb3c3d553f9b69020c7c0c737bada81"));
    (("clickhouse", "P1.1"), (41, "7aefff6586b288f0096c172e935cf32e"));
    (("clickhouse", "P1.2"), (19278, "4edcbd60b6d27e8b2e177ed6c53fb760"));
    (("clickhouse", "P1.3"), (1758, "4895b68f59cf2b0c99f5a89623dcfcde"));
    (("clickhouse", "P1.4"), (1194, "279b947ebc33de5276c139fcbf9b4c2d"));
    (("clickhouse", "P2.1"), (4590, "3a6a93ac72a2ab6f28793a3848b90742"));
    (("clickhouse", "P2.2"), (4570, "05b95f576ad78ef09e7858bd1856ddef"));
    (("clickhouse", "P2.3"), (52915, "1df91ce3338f56812307621b8de8b961"));
    (("clickhouse", "P3.1"), (1924, "50d4571155e19de6a381d064c28ca963"));
    (("clickhouse", "P3.2"), (55297, "d529d722ac6b09374c4e1c7d337020e0"));
    (("clickhouse", "P3.3"), (123770, "7a23928d5f71e6f1d0ed2f373723e6b5"));
    (("monetdb", "P1.1"), (41, "7aefff6586b288f0096c172e935cf32e"));
    (("monetdb", "P1.2"), (7182, "f5b60b9204e021f68cac4c81e390d20f"));
    (("monetdb", "P1.3"), (639, "7ae92698b12f1ae315e94a6c36bb7305"));
    (("monetdb", "P1.4"), (408, "5037378155e7612e842dc47d17f6e41a"));
    (("monetdb", "P2.1"), (1710, "1c1e30d1e071f4d95a98705149fef7e0"));
    (("monetdb", "P2.2"), (1690, "d5f3417165d52db9674781385fb5b2c8"));
    (("monetdb", "P2.3"), (8069, "681c4db5564d40cebdca96f00631859f"));
    (("monetdb", "P3.1"), (680, "f649db23c92f0879297d4658acd1de69"));
    (("monetdb", "P3.2"), (7436, "95d7ebc280c109b2cba0a01751eb5ef2"));
    (("monetdb", "P3.3"), (18531, "08caa3db2d15e548664a1c820726b57a"));
    (("duckdb", "P1.1"), (41, "7aefff6586b288f0096c172e935cf32e"));
    (("duckdb", "P1.2"), (16212, "db7fd167dc40281bef410ab3330d398d"));
    (("duckdb", "P1.3"), (1404, "39281f66f8cfb8f469e9e09fa573b068"));
    (("duckdb", "P1.4"), (912, "661a3ba2707475f8a45a726d62d44211"));
    (("duckdb", "P2.1"), (3860, "100aee9e3431eca484b9c0ca2c6fd5e3"));
    (("duckdb", "P2.2"), (3840, "f968ef62944f0bb8e9a180a41cd4dc53"));
    (("duckdb", "P2.3"), (36371, "1df2eb9ef87715a8da681351d1993872"));
    (("duckdb", "P3.1"), (1500, "461d1b0fc30ea0a211d2474d129e69d6"));
    (("duckdb", "P3.2"), (38016, "0ea14a4249b440d410bac59e63c9996e"));
    (("duckdb", "P3.3"), (88602, "413da7cd2449575280b86dd21135a3ac"));
    (("virtuoso", "P1.1"), (41, "7aefff6586b288f0096c172e935cf32e"));
    (("virtuoso", "P1.2"), (14616, "c04276dc1724fb79b50e4c3d00c15bcd"));
    (("virtuoso", "P1.3"), (1365, "0222e640921609b52edde2a4112313de"));
    (("virtuoso", "P1.4"), (876, "a6a0387e7913746e68214181c83875d4"));
    (("virtuoso", "P2.1"), (3480, "6634c5b60cabb95e6cfde90d676da538"));
    (("virtuoso", "P2.2"), (3460, "affda87828cc6c7e83797aab3fd6483b"));
    (("virtuoso", "P2.3"), (30566, "b86373ce6c245e7fd81482f7546ccf03"));
    (("virtuoso", "P3.1"), (1480, "f67eacad79914eef0bb619fce3adaa23"));
    (("virtuoso", "P3.2"), (30576, "3636c90e2341091d75158afd6d2a00fc"));
    (("virtuoso", "P3.3"), (68734, "37fb17fed39e94b8cef599206daf6ff2"));
  ]

let test_pattern_streams_pinned () =
  let actual =
    List.concat_map
      (fun prof ->
        let registry = Dialect.registry prof in
        let seeds =
          Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds ()
        in
        List.map
          (fun pattern ->
            let n, d =
              Seq.fold_left
                (fun (n, d) (c : Soft.Patterns.case) ->
                  ( n + 1,
                    Digest.string
                      (String.concat "\t"
                         [ d; c.Soft.Patterns.origin;
                           Sql_pp.stmt c.Soft.Patterns.stmt ]) ))
                (0, Digest.string "")
                (pattern_cases ~registry ~seeds pattern)
            in
            ((prof.Dialect.id, Pattern_id.to_string pattern), (n, Digest.to_hex d)))
          Pattern_id.all)
      Dialect.all
  in
  Alcotest.(check (list (pair (pair string string) (pair int string))))
    "pattern streams" pattern_stream_pins actual

(* Each dialect's scenario stream, flattened into its cases and pinned
   as its scenario count and a chained MD5 over every scenario's pattern,
   origin, prerequisite SQL and probe SQL: the order of the round-robin
   interleave is part of what is pinned. A deliberate change to a
   scenario kind re-records the table and says why in CHANGES.md. *)
let scenario_stream_pins =
  [
    ("postgresql", (18172, "2947fc0230869189ddaf15ad5466c6eb"));
    ("mysql", (18726, "be6a1fca3bedf69f1c1c5c827e9f850a"));
    ("mariadb", (17012, "a5b5de2d78ef63207121e0e6cef7650c"));
    ("clickhouse", (21432, "e36356bbd9ef4c5ea1ce25443ada3957"));
    ("monetdb", (8704, "d18da0e78d0fb32a23c2f3118778ffb3"));
    ("duckdb", (18380, "b81410e17faca223f7600dc5c51a9857"));
    ("virtuoso", (16020, "49c7a8d175aecdc964e3d091b4335cf1"));
  ]

let test_scenario_streams_pinned () =
  let actual =
    List.map
      (fun prof ->
        let registry = Dialect.registry prof in
        let seeds =
          Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds ()
        in
        let n, d =
          Seq.fold_left
            (fun (n, d) (c : Soft.Patterns.case) ->
              ( n + 1,
                Digest.string
                  (String.concat "\t"
                     [ d; Pattern_id.to_string c.Soft.Patterns.pattern;
                       c.Soft.Patterns.origin;
                       String.concat ";\n"
                         (List.map Sql_pp.stmt c.Soft.Patterns.prereqs);
                       Sql_pp.stmt c.Soft.Patterns.stmt ]) ))
            (0, Digest.string "")
            (scenario_cases ~registry ~seeds)
        in
        (prof.Dialect.id, (n, Digest.to_hex d)))
      Dialect.all
  in
  Alcotest.(check (list (pair string (pair int string))))
    "scenario streams" scenario_stream_pins actual

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
      Alcotest.test_case "scenario positions counted" `Quick
        test_scenario_positions_counted;
      Alcotest.test_case "crash restart respawns" `Quick
        test_crash_restart_respawns;
      Alcotest.test_case "scenario crash restores baseline" `Quick
        test_scenario_crash_restores_baseline;
      Alcotest.test_case "stateful campaign stages (on/off)" `Slow
        test_stateful_campaign_stages;
      Alcotest.test_case "compact campaign identical (all dialects)" `Slow
        test_compact_campaign_identical;
      Alcotest.test_case "batch stream equivalence (all dialects)" `Slow
        test_batch_stream_equivalence;
      Alcotest.test_case "batched PoCs replay cold (all dialects)" `Slow
        test_batched_pocs_replay_cold;
      Alcotest.test_case "campaign fingerprint (all dialects)" `Slow
        test_campaign_fingerprint;
      Alcotest.test_case "pattern streams pinned (all dialects)" `Slow
        test_pattern_streams_pinned;
      Alcotest.test_case "scenario streams pinned (all dialects)" `Slow
        test_scenario_streams_pinned;
      Alcotest.test_case "SOFT beats baselines (mariadb)" `Slow
        test_soft_beats_baselines_on_mariadb;
      Alcotest.test_case "baselines generate valid statements" `Quick
        test_baselines_generate_valid_statements;
      Alcotest.test_case "baselines deterministic" `Quick test_baselines_deterministic;
      Alcotest.test_case "sqlancer modeled set" `Quick
        test_sqlancer_only_modeled_functions;
    ] )
