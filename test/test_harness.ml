open Sqlfun_harness
open Sqlfun_dialects

(* ----- logic oracles (the §8 extension) ----- *)

let test_logic_oracles_hold () =
  (* the metamorphic identities must hold on every unfaulted dialect *)
  List.iter
    (fun p ->
      let r = Logic_oracle.run ~seed:11 ~budget:120 p in
      Alcotest.(check int)
        (p.Dialect.id ^ " has no logic mismatches")
        0
        (List.length r.Logic_oracle.mismatches);
      Alcotest.(check bool)
        (p.Dialect.id ^ " ran checks")
        true
        (r.Logic_oracle.checks = 120))
    Dialect.all

let test_tlp_direct () =
  let e = Dialect.make_engine (Dialect.find_exn "mysql") in
  let pred =
    Sqlfun_ast.Ast.Binop
      (Sqlfun_ast.Ast.Gt, Sqlfun_ast.Ast.Column (None, "price"), Sqlfun_ast.Ast.Dec_lit "1.0")
  in
  match Logic_oracle.tlp_check e ~table:"items" ~predicate:pred with
  | Ok None -> ()
  | Ok (Some m) -> Alcotest.failf "unexpected mismatch: %s" m.Logic_oracle.detail
  | Error msg -> Alcotest.failf "inapplicable: %s" msg

let test_norec_direct () =
  let e = Dialect.make_engine (Dialect.find_exn "postgresql") in
  let pred =
    Sqlfun_ast.Ast.Binop
      (Sqlfun_ast.Ast.Like, Sqlfun_ast.Ast.Column (None, "name"), Sqlfun_ast.Ast.Str_lit "%a%")
  in
  match Logic_oracle.norec_check e ~table:"items" ~predicate:pred with
  | Ok None -> ()
  | Ok (Some m) -> Alcotest.failf "unexpected mismatch: %s" m.Logic_oracle.detail
  | Error msg -> Alcotest.failf "inapplicable: %s" msg

let test_agg_equiv_direct () =
  let e = Dialect.make_engine (Dialect.find_exn "clickhouse") in
  match Logic_oracle.agg_equiv_check e ~table:"items" ~column:"price" with
  | Ok [] -> ()
  | Ok (m :: _) -> Alcotest.failf "mismatch: %s" m.Logic_oracle.detail
  | Error msg -> Alcotest.failf "inapplicable: %s" msg

(* ----- table renderers ----- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_study_tables_render () =
  let t1 = Tables.table1 () in
  Alcotest.(check bool) "table1 has totals" true (contains t1 "318");
  let f1 = Tables.finding1 () in
  Alcotest.(check bool) "finding1 execution" true (contains f1 "execution");
  let fig = Tables.figure1 () in
  Alcotest.(check bool) "figure1 bars" true (contains fig "###");
  Alcotest.(check bool) "figure1 string row" true (contains fig "string");
  let t2 = Tables.table2 () in
  Alcotest.(check bool) "table2 buckets" true (contains t2 "191");
  let rc = Tables.root_causes () in
  Alcotest.(check bool) "root causes share" true (contains rc "87.4");
  let t3 = Tables.table3 () in
  Alcotest.(check bool) "table3 P1.3 splice" true (contains t3 "99999");
  Alcotest.(check bool) "table3 P1.4 duplication" true (contains t3 "{{{{")

let test_campaign_tables_render () =
  (* a small budgeted campaign still renders all Table 4 machinery *)
  let results =
    [ Soft.Soft_runner.fuzz ~budget:3_000 (Dialect.find_exn "monetdb") ]
  in
  let t4 = Tables.table4 results in
  Alcotest.(check bool) "table4 mentions monetdb" true (contains t4 "monetdb");
  let totals = Tables.table4_totals results in
  Alcotest.(check bool) "totals mention paper" true (contains totals "paper");
  let fig2 = Tables.figure2 results in
  Alcotest.(check bool) "figure2 mentions confirmed" true (contains fig2 "confirmed")

(* Table 4 counts the paper's 132 bugs; the stateful scenario stream
   would add postgresql's two staged parse/storage-stage sites *)
let test_paper_campaign_matches_table4 () =
  let prof = Dialect.find_exn "postgresql" in
  let r = Tables.paper_campaign prof in
  Alcotest.(check int) "no scenarios" 0 r.Soft.Soft_runner.scenarios_executed;
  let total_row =
    String.split_on_char '\n' (Tables.table4 [ r ])
    |> List.find (fun line -> contains line "TOTAL")
  in
  Alcotest.(check bool)
    ("TOTAL (1) beside paper: 1 in " ^ total_row)
    true
    (contains total_row "TOTAL (1)" && contains total_row "paper: 1");
  let stateful = Soft.Soft_runner.fuzz prof in
  Alcotest.(check int) "the stateful campaign finds 3" 3
    (List.length stateful.Soft.Soft_runner.bugs)

let test_compare_small () =
  let runs =
    [
      Compare.run_tool Compare.Sqlsmith ~dialect:"monetdb" ~budget:1_500;
      Compare.run_tool Compare.Soft_tool ~dialect:"monetdb" ~budget:1_500;
    ]
  in
  let t5 = Tables.table5 runs in
  Alcotest.(check bool) "table5 renders" true (contains t5 "monetdb");
  let t6 = Tables.table6 runs in
  Alcotest.(check bool) "table6 renders" true (contains t6 "SQLsmith");
  let b = Tables.bugs_in_budget runs in
  Alcotest.(check bool) "bug summary renders" true (contains b "SOFT")

let test_support_matrix () =
  Alcotest.(check bool) "squirrel no clickhouse" false
    (Compare.supported Compare.Squirrel ~dialect:"clickhouse");
  Alcotest.(check bool) "sqlancer clickhouse" true
    (Compare.supported Compare.Sqlancer ~dialect:"clickhouse");
  Alcotest.(check bool) "sqlsmith monetdb" true
    (Compare.supported Compare.Sqlsmith ~dialect:"monetdb");
  Alcotest.(check bool) "soft everywhere" true
    (List.for_all (fun d -> Compare.supported Compare.Soft_tool ~dialect:d) Dialect.ids)

(* property: the unfaulted engine never lets an exception escape for any
   statement the baselines generate (total robustness of the public API) *)
let prop_engine_total char_gen =
  ignore char_gen;
  QCheck.Test.make ~name:"unfaulted engines never crash on generated statements"
    ~count:60
    QCheck.(pair (int_bound 10_000) (int_bound 6))
    (fun (seed, dialect_idx) ->
      let dialect = List.nth Dialect.ids (dialect_idx mod List.length Dialect.ids) in
      let gen = Sqlfun_baselines.Sqlsmith_gen.make ~dialect ~seed in
      let engine = Dialect.make_engine (Dialect.find_exn dialect) in
      let ok = ref true in
      for _ = 1 to 25 do
        let stmt = gen.Sqlfun_baselines.Baseline.next () in
        match Sqlfun_engine.Engine.exec_stmt engine stmt with
        | Ok _ | Error _ -> ()
        | exception _ -> ok := false
      done;
      !ok)

let suite =
  ( "harness",
    [
      Alcotest.test_case "logic oracles hold on all dialects" `Slow
        test_logic_oracles_hold;
      Alcotest.test_case "tlp direct" `Quick test_tlp_direct;
      Alcotest.test_case "norec direct" `Quick test_norec_direct;
      Alcotest.test_case "agg-equiv direct" `Quick test_agg_equiv_direct;
      Alcotest.test_case "study tables render" `Quick test_study_tables_render;
      Alcotest.test_case "campaign tables render" `Quick test_campaign_tables_render;
      Alcotest.test_case "paper campaign matches Table 4" `Slow
        test_paper_campaign_matches_table4;
      Alcotest.test_case "small comparison" `Quick test_compare_small;
      Alcotest.test_case "support matrix" `Quick test_support_matrix;
      QCheck_alcotest.to_alcotest (prop_engine_total ());
    ] )
