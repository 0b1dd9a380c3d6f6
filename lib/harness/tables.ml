open Sqlfun_study
open Sqlfun_fault
open Sqlfun_dialects

let buf_table title headers rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row ->
            match List.nth_opt row i with
            | Some cell -> Stdlib.max w (String.length cell)
            | None -> w)
          (String.length h) rows)
      headers
  in
  let render_row cells =
    String.concat "  "
      (List.mapi
         (fun i c ->
           let w = match List.nth_opt widths i with Some w -> w | None -> 8 in
           Printf.sprintf "%-*s" w c)
         cells)
  in
  Buffer.add_string buf (render_row headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (List.fold_left ( + ) (2 * List.length widths) widths) '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let table1 () =
  let paper = [ ("postgresql", 39); ("mysql", 10); ("mariadb", 269) ] in
  let measured = Stats.by_dbms () in
  buf_table "Table 1: studied built-in SQL function bugs"
    [ "DBMS"; "paper"; "measured" ]
    (List.map
       (fun (d, p) ->
         [ d; string_of_int p; string_of_int (List.assoc d measured) ])
       paper
    @ [
        [ "total"; "318"; string_of_int (Stats.total ()) ];
      ])

let finding1 () =
  let dist, with_stage = Stats.stage_distribution () in
  let pct n = 100.0 *. float_of_int n /. float_of_int with_stage in
  let row stage paper_n paper_pct =
    let n = List.assoc stage dist in
    [
      Corpus.stage_to_string stage;
      Printf.sprintf "%d (%.1f%%)" paper_n paper_pct;
      Printf.sprintf "%d (%.1f%%)" n (pct n);
    ]
  in
  buf_table
    (Printf.sprintf "Finding 1: occurrence stages (of %d with backtraces)" with_stage)
    [ "stage"; "paper"; "measured" ]
    [
      row Corpus.Execution 161 70.0;
      row Corpus.Optimization 45 19.6;
      row Corpus.Parsing 24 10.4;
    ]

let figure1 () =
  let by_type = Stats.occurrences_by_type () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "== Figure 1: function-type occurrences in bug-inducing statements ==\n";
  Buffer.add_string buf
    (Printf.sprintf "total occurrences: %d (paper: 508)\n" (Stats.total_occurrences ()));
  List.iter
    (fun (ty, occ, uniq) ->
      let bar = String.make (occ / 2) '#' in
      Buffer.add_string buf
        (Printf.sprintf "%-10s %4d occ  %3d unique  %s\n" ty occ uniq bar))
    by_type;
  Buffer.add_string buf
    "(paper anchors: string 117 occ / 57 unique; aggregate 91 occ)\n";
  Buffer.contents buf

let table2 () =
  let measured = Stats.size_distribution () in
  let paper = [ (1, 191); (2, 87); (3, 23); (4, 11); (5, 6) ] in
  buf_table "Table 2: function expressions per bug-inducing statement"
    [ "#exprs"; "paper"; "measured" ]
    (List.map
       (fun (n, p) ->
         [
           (if n = 5 then ">=5" else string_of_int n);
           string_of_int p;
           string_of_int (List.assoc n measured);
         ])
       paper)

let finding3 () =
  let n, pct = Stats.at_most_two_share () in
  Printf.sprintf
    "Finding 3: %d/318 bugs (%.1f%%) contain at most two function \
     expressions (paper: 278, 87.5%%)\n"
    n pct

let finding4 () =
  let measured = Stats.prereq_distribution () in
  let paper =
    [
      (Corpus.Table_with_data, 151, 47.5);
      (Corpus.No_table, 132, 41.5);
      (Corpus.Empty_table, 35, 11.0);
    ]
  in
  buf_table "Finding 4: prerequisite statements"
    [ "prerequisite"; "paper"; "measured" ]
    (List.map
       (fun (p, n, pct) ->
         [
           Corpus.prereq_to_string p;
           Printf.sprintf "%d (%.1f%%)" n pct;
           string_of_int (List.assoc p measured);
         ])
       paper)

let root_causes () =
  let buf = Buffer.create 512 in
  let n, pct = Stats.boundary_share () in
  Buffer.add_string buf
    (Printf.sprintf
       "== Root causes (Section 5) ==\nboundary-value bugs: %d/318 (%.1f%%)  \
        [paper: 278, 87.4%%]\n"
       n pct);
  List.iter
    (fun (name, c, p) ->
      Buffer.add_string buf (Printf.sprintf "  %-34s %3d (%.1f%%)\n" name c p))
    (Stats.family_counts ());
  Buffer.add_string buf "literal sub-causes (Section 6):\n";
  List.iter
    (fun (sub, c, p) ->
      let name =
        match sub with
        | Corpus.Extreme_numeric -> "extreme integers/decimals"
        | Corpus.Empty_or_null -> "empty strings / NULL"
        | Corpus.Crafted_string -> "crafted format strings"
      in
      Buffer.add_string buf (Printf.sprintf "  %-34s %3d (%.1f%%)\n" name c p))
    (Stats.literal_subcauses ());
  Buffer.add_string buf
    "  [paper: 10.0%% extreme numerics, 6.6%% empty/NULL, 12.9%% crafted]\n";
  Buffer.contents buf

let table3 () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== Table 3: literals generated by P1.3 and P1.4 ==\n";
  let show pattern seed_sql =
    match Sqlfun_parse.Parser.parse_stmt seed_sql with
    | Error _ -> ()
    | Ok stmt ->
      let seeds =
        [ { Soft.Collector.stmt; source = Soft.Collector.Suite } ]
      in
      let registry = Sqlfun_functions.All_fns.registry () in
      let cases =
        Soft.Patterns.families ~registry ~seeds pattern
        |> Seq.concat_map Soft.Patterns.family_cases
        |> Seq.take 3 |> List.of_seq
      in
      List.iter
        (fun (c : Soft.Patterns.case) ->
          Buffer.add_string buf
            (Printf.sprintf "  %s  %s -> %s\n"
               (Pattern_id.to_string pattern)
               seed_sql
               (Sqlfun_ast.Sql_pp.stmt c.Soft.Patterns.stmt)))
        cases
  in
  show Pattern_id.P1_3 "SELECT JSON_VALID('{\"key\": 0}')";
  show Pattern_id.P1_4 "SELECT JSON_VALID('{\"key\": 0}')";
  Buffer.contents buf

let paper_table4_counts =
  [
    ("postgresql", 1); ("mysql", 16); ("mariadb", 24); ("clickhouse", 6);
    ("monetdb", 19); ("duckdb", 21); ("virtuoso", 45);
  ]

let table4 (results : Soft.Soft_runner.result list) =
  let rows =
    List.concat_map
      (fun (r : Soft.Soft_runner.result) ->
        let d = r.Soft.Soft_runner.dialect.Dialect.id in
        (* group by category *)
        let cats = Hashtbl.create 8 in
        List.iter
          (fun (b : Soft.Detector.found_bug) ->
            let c = b.Soft.Detector.spec.Fault.category in
            let l = match Hashtbl.find_opt cats c with Some l -> l | None -> [] in
            Hashtbl.replace cats c (b :: l))
          r.Soft.Soft_runner.bugs;
        Hashtbl.fold (fun c bugs acc -> (d, c, List.rev bugs) :: acc) cats []
        |> List.sort (fun (_, a, _) (_, b, _) -> String.compare a b))
      results
  in
  let fmt_multiset to_str items =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun x ->
        Hashtbl.replace tbl (to_str x)
          (1 + match Hashtbl.find_opt tbl (to_str x) with Some n -> n | None -> 0))
      items;
    Hashtbl.fold (fun k n acc -> Printf.sprintf "%s(%d)" k n :: acc) tbl []
    |> List.sort String.compare |> String.concat " "
  in
  let body =
    List.map
      (fun (d, cat, bugs) ->
        [
          d;
          Printf.sprintf "%s (%d)" cat (List.length bugs);
          fmt_multiset
            (fun (b : Soft.Detector.found_bug) ->
              Bug_kind.to_string b.Soft.Detector.spec.Fault.kind)
            bugs;
          fmt_multiset
            (fun (b : Soft.Detector.found_bug) ->
              Soft.Detector.pattern_tag b.Soft.Detector.found_by)
            bugs;
          fmt_multiset
            (fun (b : Soft.Detector.found_bug) ->
              Fault.status_to_string b.Soft.Detector.spec.Fault.status)
            bugs;
        ])
      rows
  in
  let per_dialect =
    List.map
      (fun (r : Soft.Soft_runner.result) ->
        let d = r.Soft.Soft_runner.dialect.Dialect.id in
        [
          d;
          Printf.sprintf "TOTAL (%d)" (List.length r.Soft.Soft_runner.bugs);
          Printf.sprintf "paper: %d" (List.assoc d paper_table4_counts);
          "";
          "";
        ])
      results
  in
  buf_table "Table 4: bugs discovered by SOFT"
    [ "DBMS"; "category"; "bug kinds"; "patterns"; "status" ]
    (body @ per_dialect)

let table4_totals (results : Soft.Soft_runner.result list) =
  let bugs =
    List.concat_map (fun r -> r.Soft.Soft_runner.bugs) results
  in
  let count p = List.length (List.filter p bugs) in
  let by_kind k =
    count (fun (b : Soft.Detector.found_bug) -> b.Soft.Detector.spec.Fault.kind = k)
  in
  (* a bug counts in the family of the pattern that found it, not of
     its ledger credit; a seed-found bug counts in none *)
  let fam f =
    count (fun (b : Soft.Detector.found_bug) ->
        match b.Soft.Detector.found_by with
        | Some p -> Pattern_id.family p = f
        | None -> false)
  in
  let fps =
    List.concat_map (fun r -> r.Soft.Soft_runner.fp_signatures) results
    |> List.sort_uniq String.compare |> List.length
  in
  let fp_kills =
    List.fold_left (fun acc r -> acc + r.Soft.Soft_runner.false_positives) 0 results
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== Section 7.3 totals ==\n";
  Buffer.add_string buf
    (Printf.sprintf "bugs found: %d (paper: 132)\n" (List.length bugs));
  List.iter
    (fun (k, paper) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-5s measured %3d  (paper %d)\n" (Bug_kind.to_string k)
           (by_kind k) paper))
    Bug_ledger.expected_kind_counts;
  List.iter
    (fun (f, paper) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-34s measured %3d  (paper %d)\n"
           (Pattern_id.family_to_string f) (fam f) paper))
    Bug_ledger.expected_family_counts;
  Buffer.add_string buf
    (Printf.sprintf
       "  unique false-positive reports: %d (paper: 7; %d statements were \
        resource-killed in total)\n"
       fps fp_kills);
  Buffer.contents buf

let paper_table5 =
  [
    ("postgresql", [ Some 29; Some 123; Some 417; Some 456 ]);
    ("mysql", [ Some 23; Some 35; None; Some 323 ]);
    ("mariadb", [ Some 22; Some 20; None; Some 279 ]);
    ("clickhouse", [ None; Some 24; None; Some 711 ]);
    ("monetdb", [ None; None; Some 29; Some 171 ]);
    ("duckdb", [ None; None; None; None ]);
    ("virtuoso", [ None; None; None; None ]);
  ]

let render_tool_table title paper pivot_rows =
  let cell = function Some n -> string_of_int n | None -> "-" in
  let rows =
    List.map
      (fun (dialect, cells) ->
        let paper_cells =
          match List.assoc_opt dialect paper with
          | Some l -> l
          | None -> [ None; None; None; None ]
        in
        dialect
        :: List.concat
             (List.map2
                (fun (_, measured) paper_v ->
                  [ cell measured; Printf.sprintf "(%s)" (cell paper_v) ])
                cells paper_cells))
      pivot_rows
  in
  buf_table title
    [
      "DBMS"; "SQUIRREL"; "(paper)"; "SQLancer"; "(paper)"; "SQLsmith";
      "(paper)"; "SOFT"; "(paper)";
    ]
    rows

let table5 runs =
  render_tool_table "Table 5: built-in SQL functions triggered (equal budget)"
    paper_table5 (Compare.table5 runs)

let paper_table6 =
  [
    ("postgresql", [ Some 2106; Some 6106; Some 11768; Some 13334 ]);
    ("mysql", [ Some 1105; Some 1927; None; Some 6914 ]);
    ("mariadb", [ Some 1758; Some 1732; None; Some 6283 ]);
    ("clickhouse", [ None; Some 26655; None; Some 45836 ]);
    ("monetdb", [ None; None; Some 551; Some 1431 ]);
    ("duckdb", [ None; None; None; None ]);
    ("virtuoso", [ None; None; None; None ]);
  ]

let table6 runs =
  render_tool_table
    "Table 6: covered branches of SQL-function components (equal budget)"
    paper_table6 (Compare.table6 runs)

let bugs_in_budget runs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "== Bugs found under the shared budget (Section 7.5) ==\n";
  List.iter
    (fun (tool, n) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-9s %d unique SQL function bugs%s\n"
           (Compare.tool_name tool) n
           (match tool with
            | Compare.Soft_tool -> "  (paper: 22 in 24h; baselines: 0)"
            | _ -> "")))
    (Compare.bug_counts runs);
  Buffer.contents buf

let figure2 (results : Soft.Soft_runner.result list) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "== Figure 2: developer feedback (confirmed / fixed per DBMS) ==\n";
  let total_confirmed = ref 0 and total_fixed = ref 0 in
  List.iter
    (fun (r : Soft.Soft_runner.result) ->
      let fixed =
        List.length
          (List.filter
             (fun (b : Soft.Detector.found_bug) ->
               b.Soft.Detector.spec.Fault.status = Fault.Fixed)
             r.Soft.Soft_runner.bugs)
      in
      let n = List.length r.Soft.Soft_runner.bugs in
      total_confirmed := !total_confirmed + n;
      total_fixed := !total_fixed + fixed;
      Buffer.add_string buf
        (Printf.sprintf "  %-12s %2d confirmed, %2d fixed\n"
           r.Soft.Soft_runner.dialect.Dialect.id n fixed))
    results;
  Buffer.add_string buf
    (Printf.sprintf "  total: %d confirmed, %d fixed (paper: 132 confirmed, 97 fixed)\n"
       !total_confirmed !total_fixed);
  Buffer.contents buf

(* ----- the paper's campaigns and the print sequences of each section ----- *)

(* Section 7 runs the ten pattern streams only. The stateful scenario
   stream also reaches the 14 staged parse- and storage-stage sites
   ([Bug_ledger.staged]), which are not among Table 4's 132 bugs. *)
let paper_campaign ?patterns prof =
  Soft.Soft_runner.fuzz ?patterns ~stateful:false prof

let paper_campaigns ?budget ?jobs ?shards () =
  Soft.Soft_runner.fuzz_all ?budget ?jobs ?shards ~stateful:false ()

let study_section () =
  String.concat "\n"
    [
      table1 (); finding1 (); figure1 (); table2 ();
      finding3 () ^ finding4 (); root_causes ();
    ]

let campaign_section results =
  String.concat "\n"
    [ table4 results; table4_totals results; figure2 results ]

let comparison_section runs =
  String.concat "\n" [ table5 runs; table6 runs; bugs_in_budget runs ]
