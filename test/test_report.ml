(* The campaign summary and the invariants its rows must keep.

   [fuzz] stdout, the [--report] markdown header and the [--json]
   snapshot all render one [Report.summary]; these tests check that the
   three renderings agree row by row, and that the verdict counts the
   summary shows add up to the cases it says were executed. *)

module Telemetry = Sqlfun_telemetry.Telemetry
module Json = Sqlfun_telemetry.Json
module Report = Soft.Report
module Runner = Soft.Soft_runner
open Sqlfun_dialects

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* the snapshot's object holding a row's keys *)
let home_key = function
  | Report.Totals -> "totals"
  | Report.Compile -> "compile"
  | Report.Compact -> "compact"
  | Report.Batch -> "batch"

let home_obj json home =
  match Json.member (home_key home) json with
  | Some (Json.Obj kvs) -> kvs
  | _ -> Alcotest.failf "snapshot has no %S object" (home_key home)

let test_one_summary () =
  let r = Runner.fuzz ~budget:2000 (Dialect.find_exn "mysql") in
  let s = Report.summary r in
  let lines = Report.summary_lines s in
  let md = Report.campaign_to_markdown r in
  let json = Report.campaign_to_json r in
  List.iter
    (fun (row : Report.row) ->
      (match
         List.find_opt
           (fun l ->
             String.starts_with ~prefix:(row.Report.label ^ ":") l
             && String.ends_with ~suffix:(" " ^ row.Report.text) l)
           lines
       with
       | None ->
         Alcotest.failf "no stdout line shows %s: %s" row.Report.label
           row.Report.text
       | Some l ->
         Alcotest.(check bool)
           (Printf.sprintf "markdown header has %S" l)
           true
           (contains md ("\n- " ^ l ^ "\n")));
      let obj = home_obj json row.Report.home in
      List.iter
        (fun (k, v) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: JSON %s equals the row" row.Report.label k)
            true
            (List.assoc_opt k obj = Some v))
        row.Report.fields)
    s;
  Alcotest.(check int) "one line per row" (List.length s) (List.length lines);
  (* the rows own every key of the four objects, each once and in the
     rows' order, so no count is rendered outside the summary *)
  List.iter
    (fun home ->
      Alcotest.(check (list string))
        (home_key home ^ " keys are the rows' keys")
        (List.concat_map
           (fun (row : Report.row) ->
             if row.Report.home = home then List.map fst row.Report.fields
             else [])
           s)
        (List.map fst (home_obj json home)))
    Report.[ Totals; Compile; Compact; Batch ];
  (* rows the markdown header lacked before it rendered the summary *)
  List.iter
    (fun label ->
      Alcotest.(check bool)
        (Printf.sprintf "markdown has %s" label)
        true
        (contains md ("\n- " ^ label ^ ":")))
    [ "compiled families"; "batched cases"; "known crashes" ];
  Alcotest.(check bool) "bug count closes the stdout block" true
    (String.starts_with ~prefix:"bugs found:"
       (List.nth lines (List.length lines - 1)))

let test_verdict_sum () =
  (* every executed case gets exactly one verdict: the classes the
     summary shows, plus duplicate bug triggers (counted only in the
     verdict table), add up to the cases executed — sequentially and on
     2 shards x 2 jobs, scenario stream included *)
  let prof = Dialect.find_exn "duckdb" in
  List.iter
    (fun (jobs, shards) ->
      let r = Runner.fuzz ~budget:2000 ~stateful:true ~jobs ~shards prof in
      let dups = Telemetry.verdict_total r.Runner.telemetry Telemetry.Dup_bug in
      let name what = Printf.sprintf "%dx%d: %s" jobs shards what in
      Alcotest.(check bool) (name "scenarios ran") true
        (r.Runner.scenarios_executed > 0);
      Alcotest.(check bool) (name "bugs and duplicates found") true
        (r.Runner.bugs <> [] && dups > 0);
      Alcotest.(check int) (name "verdicts sum to cases executed")
        r.Runner.cases_executed
        (r.Runner.passed + r.Runner.clean_errors + r.Runner.false_positives
        + List.length r.Runner.bugs + dups + r.Runner.known_crashes))
    [ (1, 1); (2, 2) ]

let suite =
  ( "report",
    [
      Alcotest.test_case "one summary" `Quick test_one_summary;
      Alcotest.test_case "verdict sum invariant" `Quick test_verdict_sum;
    ] )
