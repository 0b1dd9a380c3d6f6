open Sqlfun_dialects
open Sqlfun_baselines
module Coverage = Sqlfun_coverage.Coverage
module Telemetry = Sqlfun_telemetry.Telemetry
module Json = Sqlfun_telemetry.Json

type tool = Squirrel | Sqlancer | Sqlsmith | Soft_tool

let tool_name = function
  | Squirrel -> "SQUIRREL"
  | Sqlancer -> "SQLancer"
  | Sqlsmith -> "SQLsmith"
  | Soft_tool -> "SOFT"

let supported tool ~dialect =
  match tool with
  | Squirrel -> List.mem dialect [ "postgresql"; "mysql"; "mariadb" ]
  | Sqlancer -> List.mem dialect [ "postgresql"; "mysql"; "mariadb"; "clickhouse" ]
  | Sqlsmith -> List.mem dialect [ "postgresql"; "monetdb" ]
  | Soft_tool -> List.mem dialect Dialect.ids

type run = {
  tool : tool;
  dialect : string;
  statements : int;
  functions_triggered : int;
  branches : int;
  bugs : int;
  bug_sites : string list;
}

let run_baseline ?telemetry tool gen ~dialect ~budget =
  let prof = Dialect.find_exn dialect in
  let cov = Coverage.create () in
  let detector = Soft.Detector.create ~cov ?telemetry prof in
  for _ = 1 to budget do
    Soft.Detector.run detector (Soft.Patterns.Seed (gen.Baseline.next ()))
  done;
  {
    tool;
    dialect;
    statements = Soft.Detector.executed detector;
    functions_triggered = Coverage.prefixed_count cov "fn/";
    branches = Coverage.count cov;
    bugs = List.length (Soft.Detector.bugs detector);
    bug_sites =
      List.map
        (fun (b : Soft.Detector.found_bug) -> b.Soft.Detector.spec.Sqlfun_fault.Fault.site)
        (Soft.Detector.bugs detector);
  }

let run_tool ?telemetry tool ~dialect ~budget =
  (* one "tool-run" span per (tool, dialect) cell, tagged with the tool so
     equal-budget comparisons can also compare where the time went *)
  let span f =
    match telemetry with
    | None -> f ()
    | Some t ->
      Telemetry.with_span t ~dialect ~pattern:(tool_name tool) "tool-run" f
  in
  span @@ fun () ->
  match tool with
  | Soft_tool ->
    let prof = Dialect.find_exn dialect in
    let r = Soft.Soft_runner.fuzz ~budget ?telemetry prof in
    {
      tool;
      dialect;
      statements = r.Soft.Soft_runner.cases_executed;
      functions_triggered = r.Soft.Soft_runner.functions_triggered;
      branches = r.Soft.Soft_runner.branches_covered;
      bugs = List.length r.Soft.Soft_runner.bugs;
      bug_sites =
        List.map
          (fun (b : Soft.Detector.found_bug) ->
            b.Soft.Detector.spec.Sqlfun_fault.Fault.site)
          r.Soft.Soft_runner.bugs;
    }
  | Squirrel ->
    run_baseline ?telemetry tool (Squirrel_gen.make ~dialect ~seed:42) ~dialect ~budget
  | Sqlancer ->
    run_baseline ?telemetry tool (Sqlancer_gen.make ~dialect ~seed:42) ~dialect ~budget
  | Sqlsmith ->
    run_baseline ?telemetry tool (Sqlsmith_gen.make ~dialect ~seed:42) ~dialect ~budget

let comparison ?telemetry ~budget () =
  List.concat_map
    (fun tool ->
      List.filter_map
        (fun dialect ->
          if supported tool ~dialect then
            Some (run_tool ?telemetry tool ~dialect ~budget)
          else None)
        Dialect.ids)
    [ Squirrel; Sqlancer; Sqlsmith; Soft_tool ]

let run_to_json r =
  Json.Obj
    [
      ("tool", Json.Str (tool_name r.tool));
      ("dialect", Json.Str r.dialect);
      ("statements", Json.Int r.statements);
      ("functions_triggered", Json.Int r.functions_triggered);
      ("branches", Json.Int r.branches);
      ("bugs", Json.Int r.bugs);
      ("bug_sites", Json.Arr (List.map (fun s -> Json.Str s) r.bug_sites));
    ]

let comparison_to_json ?telemetry ~budget runs =
  Json.Obj
    (("schema", Json.Str "soft-telemetry/1")
     :: ("kind", Json.Str "comparison")
     :: ("budget", Json.Int budget)
     :: ("runs", Json.Arr (List.map run_to_json runs))
     ::
     (match telemetry with
      | None -> []
      | Some t -> [ ("stages", Telemetry.stages_to_json t);
                    ("verdicts", Telemetry.verdicts_to_json t) ]))

let pivot metric runs =
  List.map
    (fun dialect ->
      ( dialect,
        List.map
          (fun tool ->
            let cell =
              List.find_opt (fun r -> r.tool = tool && r.dialect = dialect) runs
            in
            (tool, Option.map metric cell))
          [ Squirrel; Sqlancer; Sqlsmith; Soft_tool ] ))
    Dialect.ids

let table5 runs = pivot (fun r -> r.functions_triggered) runs
let table6 runs = pivot (fun r -> r.branches) runs

let bug_counts runs =
  List.map
    (fun tool ->
      ( tool,
        List.fold_left
          (fun acc r -> if r.tool = tool then acc + r.bugs else acc)
          0 runs ))
    [ Squirrel; Sqlancer; Sqlsmith; Soft_tool ]
