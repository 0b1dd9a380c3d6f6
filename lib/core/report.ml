open Sqlfun_fault
open Sqlfun_dialects
module Telemetry = Sqlfun_telemetry.Telemetry
module Profile = Sqlfun_telemetry.Profile
module Json = Sqlfun_telemetry.Json
module Coverage = Sqlfun_coverage.Coverage

(* ----- bug provenance: the one rendering of [found_by] ----- *)

let seed_family = "seed replay"
let family_name p = Pattern_id.family_to_string (Pattern_id.family p)

(* the pattern tag and paper family a bug is credited to *)
let provenance (b : Detector.found_bug) =
  ( Detector.pattern_tag b.Detector.found_by,
    match b.Detector.found_by with
    | Some p -> family_name p
    | None -> seed_family )

let bug_summary_line (b : Detector.found_bug) =
  let spec = b.Detector.spec in
  Printf.sprintf "[%s] %s %s %s via %s: %s"
    (Bug_kind.to_string spec.Fault.kind)
    spec.Fault.dialect spec.Fault.func spec.Fault.site
    (fst (provenance b)) b.Detector.poc

let bug_to_markdown (b : Detector.found_bug) =
  let spec = b.Detector.spec in
  let pattern, family = provenance b in
  Printf.sprintf
    "## %s: %s in `%s`\n\n\
     - **Site**: `%s`\n\
     - **Crash class**: %s\n\
     - **Generation pattern**: %s (%s)\n\
     - **Status**: %s\n\
     - **Found at statement**: #%d\n\n\
     Proof of concept:\n\n\
     ```sql\n%s;\n```\n\n\
     Root cause (boundary condition): %s\n"
    (Bug_kind.to_string spec.Fault.kind)
    (Bug_kind.describe spec.Fault.kind)
    spec.Fault.func spec.Fault.site
    (Bug_kind.describe spec.Fault.kind)
    pattern family
    (Fault.status_to_string spec.Fault.status)
    b.Detector.case_number b.Detector.poc spec.Fault.note

(* ----- the campaign summary: one row list, rendered three ways ----- *)

(* Scenario counters and stage attribution are verdict facts,
   deterministic in shard/job count and toggle settings, so they live
   INSIDE [totals] and the CI determinism diffs gate them. The compact
   counters live OUTSIDE [totals]: they count how values were
   represented, which moves with the compaction thresholds while
   verdicts and bugs do not. *)
type home = Totals | Compact

type row = {
  label : string;
  text : string;
  home : home;
  fields : (string * Json.t) list;
}

type summary = row list

let bugs_label = "bugs found"

let summary (r : Soft_runner.result) =
  let tel = r.Soft_runner.telemetry in
  let kc = Telemetry.compact_counts tel
  and sv = r.Soft_runner.stage_verdicts in
  let row label home fields fmt =
    Printf.ksprintf (fun text -> { label; text; home; fields }) fmt
  in
  let ints = List.map (fun (k, n) -> (k, Json.Int n)) in
  let one label key n = row label Totals (ints [ (key, n) ]) "%d" n in
  [
    one "seeds collected" "seeds_collected" r.Soft_runner.seeds_collected;
    one "substitution slots" "positions" r.Soft_runner.positions;
    one "statements executed" "cases_executed" r.Soft_runner.cases_executed;
    row "stateful scenarios" Totals
      (ints
         [
           ("scenarios_executed", r.Soft_runner.scenarios_executed);
           ("prereq_statements", r.Soft_runner.prereq_statements);
         ])
      "%d (%d prereq statements)" r.Soft_runner.scenarios_executed
      r.Soft_runner.prereq_statements;
    row "crash verdicts by stage" Totals
      [
        ( "verdict_stages",
          Json.Obj
            (ints
               [
                 ("parse", sv.Detector.parse);
                 ("execute", sv.Detector.execute);
                 ("storage", sv.Detector.storage);
               ]) );
      ]
      "parse %d / execute %d / storage %d" sv.Detector.parse
      sv.Detector.execute sv.Detector.storage;
    row "compact values" Compact
      (ints
         [ ("hits", kc.Telemetry.k_hits); ("spills", kc.Telemetry.k_spills) ])
      "%d built, %d spilled" kc.Telemetry.k_hits kc.Telemetry.k_spills;
    row "passed / clean errors" Totals
      (ints
         [
           ("passed", r.Soft_runner.passed);
           ("clean_errors", r.Soft_runner.clean_errors);
         ])
      "%d / %d" r.Soft_runner.passed r.Soft_runner.clean_errors;
    (* the paper's "7 false positives" counts unique reports, so both
       units are shown *)
    row "false positives" Totals
      (ints
         [
           ("false_positives", r.Soft_runner.false_positives);
           ("unique_false_positives", r.Soft_runner.unique_false_positives);
         ])
      "%d (%d unique reports)" r.Soft_runner.false_positives
      r.Soft_runner.unique_false_positives;
    one "known crashes" "known_crashes" r.Soft_runner.known_crashes;
    one bugs_label "bugs" (List.length r.Soft_runner.bugs);
    one "functions triggered" "functions_triggered"
      r.Soft_runner.functions_triggered;
    one "branches covered" "branches_covered" r.Soft_runner.branches_covered;
  ]

(* rows keep [totals] key order, except that the bug count closes the
   text block: the bug list follows it *)
let summary_lines s =
  let bugs, rest = List.partition (fun r -> r.label = bugs_label) s in
  List.map (fun r -> Printf.sprintf "%-21s %s" (r.label ^ ":") r.text)
    (rest @ bugs)

let summary_json s =
  List.map
    (fun (home, key) ->
      ( key,
        Json.Obj
          (List.concat_map (fun r -> if r.home = home then r.fields else []) s)
      ))
    [ (Totals, "totals"); (Compact, "compact") ]

let campaign_to_markdown (r : Soft_runner.result) =
  let buf = Buffer.create 4096 in
  let p = r.Soft_runner.dialect in
  Buffer.add_string buf
    (Printf.sprintf "# SOFT campaign report — %s %s (simulated)\n\n"
       p.Dialect.display p.Dialect.version);
  List.iter
    (fun line -> Buffer.add_string buf ("- " ^ line ^ "\n"))
    (summary_lines (summary r));
  Buffer.add_char buf '\n';
  (match r.Soft_runner.timings with
   | [] -> ()
   | timings ->
     Buffer.add_string buf "## Stage timing\n\n";
     Buffer.add_string buf
       "| stage | calls | total (ms) | p50 (us) | p99 (us) | max (us) |\n\
        |---|---:|---:|---:|---:|---:|\n";
     List.iter
       (fun (s : Telemetry.stage_timing) ->
         Buffer.add_string buf
           (Printf.sprintf "| %s | %d | %.2f | %.1f | %.1f | %.1f |\n"
              s.Telemetry.stage s.Telemetry.calls
              (float_of_int s.Telemetry.total_ns /. 1e6)
              (float_of_int s.Telemetry.p50_ns /. 1e3)
              (float_of_int s.Telemetry.p99_ns /. 1e3)
              (float_of_int s.Telemetry.max_ns /. 1e3)))
       timings;
     Buffer.add_char buf '\n');
  (match Profile.hottest r.Soft_runner.profile with
   | [] -> ()
   | _ ->
     Buffer.add_string buf "## Hottest functions\n\n";
     Buffer.add_string buf
       (Printf.sprintf "Attribution: %.1f%% of profiled engine time.\n\n"
          (100. *. Profile.attribution r.Soft_runner.profile));
     Buffer.add_string buf (Profile.top_markdown r.Soft_runner.profile);
     Buffer.add_char buf '\n');
  List.iter
    (fun b ->
      Buffer.add_string buf (bug_to_markdown b);
      Buffer.add_char buf '\n')
    r.Soft_runner.bugs;
  Buffer.contents buf

(* ----- machine-readable campaign snapshot (the --json artifact) ----- *)

(* map a counter's pattern tag back to its paper family; seed replays and
   unknown tags get their own bucket *)
let family_of_pattern_tag tag =
  match
    List.find_opt (fun p -> Pattern_id.to_string p = tag) Pattern_id.all
  with
  | Some p -> family_name p
  | None -> if tag = Detector.pattern_tag None then seed_family else tag

let bug_to_json (b : Detector.found_bug) =
  let spec = b.Detector.spec in
  let pattern, family = provenance b in
  Json.Obj
    [
      ("site", Json.Str spec.Fault.site);
      ("func", Json.Str spec.Fault.func);
      ("kind", Json.Str (Bug_kind.to_string spec.Fault.kind));
      ("pattern", Json.Str pattern);
      ("family", Json.Str family);
      ("status", Json.Str (Fault.status_to_string spec.Fault.status));
      ("case_number", Json.Int b.Detector.case_number);
      ("poc", Json.Str b.Detector.poc);
    ]

(* roll the dialect x pattern x verdict counters up to the three paper
   families (plus seed replay) — the unit of Table 4's per-family columns *)
let family_rollup_json (tel : Telemetry.t) =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (row : Telemetry.verdict_counts) ->
      let fam = family_of_pattern_tag row.Telemetry.pattern in
      let counts =
        match Hashtbl.find_opt tbl fam with
        | Some c -> c
        | None ->
          let c = Array.make (List.length Telemetry.verdict_classes) 0 in
          Hashtbl.add tbl fam c;
          order := fam :: !order;
          c
      in
      List.iteri
        (fun i (_, n) -> counts.(i) <- counts.(i) + n)
        row.Telemetry.by_class)
    (Telemetry.verdict_rows tel);
  Json.Arr
    (List.rev_map
       (fun fam ->
         let counts = Hashtbl.find tbl fam in
         let cases = Array.fold_left ( + ) 0 counts in
         Json.Obj
           (("family", Json.Str fam)
            :: ("cases", Json.Int cases)
            :: List.mapi
                 (fun i v ->
                   (Telemetry.verdict_class_to_string v, Json.Int counts.(i)))
                 Telemetry.verdict_classes))
       !order)

let campaign_to_json (r : Soft_runner.result) =
  let p = r.Soft_runner.dialect in
  Json.Obj
    ([
       ("schema", Json.Str "soft-telemetry/2");
       ("kind", Json.Str "campaign");
       ("dialect", Json.Str p.Dialect.id);
       ("version", Json.Str p.Dialect.version);
     ]
    @ summary_json (summary r)
    @ [
      ( "stages",
        Json.Arr (List.map Telemetry.stage_timing_to_json r.Soft_runner.timings)
      );
      (* execute-stage attribution is wall-time bookkeeping, so it also
         lives outside [totals] for the same reason as [stages] *)
      ("profile", Profile.to_json r.Soft_runner.profile);
      ("families", family_rollup_json r.Soft_runner.telemetry);
      ("verdicts", Telemetry.verdicts_to_json r.Soft_runner.telemetry);
      ("bugs", Json.Arr (List.map bug_to_json r.Soft_runner.bugs));
      ( "fp_signatures",
        Json.Arr
          (List.map (fun s -> Json.Str s) r.Soft_runner.fp_signatures) );
      ("coverage", Coverage.to_json r.Soft_runner.coverage);
    ])
