open Sqlfun_fault
open Sqlfun_dialects
module Telemetry = Sqlfun_telemetry.Telemetry
module Profile = Sqlfun_telemetry.Profile
module Json = Sqlfun_telemetry.Json
module Coverage = Sqlfun_coverage.Coverage

let bug_to_markdown (b : Detector.found_bug) =
  let spec = b.Detector.spec in
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
    (match b.Detector.found_by with
     | Some p -> Pattern_id.to_string p
     | None -> "regression suite")
    (match b.Detector.found_by with
     | Some p -> Pattern_id.family_to_string (Pattern_id.family p)
     | None -> "seed replay")
    (Fault.status_to_string spec.Fault.status)
    b.Detector.case_number b.Detector.poc spec.Fault.note

let campaign_to_markdown (r : Soft_runner.result) =
  let buf = Buffer.create 4096 in
  let p = r.Soft_runner.dialect in
  Buffer.add_string buf
    (Printf.sprintf "# SOFT campaign report — %s %s (simulated)\n\n"
       p.Dialect.display p.Dialect.version);
  Buffer.add_string buf
    (Printf.sprintf
       "- statements executed: %d\n\
        - stateful scenarios: %d (%d prerequisite statements)\n\
        - crash verdicts by stage: parse %d / execute %d / storage %d\n\
        - compact values: %d built, %d spilled\n\
        - passed / clean errors: %d / %d\n\
        - resource false positives: %d (%d unique reports)\n\
        - functions triggered: %d\n\
        - branch points covered: %d\n\
        - **bugs found: %d**\n\n"
       r.Soft_runner.cases_executed r.Soft_runner.scenarios_executed
       r.Soft_runner.prereq_statements
       r.Soft_runner.stage_verdicts.Detector.parse
       r.Soft_runner.stage_verdicts.Detector.execute
       r.Soft_runner.stage_verdicts.Detector.storage
       (Telemetry.compact_counts r.Soft_runner.telemetry).Telemetry.k_hits
       (Telemetry.compact_counts r.Soft_runner.telemetry).Telemetry.k_spills
       r.Soft_runner.passed
       r.Soft_runner.clean_errors r.Soft_runner.false_positives
       r.Soft_runner.unique_false_positives r.Soft_runner.functions_triggered
       r.Soft_runner.branches_covered
       (List.length r.Soft_runner.bugs));
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
  | Some p -> Pattern_id.family_to_string (Pattern_id.family p)
  | None -> if tag = "seed" then "seed replay" else tag

let bug_to_json (b : Detector.found_bug) =
  let spec = b.Detector.spec in
  Json.Obj
    [
      ("site", Json.Str spec.Fault.site);
      ("func", Json.Str spec.Fault.func);
      ("kind", Json.Str (Bug_kind.to_string spec.Fault.kind));
      ( "pattern",
        Json.Str
          (match b.Detector.found_by with
           | Some p -> Pattern_id.to_string p
           | None -> "seed") );
      ( "family",
        Json.Str
          (match b.Detector.found_by with
           | Some p -> Pattern_id.family_to_string (Pattern_id.family p)
           | None -> "seed replay") );
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
    [
      ("schema", Json.Str "soft-telemetry/1");
      ("kind", Json.Str "campaign");
      ("dialect", Json.Str p.Dialect.id);
      ("version", Json.Str p.Dialect.version);
      ( "totals",
        Json.Obj
          [
            ("seeds_collected", Json.Int r.Soft_runner.seeds_collected);
            ("positions", Json.Int r.Soft_runner.positions);
            ("cases_executed", Json.Int r.Soft_runner.cases_executed);
            (* scenario counters and stage attribution are verdict
               facts, not throughput metadata: they are deterministic
               in shard/job count and toggle settings, so they live
               INSIDE [totals] and the CI determinism diffs gate
               them *)
            ("scenarios_executed", Json.Int r.Soft_runner.scenarios_executed);
            ("prereq_statements", Json.Int r.Soft_runner.prereq_statements);
            ( "verdict_stages",
              Json.Obj
                [
                  ( "parse",
                    Json.Int r.Soft_runner.stage_verdicts.Detector.parse );
                  ( "execute",
                    Json.Int r.Soft_runner.stage_verdicts.Detector.execute );
                  ( "storage",
                    Json.Int r.Soft_runner.stage_verdicts.Detector.storage );
                ] );
            ("passed", Json.Int r.Soft_runner.passed);
            ("clean_errors", Json.Int r.Soft_runner.clean_errors);
            ("false_positives", Json.Int r.Soft_runner.false_positives);
            ( "unique_false_positives",
              Json.Int r.Soft_runner.unique_false_positives );
            ("known_crashes", Json.Int r.Soft_runner.known_crashes);
            ("bugs", Json.Int (List.length r.Soft_runner.bugs));
            ("functions_triggered", Json.Int r.Soft_runner.functions_triggered);
            ("branches_covered", Json.Int r.Soft_runner.branches_covered);
          ] );
      (* plan-compilation counters are throughput metadata, like
         [stages]: probes vary with shard count (each shard caches plans
         privately), so they live OUTSIDE [totals] — determinism checks
         diff [totals], [verdicts], [bugs], [fp_signatures] and
         [families] across jobs/shards/toggle settings, and those must
         not see them *)
      ("compile", Telemetry.compile_to_json r.Soft_runner.telemetry);
      (* compact-representation counters are throughput metadata too:
         construction/spill counts vary with the [--no-compact] knob
         while verdicts and bugs do not *)
      ("compact", Telemetry.compact_to_json r.Soft_runner.telemetry);
      (* batched-execution counters are throughput metadata too: flush
         and member counts vary with budget-share splits while verdicts
         and bugs do not *)
      ("batch", Telemetry.batch_to_json r.Soft_runner.telemetry);
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
    ]
