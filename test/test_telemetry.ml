(** Tests for the telemetry subsystem: span nesting/aggregation,
    histogram percentile math, JSONL event round-trips, and the
    determinism guarantee (verdict counts identical with the sink on or
    off). *)

open Sqlfun_telemetry
module Dialect = Sqlfun_dialects.Dialect

(* ----- JSON primitive ----- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "quote \" slash \\ newline \n tab \t done");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("a", Json.Arr [ Json.Int 1; Json.Str "x"; Json.Arr [] ]);
        ("o", Json.Obj [ ("nested", Json.Int 7) ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "{} trailing" ]

(* ----- spans: nesting, aggregation, event stream ----- *)

let test_span_nesting_and_aggregation () =
  let sink, events = Telemetry.memory_sink () in
  let t = Telemetry.create ~sink () in
  let answer =
    Telemetry.with_span t "outer" (fun () ->
        Telemetry.with_span t ~dialect:"mysql" ~pattern:"P1.1" "inner"
          (fun () -> ());
        Telemetry.with_span t ~dialect:"mysql" ~pattern:"P1.2" "inner"
          (fun () -> ());
        17)
  in
  Alcotest.(check int) "with_span is transparent" 17 answer;
  let timings = Telemetry.stage_timings t in
  let find stage =
    match
      List.find_opt (fun s -> s.Telemetry.stage = stage) timings
    with
    | Some s -> s
    | None -> Alcotest.failf "stage %s missing" stage
  in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check int) "outer called once" 1 outer.Telemetry.calls;
  Alcotest.(check int) "inner aggregated" 2 inner.Telemetry.calls;
  Alcotest.(check bool) "outer time covers inner time" true
    (outer.Telemetry.total_ns >= inner.Telemetry.total_ns);
  Alcotest.(check bool) "max <= total" true
    (inner.Telemetry.max_ns <= inner.Telemetry.total_ns);
  (* event stream: open/close pairs, properly nested depths *)
  match events () with
  | [
   Telemetry.Span_open o1;
   Telemetry.Span_open o2;
   Telemetry.Span_close c2;
   Telemetry.Span_open o3;
   Telemetry.Span_close c3;
   Telemetry.Span_close c1;
  ] ->
    Alcotest.(check string) "outer first" "outer" o1.stage;
    Alcotest.(check int) "outer depth 0" 0 o1.depth;
    Alcotest.(check int) "inner depth 1" 1 o2.depth;
    Alcotest.(check int) "depth restored" 1 o3.depth;
    Alcotest.(check string) "pattern attr" "P1.1" o2.pattern;
    Alcotest.(check string) "second pattern attr" "P1.2" o3.pattern;
    Alcotest.(check bool) "closes carry durations" true
      (c1.dur_ns >= 0 && c2.dur_ns >= 0 && c3.dur_ns >= 0);
    Alcotest.(check bool) "close timestamps ordered" true
      (c2.ts_ns <= c3.ts_ns && c3.ts_ns <= c1.ts_ns)
  | evs -> Alcotest.failf "unexpected event shape (%d events)" (List.length evs)

let test_span_closes_on_exception () =
  let t = Telemetry.create () in
  (try
     Telemetry.with_span t "boom" (fun () -> failwith "crash") |> ignore
   with Failure _ -> ());
  match Telemetry.stage_timings t with
  | [ s ] ->
    Alcotest.(check string) "stage recorded" "boom" s.Telemetry.stage;
    Alcotest.(check int) "one call" 1 s.Telemetry.calls
  | l -> Alcotest.failf "expected one stage, got %d" (List.length l)

let test_time_seq () =
  let t = Telemetry.create () in
  let seq = Telemetry.time_seq t ~stage:"generate" (List.to_seq [ 1; 2; 3 ]) in
  Alcotest.(check (list int)) "sequence preserved" [ 1; 2; 3 ]
    (List.of_seq seq);
  match Telemetry.stage_timings t with
  | [ s ] ->
    (* one span per forced node: three Cons plus the final Nil *)
    Alcotest.(check int) "one span per forcing" 4 s.Telemetry.calls
  | l -> Alcotest.failf "expected one stage, got %d" (List.length l)

(* ----- histogram percentile math ----- *)

let test_histogram_percentiles () =
  let h = Telemetry.Histogram.create () in
  Alcotest.(check int) "empty -> 0" 0 (Telemetry.Histogram.percentile h 0.5);
  (* 90 fast samples (10 ns: bucket [8,16)) and 10 slow ones
     (1000 ns: bucket [512,1024)) *)
  for _ = 1 to 90 do
    Telemetry.Histogram.add h 10
  done;
  for _ = 1 to 10 do
    Telemetry.Histogram.add h 1000
  done;
  Alcotest.(check int) "total" 100 (Telemetry.Histogram.total h);
  Alcotest.(check int) "p50 is the fast bucket's upper bound" 16
    (Telemetry.Histogram.percentile h 0.50);
  Alcotest.(check int) "p90 still fast" 16
    (Telemetry.Histogram.percentile h 0.90);
  Alcotest.(check int) "p99 lands in the slow bucket" 1024
    (Telemetry.Histogram.percentile h 0.99);
  Alcotest.(check int) "p100 = p99 bucket here" 1024
    (Telemetry.Histogram.percentile h 1.0)

let test_histogram_single_value () =
  let h = Telemetry.Histogram.create () in
  Telemetry.Histogram.add h 100;
  (* 100 ns sits in bucket [64,128): every quantile reports 128 *)
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "q=%.2f" q)
        128
        (Telemetry.Histogram.percentile h q))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_histogram_bucket_edges () =
  let open Telemetry.Histogram in
  (* 1 ns lands in the first bucket, upper bound 2 *)
  Alcotest.(check int) "bucket_of 1" 0 (bucket_of 1);
  Alcotest.(check int) "upper of bucket(1)" 2 (bucket_upper (bucket_of 1));
  (* an exact power of two opens a fresh bucket: 2 -> [2,4) *)
  Alcotest.(check int) "bucket_of 2" 1 (bucket_of 2);
  Alcotest.(check int) "upper of bucket(2)" 4 (bucket_upper (bucket_of 2));
  Alcotest.(check int) "upper of bucket(2^40)" (1 lsl 41)
    (bucket_upper (bucket_of (1 lsl 40)));
  (* max_int clamps into the last bucket instead of running off the end *)
  Alcotest.(check int) "max_int clamps to last bucket" 47 (bucket_of max_int);
  Alcotest.(check int) "last bucket upper" (1 lsl 48)
    (bucket_upper (bucket_of max_int));
  (* percentile agrees with the bucket math at both edges *)
  let h = create () in
  add h 1;
  Alcotest.(check int) "p100 of {1}" 2 (percentile h 1.0);
  let h2 = create () in
  add h2 max_int;
  Alcotest.(check int) "p50 of {max_int}" (1 lsl 48) (percentile h2 0.5)

let test_long_span_percentile_clamp () =
  (* Regression: a single long stage span (a multi-second campaign) used
     to report its percentile as the log2-bucket upper bound — e.g. a
     13.35 s span answered p50 = 2^34 ns, and a ~3 s one answered the
     infamous 4294967296 (2^32). stage_timings now clamps every
     percentile to the observed max. *)
  let t = Telemetry.create () in
  let thirteen_s = 13_350_000_000 in
  Telemetry.record_stage t ~stage:"campaign" thirteen_s;
  (match Telemetry.stage_timings t with
   | [ s ] ->
     Alcotest.(check int) "max is the sample" thirteen_s s.Telemetry.max_ns;
     Alcotest.(check int) "p50 clamped to max" thirteen_s s.Telemetry.p50_ns;
     Alcotest.(check int) "p90 clamped to max" thirteen_s s.Telemetry.p90_ns;
     Alcotest.(check int) "p99 clamped to max" thirteen_s s.Telemetry.p99_ns
   | l -> Alcotest.failf "expected one stage, got %d" (List.length l));
  (* mixed spans: the clamp caps at the max without disturbing
     percentiles that already sit below it *)
  let t2 = Telemetry.create () in
  Telemetry.record_stage t2 ~stage:"campaign" 3_000_000_000;
  Telemetry.record_stage t2 ~stage:"campaign" 5_000_000_000;
  (match Telemetry.stage_timings t2 with
   | [ s ] ->
     (* 3 s sits in bucket [2^31, 2^32): its upper bound is below the
        5 s max, so p50 keeps the histogram estimate *)
     Alcotest.(check int) "p50 keeps bucket estimate" 4_294_967_296
       s.Telemetry.p50_ns;
     Alcotest.(check int) "p99 clamped to max" 5_000_000_000
       s.Telemetry.p99_ns
   | l -> Alcotest.failf "expected one stage, got %d" (List.length l))

(* parse one rendered JSONL line back and check it is an object holding
   exactly [fields], in any order — decoded with the generic accessors,
   so the encoders stay covered without a decoder of their own *)
let check_line line fields =
  match Json.of_string line with
  | Error e -> Alcotest.failf "line unparseable (%s): %s" e line
  | Ok (Json.Obj kvs as j) ->
    Alcotest.(check (list string))
      (Printf.sprintf "keys of %s" line)
      (List.sort compare (List.map fst fields))
      (List.sort compare (List.map fst kvs));
    List.iter
      (fun (k, v) ->
        match v with
        | Json.Str s ->
          Alcotest.(check (option string)) k (Some s) (Json.str_member k j)
        | Json.Int n ->
          Alcotest.(check (option int)) k (Some n) (Json.int_member k j)
        | Json.Float f ->
          (* floats render with 12 significant digits *)
          (match Json.member k j with
           | Some (Json.Float g) ->
             Alcotest.(check bool) k true
               (Float.abs (f -. g) <= 1e-9 *. Float.abs f)
           | _ -> Alcotest.failf "%s is not a float in %s" k line)
        | v ->
          Alcotest.(check bool) k true (Json.member k j = Some v))
      fields
  | Ok _ -> Alcotest.failf "line is not an object: %s" line

let test_verdict_class_roundtrip () =
  (* every class renders under its own name in a verdict event *)
  let names =
    List.map
      (fun c ->
        let name = Telemetry.verdict_class_to_string c in
        check_line
          (Json.to_string
             (Telemetry.event_to_json
                (Telemetry.Verdict
                   { dialect = "mysql"; pattern = "P1.1"; verdict = c;
                     case_number = 3; ts_ns = 4 })))
          [
            ("ev", Json.Str "verdict"); ("dialect", Json.Str "mysql");
            ("pattern", Json.Str "P1.1"); ("verdict", Json.Str name);
            ("case", Json.Int 3); ("ts_ns", Json.Int 4);
          ];
        name)
      Telemetry.verdict_classes
  in
  Alcotest.(check (list string)) "six distinct names"
    [ "clean_error"; "dup_bug"; "false_positive"; "known_crash"; "new_bug";
      "passed" ]
    (List.sort_uniq compare names)

(* ----- JSONL event round-trip ----- *)

(* each sample event with the fields its JSONL line must carry; empty
   dialect/pattern attributes are omitted *)
let sample_events =
  [
    ( Telemetry.Span_open
        { stage = "execute"; dialect = "mysql"; pattern = "P1.2"; depth = 2;
          ts_ns = 123 },
      [ ("ev", Json.Str "span_open"); ("stage", Json.Str "execute");
        ("dialect", Json.Str "mysql"); ("pattern", Json.Str "P1.2");
        ("depth", Json.Int 2); ("ts_ns", Json.Int 123) ] );
    ( Telemetry.Span_close
        { stage = "execute"; dialect = "mysql"; pattern = "P1.2"; depth = 2;
          ts_ns = 456; dur_ns = 333 },
      [ ("ev", Json.Str "span_close"); ("stage", Json.Str "execute");
        ("dialect", Json.Str "mysql"); ("pattern", Json.Str "P1.2");
        ("depth", Json.Int 2); ("ts_ns", Json.Int 456);
        ("dur_ns", Json.Int 333) ] );
    ( Telemetry.Span_open
        { stage = "collect"; dialect = ""; pattern = ""; depth = 0; ts_ns = 1 },
      [ ("ev", Json.Str "span_open"); ("stage", Json.Str "collect");
        ("depth", Json.Int 0); ("ts_ns", Json.Int 1) ] );
    ( Telemetry.Verdict
        { dialect = "mariadb"; pattern = "seed";
          verdict = Telemetry.Clean_error; case_number = 41; ts_ns = 99 },
      [ ("ev", Json.Str "verdict"); ("dialect", Json.Str "mariadb");
        ("pattern", Json.Str "seed"); ("verdict", Json.Str "clean_error");
        ("case", Json.Int 41); ("ts_ns", Json.Int 99) ] );
    ( Telemetry.Bug_found
        { dialect = "duckdb"; site = "json/depth"; kind = "SIGSEGV";
          pattern = "P3.2"; case_number = 7; ts_ns = 1000 },
      [ ("ev", Json.Str "bug_found"); ("dialect", Json.Str "duckdb");
        ("pattern", Json.Str "P3.2"); ("site", Json.Str "json/depth");
        ("kind", Json.Str "SIGSEGV"); ("case", Json.Int 7);
        ("ts_ns", Json.Int 1000) ] );
    ( Telemetry.Fp_signature
        { dialect = "monetdb"; signature = "limit hit after # steps";
          ts_ns = 5 },
      [ ("ev", Json.Str "fp_signature"); ("dialect", Json.Str "monetdb");
        ("signature", Json.Str "limit hit after # steps");
        ("ts_ns", Json.Int 5) ] );
  ]

let test_event_jsonl_roundtrip () =
  (* serialize as JSONL, parse each line back, check every field *)
  List.iter
    (fun (ev, fields) ->
      let line = Json.to_string (Telemetry.event_to_json ev) in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      check_line line fields)
    sample_events

let test_verdict_counters () =
  let t = Telemetry.create () in
  let count ~dialect ~pattern ~case_number verdict =
    Telemetry.count_verdict_row t
      (Telemetry.verdict_counter t ~dialect ~pattern)
      ~dialect ~pattern ~case_number verdict
  in
  count ~dialect:"mysql" ~pattern:"P1.1" ~case_number:1 Telemetry.Passed;
  count ~dialect:"mysql" ~pattern:"P1.1" ~case_number:2 Telemetry.Passed;
  count ~dialect:"mysql" ~pattern:"P2.1" ~case_number:3 Telemetry.New_bug;
  count ~dialect:"duckdb" ~pattern:"P1.1" ~case_number:4 Telemetry.Known_crash;
  match Telemetry.verdict_rows t with
  | [ r1; r2; r3 ] ->
    (* sorted by dialect then pattern *)
    Alcotest.(check string) "duckdb first" "duckdb" r1.Telemetry.dialect;
    Alcotest.(check string) "mysql P1.1" "P1.1" r2.Telemetry.pattern;
    Alcotest.(check int) "two passes" 2
      (List.assoc Telemetry.Passed r2.Telemetry.by_class);
    Alcotest.(check int) "zero crashes on mysql P1.1" 0
      (List.assoc Telemetry.Known_crash r2.Telemetry.by_class);
    Alcotest.(check int) "one new bug" 1
      (List.assoc Telemetry.New_bug r3.Telemetry.by_class)
  | l -> Alcotest.failf "expected 3 rows, got %d" (List.length l)

(* ----- determinism: sink on vs off must not change verdicts ----- *)

(* The ["execute"] stage's call count. *)
let execute_calls (r : Soft.Soft_runner.result) =
  match
    List.find_opt
      (fun s -> s.Telemetry.stage = "execute")
      r.Soft.Soft_runner.timings
  with
  | Some s -> s.Telemetry.calls
  | None -> 0

let test_fuzz_determinism_with_sink () =
  let prof = Dialect.find_exn "mariadb" in
  let off = Soft.Soft_runner.fuzz ~budget:600 prof in
  let sink, events = Telemetry.memory_sink () in
  let tel = Telemetry.create ~sink () in
  let on = Soft.Soft_runner.fuzz ~budget:600 ~telemetry:tel prof in
  Alcotest.(check int) "cases" off.Soft.Soft_runner.cases_executed
    on.Soft.Soft_runner.cases_executed;
  Alcotest.(check int) "passed" off.Soft.Soft_runner.passed
    on.Soft.Soft_runner.passed;
  Alcotest.(check int) "clean errors" off.Soft.Soft_runner.clean_errors
    on.Soft.Soft_runner.clean_errors;
  Alcotest.(check int) "false positives" off.Soft.Soft_runner.false_positives
    on.Soft.Soft_runner.false_positives;
  Alcotest.(check int) "unique false positives"
    off.Soft.Soft_runner.unique_false_positives
    on.Soft.Soft_runner.unique_false_positives;
  Alcotest.(check int) "known crashes" off.Soft.Soft_runner.known_crashes
    on.Soft.Soft_runner.known_crashes;
  Alcotest.(check (list string)) "fp signatures"
    off.Soft.Soft_runner.fp_signatures on.Soft.Soft_runner.fp_signatures;
  let sites r =
    List.map
      (fun (b : Soft.Detector.found_bug) ->
        b.Soft.Detector.spec.Sqlfun_fault.Fault.site)
      r.Soft.Soft_runner.bugs
  in
  Alcotest.(check (list string)) "bug sites" (sites off) (sites on);
  Alcotest.(check int) "functions triggered"
    off.Soft.Soft_runner.functions_triggered
    on.Soft.Soft_runner.functions_triggered;
  Alcotest.(check int) "branches covered"
    off.Soft.Soft_runner.branches_covered on.Soft.Soft_runner.branches_covered;
  (* the traced run streamed real events: at least one span per stage *)
  let evs = events () in
  let has_stage stage =
    List.exists
      (function
        | Telemetry.Span_open { stage = s; _ } -> s = stage
        | _ -> false)
      evs
  in
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        (Printf.sprintf "trace has a %s span" stage)
        true (has_stage stage))
    [ "campaign"; "collect"; "seed-replay"; "generate"; "execute";
      "restart-after-crash" ];
  (* and the sink-off run still aggregated timings for the hot stages *)
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        (Printf.sprintf "timings include %s" stage)
        true
        (List.exists
           (fun s -> s.Telemetry.stage = stage)
           off.Soft.Soft_runner.timings))
    [ "campaign"; "collect"; "seed-replay"; "generate"; "execute" ];
  (* the executor contract: verdict bookkeeping is part of the execute
     stage, whose span count does not depend on the shard count (see
     [test_execute_span_per_item] for what it counts), and every case is
     attributed to the detector-classify phase *)
  Alcotest.(check bool) "no detect stage" false
    (has_stage "detect"
     || List.exists
          (fun s -> s.Telemetry.stage = "detect")
          off.Soft.Soft_runner.timings);
  Alcotest.(check int) "execute spans at 2 shards" (execute_calls off)
    (execute_calls (Soft.Soft_runner.fuzz ~budget:600 ~shards:2 prof));
  let classified =
    List.fold_left
      (fun acc (r : Profile.row) ->
        if r.Profile.r_func = "" && r.Profile.r_phase = Profile.Classify then
          acc + r.Profile.r_count
        else acc)
      0
      (Profile.rows off.Soft.Soft_runner.profile)
  in
  Alcotest.(check int) "every case classified under the root key"
    off.Soft.Soft_runner.cases_executed classified

let test_execute_span_per_item () =
  (* an exhaustive campaign runs one work item per seed, per pattern
     family and per scenario, and opens one execute span for each: the
     counts come from the [Patterns] streams themselves, not from
     anything the detector records *)
  let prof = Dialect.find_exn "monetdb" in
  let r = Soft.Soft_runner.fuzz ~jobs:1 ~shards:1 prof in
  let registry = Dialect.registry prof in
  let seeds = Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds () in
  let donors = Soft.Collector.donors seeds in
  let count (items, members) (f : Soft.Patterns.family) =
    (items + 1, members + List.length f.Soft.Patterns.f_members)
  in
  let families, members =
    List.fold_left
      (fun acc p ->
        Seq.fold_left count acc
          (Soft.Patterns.families ~registry ~seeds ~donors p))
      (0, 0) Sqlfun_fault.Pattern_id.all
  in
  let scenarios, scenario_members =
    Seq.fold_left count (0, 0)
      (Soft.Patterns.scenario_families ~registry ~donors ())
  in
  let n_seeds = List.length seeds in
  Alcotest.(check int) "seeds collected" n_seeds
    r.Soft.Soft_runner.seeds_collected;
  Alcotest.(check int) "scenarios are one-member families" scenarios
    scenario_members;
  Alcotest.(check int) "scenarios executed" scenarios
    r.Soft.Soft_runner.scenarios_executed;
  Alcotest.(check int) "one case per seed and family member"
    (n_seeds + members + scenarios)
    r.Soft.Soft_runner.cases_executed;
  Alcotest.(check int) "one execute span per work item"
    (n_seeds + families + scenarios)
    (execute_calls r)

(* ----- snapshot artifacts ----- *)

let test_campaign_snapshot_json () =
  let prof = Dialect.find_exn "mysql" in
  let r = Soft.Soft_runner.fuzz ~budget:400 prof in
  let j = Soft.Report.campaign_to_json r in
  (* must survive a print/parse cycle and keep the headline numbers *)
  match Json.of_string (Json.to_string j) with
  | Error e -> Alcotest.failf "snapshot unparseable: %s" e
  | Ok j ->
    Alcotest.(check (option string)) "schema" (Some "soft-telemetry/2")
      (Json.str_member "schema" j);
    Alcotest.(check (option string)) "dialect" (Some "mysql")
      (Json.str_member "dialect" j);
    let totals = Option.get (Json.member "totals" j) in
    Alcotest.(check (option int)) "cases"
      (Some r.Soft.Soft_runner.cases_executed)
      (Json.int_member "cases_executed" totals);
    (match Json.member "stages" j with
     | Some (Json.Arr (_ :: _)) -> ()
     | _ -> Alcotest.fail "stages missing or empty");
    (match Json.member "families" j with
     | Some (Json.Arr rows) ->
       Alcotest.(check bool) "has family rollup rows" true (rows <> [])
     | _ -> Alcotest.fail "families missing");
    (match Json.member "coverage" j with
     | Some cov ->
       Alcotest.(check (option int)) "coverage distinct"
         (Some r.Soft.Soft_runner.branches_covered)
         (Json.int_member "distinct" cov)
     | None -> Alcotest.fail "coverage missing")

let test_coverage_to_json () =
  let cov = Sqlfun_coverage.Coverage.create () in
  Sqlfun_coverage.Coverage.hit cov "fn/UPPER";
  Sqlfun_coverage.Coverage.hit cov "fn/UPPER";
  Sqlfun_coverage.Coverage.hit cov "cast/int";
  let j = Sqlfun_coverage.Coverage.to_json cov in
  Alcotest.(check (option int)) "distinct" (Some 2) (Json.int_member "distinct" j);
  Alcotest.(check (option int)) "total hits" (Some 3)
    (Json.int_member "total_hits" j);
  match Json.member "points" j with
  | Some points ->
    Alcotest.(check (option int)) "UPPER hits" (Some 2)
      (Json.int_member "fn/UPPER" points);
    Alcotest.(check (option int)) "cast hits" (Some 1)
      (Json.int_member "cast/int" points)
  | None -> Alcotest.fail "points missing"

(* ----- execute-stage attribution profiler ----- *)

(* burn enough cycles that a scope's duration is visibly nonzero *)
let spin () =
  let x = ref 0 in
  for i = 1 to 20_000 do
    x := !x + i
  done;
  ignore (Sys.opaque_identity !x)

let find_row rows func phase =
  match
    List.find_opt
      (fun (r : Profile.row) -> r.Profile.r_func = func && r.Profile.r_phase = phase)
      rows
  with
  | Some r -> r
  | None ->
    Alcotest.failf "no row for %S/%s" func (Profile.phase_to_string phase)

let test_profile_self_vs_children () =
  let p = Profile.create () in
  Profile.set_dialect p "mysql";
  (* root (other) > UPPER eval > storage scan; the scan inherits the
     enclosing function *)
  Profile.enter p Profile.Other;
  Profile.enter_fn p "UPPER" Profile.Eval;
  spin ();
  Profile.enter p Profile.Storage;
  spin ();
  Profile.exit p;
  Profile.exit p;
  Profile.exit p;
  Alcotest.(check int) "all scopes closed" 0 (Profile.depth p);
  let rows = Profile.rows p in
  let eval = find_row rows "UPPER" Profile.Eval in
  let storage = find_row rows "UPPER" Profile.Storage in
  let root = find_row rows "" Profile.Other in
  Alcotest.(check string) "dialect attributed" "mysql" eval.Profile.r_dialect;
  List.iter
    (fun (r : Profile.row) ->
      Alcotest.(check int) "each scope entered once" 1 r.Profile.r_count;
      Alcotest.(check bool) "self-time nonnegative" true (r.Profile.r_self_ns >= 0);
      Alcotest.(check int) "count=1 so max = self" r.Profile.r_self_ns
        r.Profile.r_max_ns)
    [ eval; storage; root ];
  Alcotest.(check bool) "spun scopes accumulated time" true
    (eval.Profile.r_self_ns > 0 && storage.Profile.r_self_ns > 0);
  (* self-accounting: the named phases and the root's leftover are
     exactly the attributed/other split the attribution ratio reports *)
  Alcotest.(check int) "attributed = eval self + storage self"
    (eval.Profile.r_self_ns + storage.Profile.r_self_ns)
    (Profile.attributed_ns p);
  Alcotest.(check int) "other = root self" root.Profile.r_self_ns
    (Profile.other_ns p)

let test_profile_exit_on_exception () =
  let p = Profile.create () in
  Profile.set_dialect p "mysql";
  (try
     Profile.with_fn p "REPEAT" Profile.Eval (fun () -> failwith "boom")
     |> ignore
   with Failure _ -> ());
  Alcotest.(check int) "scope unwound" 0 (Profile.depth p);
  let r = find_row (Profile.rows p) "REPEAT" Profile.Eval in
  Alcotest.(check int) "charge recorded" 1 r.Profile.r_count

let test_profile_merge () =
  let mk () =
    let p = Profile.create () in
    Profile.set_dialect p "mysql";
    Profile.with_fn p "UPPER" Profile.Eval spin;
    p
  in
  let a = mk () and b = mk () in
  Profile.with_fn b "LOWER" Profile.Eval spin;
  let a_self = (find_row (Profile.rows a) "UPPER" Profile.Eval).Profile.r_self_ns
  and b_self = (find_row (Profile.rows b) "UPPER" Profile.Eval).Profile.r_self_ns in
  Profile.merge_into ~dst:a b;
  let merged = find_row (Profile.rows a) "UPPER" Profile.Eval in
  Alcotest.(check int) "counts add" 2 merged.Profile.r_count;
  Alcotest.(check int) "totals add" (a_self + b_self) merged.Profile.r_self_ns;
  Alcotest.(check int) "maxes take the max" (max a_self b_self)
    merged.Profile.r_max_ns;
  Alcotest.(check int) "disjoint keys union" 1
    (find_row (Profile.rows a) "LOWER" Profile.Eval).Profile.r_count

let test_profile_folded_format () =
  let p = Profile.create () in
  Profile.set_dialect p "mysql";
  Profile.enter p Profile.Other;
  Profile.with_fn p "UPPER" Profile.Eval spin;
  spin ();
  Profile.exit p;
  let lines = Profile.folded_lines p in
  Alcotest.(check bool) "emits stacks" true (lines <> []);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ stack; count ] ->
        Alcotest.(check bool)
          (Printf.sprintf "weight numeric: %s" line)
          true
          (int_of_string_opt count <> None);
        (match String.split_on_char ';' stack with
         | [ "soft"; "mysql"; func; phase ] ->
           Alcotest.(check bool) "func frame nonempty" true (func <> "");
           Alcotest.(check bool)
             (Printf.sprintf "phase known: %s" phase)
             true
             (Profile.phase_of_string phase <> None)
         | frames ->
           Alcotest.failf "expected 4 frames, got %d in %s"
             (List.length frames) line)
      | _ -> Alcotest.failf "not 'stack weight': %s" line)
    lines;
  (* the anonymous root renders as "-" *)
  Alcotest.(check bool) "root frame renders as -" true
    (List.exists
       (fun l -> String.length l >= 12 && String.sub l 0 12 = "soft;mysql;-")
       lines)

let test_profile_case_sampling () =
  (* inside a campaign case only sampled cases read the clock: a timed
     case's scope adds sample_period times its measured self-time and
     keeps the measured value as its max; an untimed case's scope adds
     its count and no time; outside a case a scope is timed exactly *)
  let first p = Option.get (Seq.find p (Seq.ints 1)) in
  let timed = first Profile.timed_case
  and untimed = first (fun n -> not (Profile.timed_case n)) in
  let p = Profile.create () in
  Profile.set_dialect p "mysql";
  Profile.begin_case p timed;
  Profile.with_fn p "UPPER" Profile.Eval spin;
  Profile.end_case p;
  let upper = find_row (Profile.rows p) "UPPER" Profile.Eval in
  Alcotest.(check int) "timed scope counted" 1 upper.Profile.r_count;
  Alcotest.(check bool) "timed scope measured" true (upper.Profile.r_max_ns > 0);
  Alcotest.(check int) "timed self = 16 x measured max"
    (Profile.sample_period * upper.Profile.r_max_ns)
    upper.Profile.r_self_ns;
  Profile.begin_case p untimed;
  Profile.with_fn p "UPPER" Profile.Eval spin;
  Profile.with_fn p "LOWER" Profile.Eval spin;
  Profile.end_case p;
  let rows = Profile.rows p in
  let upper' = find_row rows "UPPER" Profile.Eval
  and lower = find_row rows "LOWER" Profile.Eval in
  Alcotest.(check int) "untimed scope counted" 2 upper'.Profile.r_count;
  Alcotest.(check int) "untimed scope adds no time" upper.Profile.r_self_ns
    upper'.Profile.r_self_ns;
  Alcotest.(check int) "untimed max unchanged" upper.Profile.r_max_ns
    upper'.Profile.r_max_ns;
  Alcotest.(check (pair int int)) "untimed-only key: count, no time" (1, 0)
    (lower.Profile.r_count, lower.Profile.r_self_ns);
  Alcotest.(check int) "one case timed" 1 (Profile.timed_cases p);
  (match Json.member "timed_cases" (Profile.to_json p) with
   | Some (Json.Int n) -> Alcotest.(check int) "json timed_cases" 1 n
   | _ -> Alcotest.fail "timed_cases missing from json");
  Profile.with_fn p "LOWER" Profile.Eval spin;
  let lower = find_row (Profile.rows p) "LOWER" Profile.Eval in
  Alcotest.(check bool) "outside a case: timed exactly, self = max" true
    (lower.Profile.r_self_ns > 0
    && lower.Profile.r_self_ns = lower.Profile.r_max_ns);
  (* one number in 16 is timed, on every residue of a family's member
     index alike *)
  let timed_in f = Seq.length (Seq.filter f (Seq.take 16_000 (Seq.ints 1))) in
  Alcotest.(check int) "1000 of 16000 timed" 1000 (timed_in Profile.timed_case);
  for r = 0 to 15 do
    let k = timed_in (fun n -> n mod 16 = r && Profile.timed_case n) in
    Alcotest.(check bool)
      (Printf.sprintf "residue %d: %d of 1000 timed" r k)
      true
      (k >= 50 && k <= 75)
  done

let test_profile_attribution_on_fuzz () =
  (* the acceptance bar: >= 95% of profiled engine time charged to named
     keys on a real campaign, mysql's first 20000 cases. Only one case
     in 16 is timed and a timed slice counts 16 times, so the campaign
     runs 16 times into one profiler: its 1,265 timed cases are
     measured 16 times over, ~100 ms of engine time, about what every
     case of one unsampled campaign gave, so one descheduled slice
     weighs about as much against the bar as it did then. (Exhaustive
     campaigns read 0.92-0.95 with or without sampling; the bar is
     kept on the prefix it was set on.)
     The earlier tests' garbage is collected first, so its marking
     does not land in these campaigns' scopes. *)
  let prof = Dialect.find_exn "mysql" in
  Gc.full_major ();
  let p = Profile.create () in
  for _ = 1 to Profile.sample_period do
    let r = Soft.Soft_runner.fuzz ~budget:20000 prof in
    Profile.merge_into ~dst:p r.Soft.Soft_runner.profile
  done;
  Alcotest.(check bool) "profiler saw the campaign" true (Profile.rows p <> []);
  Printf.printf "%d cases timed, %.1f ms of engine time measured\n"
    (Profile.timed_cases p)
    (float_of_int (Profile.attributed_ns p + Profile.other_ns p)
    /. float_of_int Profile.sample_period /. 1e6);
  let a = Profile.attribution p in
  Alcotest.(check bool)
    (Printf.sprintf "attribution %.4f >= 0.95" a)
    true (a >= 0.95);
  (* the JSON artifact carries the ratio and a bounded hottest table *)
  let j = Profile.to_json ~top:10 p in
  (match Json.member "attribution" j with
   | Some (Json.Float f) ->
     Alcotest.(check bool) "json ratio matches" true
       (Float.abs (f -. a) < 1e-9)
   | _ -> Alcotest.fail "attribution missing from json");
  match Json.member "hottest" j with
  | Some (Json.Arr rows) ->
    Alcotest.(check bool) "hottest bounded" true
      (List.length rows <= 10 && rows <> [])
  | _ -> Alcotest.fail "hottest missing from json"

(* ----- timeseries snapshots ----- *)

let null_probe branches =
  {
    Timeseries.p_branches = branches;
    p_functions = (fun () -> 1);
    p_new_bugs = (fun () -> 0);
    p_dup_bugs = (fun () -> 0);
    p_shard_cases = (fun () -> [||]);
  }

let test_timeseries_cadence () =
  let snaps = ref [] in
  let cfg =
    {
      Timeseries.every_cases = 2;
      every_ms = 0;
      emit = (fun s -> snaps := s :: !snaps);
    }
  in
  let b = ref 0 in
  let rec_ = Timeseries.recorder cfg ~shard:3 (null_probe (fun () -> !b)) in
  for i = 1 to 5 do
    b := i * 10;
    Timeseries.tick rec_
  done;
  Timeseries.finalize rec_;
  match List.rev !snaps with
  | [ s1; s2; s3 ] ->
    Alcotest.(check int) "first fires at 2 cases" 2 s1.Timeseries.cases;
    Alcotest.(check int) "first delta" 2 s1.Timeseries.delta_cases;
    Alcotest.(check int) "seq 0" 0 s1.Timeseries.seq;
    Alcotest.(check int) "shard tag" 3 s1.Timeseries.shard;
    Alcotest.(check bool) "periodic not final" false s1.Timeseries.final;
    Alcotest.(check int) "probe read at fire time" 20 s1.Timeseries.branches;
    Alcotest.(check int) "second at 4" 4 s2.Timeseries.cases;
    Alcotest.(check int) "second delta" 2 s2.Timeseries.delta_cases;
    Alcotest.(check int) "seq 1" 1 s2.Timeseries.seq;
    Alcotest.(check int) "probe again" 40 s2.Timeseries.branches;
    Alcotest.(check bool) "finalize is final" true s3.Timeseries.final;
    Alcotest.(check int) "final carries the tail" 5 s3.Timeseries.cases;
    Alcotest.(check int) "final delta" 1 s3.Timeseries.delta_cases;
    Alcotest.(check int) "final branches" 50 s3.Timeseries.branches
  | l -> Alcotest.failf "expected 3 snapshots, got %d" (List.length l)

let test_timeseries_snapshot_roundtrip () =
  let snaps = ref [] in
  let cfg =
    {
      Timeseries.every_cases = 0;
      every_ms = 0;
      emit = (fun s -> snaps := s :: !snaps);
    }
  in
  let s =
    Timeseries.campaign_final cfg ~elapsed_ns:7_000_000 ~cases:123 ~branches:45
      ~functions:6 ~new_bugs:2 ~dup_bugs:3 ~shard_cases:[| 60; 63 |]
  in
  Alcotest.(check int) "campaign-final shard tag" (-1) s.Timeseries.shard;
  Alcotest.(check bool) "campaign-final is final" true s.Timeseries.final;
  Alcotest.(check int) "emitted once" 1 (List.length !snaps);
  check_line
    (Json.to_string (Timeseries.snapshot_to_json s))
    [
      ("kind", Json.Str "snapshot"); ("shard", Json.Int (-1));
      ("seq", Json.Int 0); ("final", Json.Bool true); ("cases", Json.Int 123);
      ("delta_cases", Json.Int 123); ("elapsed_ns", Json.Int 7_000_000);
      ("delta_ns", Json.Int 7_000_000);
      ("cases_per_s", Json.Float s.Timeseries.cases_per_s);
      ("branches", Json.Int 45); ("functions", Json.Int 6);
      ("new_bugs", Json.Int 2); ("dup_bugs", Json.Int 3);
      ("shard_cases", Json.Arr [ Json.Int 60; Json.Int 63 ]);
    ];
  Alcotest.(check (float 1e-9)) "rate over the whole campaign"
    (123. /. 0.007) s.Timeseries.cases_per_s

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
      Alcotest.test_case "span nesting and aggregation" `Quick
        test_span_nesting_and_aggregation;
      Alcotest.test_case "span closes on exception" `Quick
        test_span_closes_on_exception;
      Alcotest.test_case "time_seq" `Quick test_time_seq;
      Alcotest.test_case "histogram percentiles" `Quick
        test_histogram_percentiles;
      Alcotest.test_case "histogram single value" `Quick
        test_histogram_single_value;
      Alcotest.test_case "histogram bucket edges" `Quick
        test_histogram_bucket_edges;
      Alcotest.test_case "long-span percentile clamp" `Quick
        test_long_span_percentile_clamp;
      Alcotest.test_case "verdict class round-trip" `Quick
        test_verdict_class_roundtrip;
      Alcotest.test_case "event jsonl round-trip" `Quick
        test_event_jsonl_roundtrip;
      Alcotest.test_case "verdict counters" `Quick test_verdict_counters;
      Alcotest.test_case "fuzz determinism with sink" `Quick
        test_fuzz_determinism_with_sink;
      Alcotest.test_case "one execute span per work item" `Quick
        test_execute_span_per_item;
      Alcotest.test_case "campaign snapshot json" `Quick
        test_campaign_snapshot_json;
      Alcotest.test_case "coverage to_json" `Quick test_coverage_to_json;
      Alcotest.test_case "profile self vs children" `Quick
        test_profile_self_vs_children;
      Alcotest.test_case "profile exit on exception" `Quick
        test_profile_exit_on_exception;
      Alcotest.test_case "profile merge" `Quick test_profile_merge;
      Alcotest.test_case "profile folded format" `Quick
        test_profile_folded_format;
      Alcotest.test_case "profile case sampling" `Quick
        test_profile_case_sampling;
      Alcotest.test_case "profile attribution on fuzz" `Quick
        test_profile_attribution_on_fuzz;
      Alcotest.test_case "timeseries cadence" `Quick test_timeseries_cadence;
      Alcotest.test_case "timeseries snapshot round-trip" `Quick
        test_timeseries_snapshot_roundtrip;
    ] )
