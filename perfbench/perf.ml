(** Performance benchmark of the SOFT campaign pipeline.

    A workload is the seven dialect campaigns, each run exhaustively
    through [Soft_runner.fuzz], back to back in one process: a closed
    loop with one client. The program sees only the dialect profiles;
    the seed permutes their [SELECT] seed statements.

    {v
    perf.exe --workload W --seed N --seconds S --trace 0|1
    perf.exe [--seed N] [--seconds S] [--out FILE]
    v}

    The first form runs one workload in this process. With [--trace 0]
    it measures set-up first. It then discards a warm-up rep and starts
    timed reps for as long as the next one is expected to end within
    [S] seconds of the process start; one timed rep always runs. With
    [--trace 0] it reports the end-to-end metrics, with [--trace 1] the
    per-layer metrics, read from the stage timings, profiles and
    counters each campaign records. Its last stdout line is one JSON
    object with the keys [correct], [attempted], [failed] and
    [metrics]. The second form runs every workload, both passes, each
    in its own child process, and collects those lines into [--out].
    Both forms exit non-zero when an output check fails. *)

open Sqlfun_fault
open Sqlfun_dialects
open Soft
module Coverage = Sqlfun_coverage.Coverage
module Telemetry = Sqlfun_telemetry.Telemetry
module Profile = Sqlfun_telemetry.Profile

let schema_version = 1
let now = Telemetry.now_ns
let secs ns = float_of_int ns /. 1e9
let ratio a b = if b = 0. then 0. else a /. b

(* ----- workloads ----- *)

(* What one rep must produce. The digest covers verdict totals, sorted
   bug sites and coverage point sets, none of which the seed moves. *)
type expected = { cases : int; bugs : int; digest : string }

type workload = {
  name : string;
  patterns : Pattern_id.t list;
  stateful : bool;
  shards : int;  (* also the number of worker domains *)
  whole_ledger : bool;  (* every ledger and staged site must be found *)
  full : expected;  (* exhaustive, any seed *)
}

(* [sweep] is the run users make. [skeleton] sends ~97% of its cases
   through run_batch and the plan cache and leaves the interpreter,
   memo and storage nearly idle. [stateful] runs only the scenario
   stream: writes beside reads, with batches and the plan cache
   bypassed. [sharded] is [sweep] on two shards and two worker domains,
   the only workload that runs Pool, Chunk_queue and the shard merge. *)
let workloads =
  let sweep =
    {
      name = "sweep";
      patterns = Pattern_id.all;
      stateful = true;
      shards = 1;
      whole_ledger = true;
      full =
        { cases = 1_354_768; bugs = 146; digest = "80b367d84ac08de9ace42afa9d6ab60a" };
    }
  in
  [
    sweep;
    {
      sweep with
      name = "skeleton";
      patterns = List.filter Pattern_id.shares_skeleton Pattern_id.all;
      stateful = false;
      whole_ledger = false;
      full =
        { cases = 380_357; bugs = 84; digest = "a5bb8b83b4bfecfe34e3abef714c1205" };
    };
    {
      sweep with
      name = "stateful";
      patterns = [];
      whole_ledger = false;
      full =
        { cases = 119_996; bugs = 38; digest = "4cfe2cc24debf471d1e1b20bd3a286d7" };
    };
    { sweep with name = "sharded"; shards = 2 };
  ]

(* Set-up is a campaign with nothing to generate: registry, collect,
   engine arming, seed replay and the end-of-campaign position count.
   Every workload replays the same seed statements. *)
let setup_expected =
  { cases = 1_550; bugs = 0; digest = "10960eb54883bf02ede0753cc17b42d0" }
let setup_reps = 15

let is_select sql =
  let s = String.trim sql in
  String.length s >= 6 && String.uppercase_ascii (String.sub s 0 6) = "SELECT"

(* Seed 0 is the canonical corpus. Seed n > 0 shuffles each dialect's
   SELECT seeds (Fisher-Yates) and leaves the CREATE/INSERT statements
   in place and in order. That moves case order, plan-cache admission
   and bug case numbers, but not verdict totals, sites or coverage. *)
let seeded_profiles seed =
  List.map
    (fun (p : Dialect.profile) ->
      if seed = 0 then p
      else begin
        let rng = Random.State.make [| seed |] in
        let sel = Array.of_list (List.filter is_select p.seeds) in
        for i = Array.length sel - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = sel.(i) in
          sel.(i) <- sel.(j);
          sel.(j) <- t
        done;
        let k = ref (-1) in
        let pick s = if is_select s then (incr k; sel.(!k)) else s in
        { p with seeds = List.map pick p.seeds }
      end)
    Dialect.all

(* ----- output checks ----- *)

type campaign = {
  c_cases : int;
  c_bugs : int;
  c_last_bug : int;  (* largest case number among found bugs *)
  c_digest : string;
  c_errors : string list;
}

let summarize ~ledger (r : Soft_runner.result) =
  let dialect = r.dialect.id in
  let sites =
    List.sort String.compare
      (List.map (fun (b : Detector.found_bug) -> b.spec.Fault.site) r.bugs)
  in
  let nbugs = List.length r.bugs in
  let dup = Telemetry.verdict_total r.telemetry Telemetry.Dup_bug in
  let verdicts =
    r.passed + r.clean_errors + r.false_positives + nbugs + dup + r.known_crashes
  in
  let errors =
    (if verdicts <> r.cases_executed then
       [ Printf.sprintf "%s: verdicts sum to %d of %d cases" dialect verdicts
           r.cases_executed ]
     else [])
    @
    if ledger then
      List.filter_map
        (fun (s : Fault.spec) ->
          if List.mem s.site sites then None
          else Some (Printf.sprintf "%s: ledger site %s not found" dialect s.site))
        (Bug_ledger.for_dialect dialect @ Bug_ledger.staged_for_dialect dialect)
    else []
  in
  let canonical =
    String.concat "\n"
      [
        Printf.sprintf "%s %d %d %d %d %d %d %d" dialect r.cases_executed r.passed
          r.clean_errors r.false_positives nbugs dup r.known_crashes;
        String.concat " " sites;
        String.concat " " (List.map fst (Coverage.points r.coverage));
      ]
  in
  {
    c_cases = r.cases_executed;
    c_bugs = nbugs;
    c_last_bug =
      List.fold_left
        (fun m (b : Detector.found_bug) -> max m b.case_number)
        0 r.bugs;
    c_digest = Digest.string canonical;
    c_errors = errors;
  }

type rep = {
  wall_ns : int;
  campaigns : campaign list;
  layers : (string * string * float) list;  (* empty unless traced *)
}

let total f r = List.fold_left (fun a c -> a + f c) 0 r.campaigns

let digest r =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun c -> c.c_digest) r.campaigns)))

let check (e : expected) r =
  let cases = total (fun c -> c.c_cases) r in
  let bugs = total (fun c -> c.c_bugs) r in
  let d = digest r in
  List.concat_map (fun c -> c.c_errors) r.campaigns
  @ (if cases <> e.cases then
       [ Printf.sprintf "%d cases, expected %d" cases e.cases ]
     else [])
  @ (if bugs <> e.bugs then [ Printf.sprintf "%d bugs, expected %d" bugs e.bugs ]
     else [])
  @ if d <> e.digest then [ Printf.sprintf "digest %s, expected %s" d e.digest ]
  else []

(* ----- per-layer readings -----

   Every campaign records its own stage timings ("campaign", "collect",
   "seed-replay", "generate", "execute", "detect",
   "restart-after-crash"), an attribution profile and counters. A
   traced rep merges them over its seven campaigns, the way a sharded
   campaign merges its shards, and times those merges. *)

type layers = {
  tel : Telemetry.t;
  prof : Profile.t;
  cov : Coverage.t;
  mutable merge_ns : int;
  mutable seeds : int;
  mutable scenarios : int;
  mutable prereqs : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
}

let absorb a (r : Soft_runner.result) (g0 : Gc.stat) (g1 : Gc.stat) =
  let t0 = now () in
  Coverage.merge_into ~dst:a.cov r.coverage;
  Telemetry.merge_into ~dst:a.tel r.telemetry;
  Profile.merge_into ~dst:a.prof r.profile;
  (* the New-vs-Dup re-derivation, over the bugs split in two shards by
     case number parity *)
  ignore
    (Detector.merge_bugs
       (let even, odd =
          List.partition
            (fun (b : Detector.found_bug) -> b.case_number mod 2 = 0)
            r.bugs
        in
        [ even; odd ]));
  a.merge_ns <- a.merge_ns + (now () - t0);
  a.seeds <- a.seeds + r.seeds_collected;
  a.scenarios <- a.scenarios + r.scenarios_executed;
  a.prereqs <- a.prereqs + r.prereq_statements;
  a.minor_words <- a.minor_words +. (g1.minor_words -. g0.minor_words);
  a.promoted_words <- a.promoted_words +. (g1.promoted_words -. g0.promoted_words);
  a.major_collections <-
    a.major_collections + (g1.major_collections - g0.major_collections)

(* Stage durations are wall time per span; under sharding the execute
   and detect spans of both workers add up. *)
let layer_metrics (w : workload) r a =
  let f = float_of_int in
  let cases = f (total (fun c -> c.c_cases) r) in
  let stages = Telemetry.stage_timings a.tel in
  let stage get name =
    List.fold_left
      (fun acc (s : Telemetry.stage_timing) -> if s.stage = name then get s else acc)
      0 stages
  in
  let ns = stage (fun s -> s.total_ns) in
  let work = ns "execute" + ns "detect" in
  (* The stages that do a campaign's work. Seed replay is left out
     because its statements' execute and detect spans lie inside it;
     arming and restarts, because most restarts run inside the span of
     the case that crashed. A sharded campaign runs on the producer and
     its workers, so its time counts once per domain. *)
  let claimed = ns "collect" + ns "generate" + work in
  let domains = if w.shards > 1 then 1 + w.shards else 1 in
  let phase p = secs (Profile.phase_self_ns a.prof p) in
  let cc = Telemetry.compile_counts a.tel in
  let mc = Telemetry.memo_counts a.tel in
  let kc = Telemetry.compact_counts a.tel in
  let bc = Telemetry.batch_counts a.tel in
  [
    ("collector.collect_ms", "ms", f (ns "collect") /. 1e6);
    ("collector.seeds", "count", f a.seeds);
    ("detector.restart_ms", "ms", f (ns "restart-after-crash") /. 1e6);
    ("patterns.generate_s", "s", secs (ns "generate"));
    ("detector.execute_s", "s", secs (ns "execute"));
    ("detector.detect_s", "s", secs (ns "detect"));
    ("detector.case_ns", "ns/case", ratio (f work) cases);
    ("detector.execute_max_ms", "ms", f (stage (fun s -> s.max_ns) "execute") /. 1e6);
    ("detector.batch_members", "count", f bc.b_cases);
    ("detector.members_per_batch", "count", ratio (f bc.b_cases) (f bc.b_flushes));
    ("detector.scenarios", "count", f a.scenarios);
    ("detector.prereqs_per_scenario", "count", ratio (f a.prereqs) (f a.scenarios));
    ("engine.parse_s", "s", phase Profile.Parse);
    ("engine.eval_s", "s", phase Profile.Eval);
    ("engine.storage_s", "s", phase Profile.Storage);
    ("detector.classify_s", "s", phase Profile.Classify);
    ("profile.other_s", "s", phase Profile.Other);
    ("cache.plan_hit_rate", "ratio", Telemetry.compile_hit_rate a.tel);
    ("cache.plan_fallbacks_per_case", "ratio", ratio (f cc.c_fallbacks) cases);
    ("cache.memo_hit_rate", "ratio", Telemetry.memo_hit_rate a.tel);
    ("cache.memo_lookups_per_case", "ratio", ratio (f (mc.hits + mc.misses)) cases);
    ("values.compact_built", "count", f kc.k_hits);
    ("values.compact_spilled", "count", f kc.k_spills);
    ("gc.minor_words_per_case", "words/case", ratio a.minor_words cases);
    ("gc.promoted_words_per_case", "words/case", ratio a.promoted_words cases);
    ("gc.major_collections", "count", f a.major_collections);
    ("parallel.merge_ms", "ms", f a.merge_ns /. 1e6);
    ("parallel.producer_share", "ratio", ratio (f (ns "generate")) (f (ns "campaign")));
    ("trace.coverage", "ratio", ratio (f claimed) (f (ns "campaign" * domains)));
  ]

(* ----- one rep ----- *)

(* A rep's wall counts the campaigns, not the checks and merges taken
   between them. *)
let run_rep ?budget ~trace (w : workload) profs =
  Gc.compact ();
  let ledger = budget = None && w.whole_ledger in
  let a =
    {
      tel = Telemetry.create ();
      prof = Profile.create ();
      cov = Coverage.create ();
      merge_ns = 0;
      seeds = 0;
      scenarios = 0;
      prereqs = 0;
      minor_words = 0.;
      promoted_words = 0.;
      major_collections = 0;
    }
  in
  let wall = ref 0 in
  let campaigns =
    List.map
      (fun prof ->
        let g0 = Gc.quick_stat () in
        let t0 = now () in
        let r =
          Soft_runner.fuzz ?budget ~patterns:w.patterns ~stateful:w.stateful
            ~shards:w.shards ~jobs:w.shards prof
        in
        wall := !wall + (now () - t0);
        if trace then absorb a r g0 (Gc.quick_stat ());
        summarize ~ledger r)
      profs
  in
  let r = { wall_ns = !wall; campaigns; layers = [] } in
  if trace then { r with layers = layer_metrics w r a } else r

(* ----- statistics and output ----- *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] gives them. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
    with Sys_error _ -> None
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None ->
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.

let git_rev () =
  let read f = String.trim (In_channel.with_open_text f In_channel.input_all) in
  try
    let head = read ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> read (Filename.concat ".git" r)
    | _ -> head
  with Sys_error _ -> "unknown"

let host_line ~seed =
  Printf.sprintf "# schema %d, rev %s, nproc %d, ocaml %s, seed %d" schema_version
    (git_rev ()) (Domain.recommended_domain_count ()) Sys.ocaml_version seed

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} n v u)
          metrics))

let print_row (name, unit, xs) =
  let q1, q3 = quartiles xs in
  let a = sorted xs in
  Printf.printf "%-24s %-8s median %-11.6g q1 %-11.6g q3 %-11.6g min %-11.6g max %-11.6g n %d\n"
    name unit (median xs) q1 q3 a.(0) a.(Array.length a - 1) (List.length xs)

let end_to_end setup reps =
  let walls = List.map (fun r -> secs r.wall_ns) reps in
  let rates =
    List.map (fun r -> float_of_int (total (fun c -> c.c_cases) r) /. secs r.wall_ns) reps
  in
  let timings =
    [
      ("setup_s", "s", List.map (fun r -> secs r.wall_ns) setup);
      ("wall_s", "s", walls);
      ("cases_per_s", "cases/s", rates);
    ]
  in
  List.iter print_row timings;
  List.map (fun (n, u, xs) -> (n, u, median xs)) timings
  @ [
      ("peak_rss_mb", "MB", peak_rss_mb ());
      (* a count fixed by the seed: every rep reads the same *)
      ("cases_to_last_bug", "cases",
       float_of_int (total (fun c -> c.c_last_bug) (List.hd reps)));
    ]

let per_layer reps =
  List.map
    (fun (n, u, _) ->
      let value r =
        let _, _, v = List.find (fun (n', _, _) -> n' = n) r.layers in
        v
      in
      (n, u, median (List.map value reps)))
    (List.hd reps).layers

(* ----- one workload in this process ----- *)

let run_workload (w : workload) ~seed ~seconds ~trace =
  let start = now () in
  let profs = seeded_profiles seed in
  print_endline (host_line ~seed);
  Printf.printf "# workload %s, %d s, trace %d\n%!" w.name seconds (Bool.to_int trace);
  let errors = ref [] and attempted = ref 0 and failed = ref 0 in
  (* a rep that raises or fails a check loses every case it carries *)
  let checked (e : expected) run =
    attempted := !attempted + e.cases;
    let errs, rep =
      match run () with
      | r -> (check e r, Some r)
      | exception exn -> ([ Printexc.to_string exn ], None)
    in
    if errs = [] then rep
    else begin
      errors := !errors @ errs;
      failed := !failed + e.cases;
      None
    end
  in
  let setup =
    if trace then []
    else
      List.filter_map Fun.id
        (List.init setup_reps (fun _ ->
             checked setup_expected (fun () -> run_rep ~budget:0 ~trace:false w profs)))
  in
  let rep () = run_rep ~trace w profs in
  (* a timed rep starts only if it is expected to end within the
     budget, judged by the length of the rep before it *)
  let budget_ns = seconds * 1_000_000_000 in
  let rec loop n reps last =
    let t0 = now () in
    if n > 0 && t0 - start + last > budget_ns then List.rev reps
    else
      let r = checked w.full rep in
      loop (n + 1) (Option.fold ~none:reps ~some:(fun r -> r :: reps) r) (now () - t0)
  in
  let t0 = now () in
  ignore (checked w.full rep);
  let reps = loop 0 [] (now () - t0) in
  let metrics =
    if reps = [] then []
    else if trace then per_layer reps
    else if setup = [] then []
    else end_to_end setup reps
  in
  List.iter (fun (n, u, v) -> Printf.printf "%-32s %-10s %.6g\n" n u v) metrics;
  List.iter (fun e -> Printf.printf "# FAILED: %s\n" e) !errors;
  let correct = !errors = [] in
  print_endline (result_line ~correct ~attempted:!attempted ~failed:!failed metrics);
  if not correct then exit 1

(* ----- every workload, one child process each ----- *)

let run_child args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let last = ref "" in
  (try
     while true do
       let l = input_line ic in
       print_endline l;
       last := l
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status = Unix.WEXITED 0, !last)

let run_all ~seed ~seconds ~out =
  let runs =
    List.map
      (fun (w : workload) ->
        let pass trace =
          run_child
            [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
              string_of_int seconds; "--trace"; string_of_int trace ]
        in
        let ok0, e2e = pass 0 in
        let ok1, layers = pass 1 in
        ( ok0 && ok1,
          Printf.sprintf {|"%s": {"end_to_end": %s, "per_layer": %s}|} w.name e2e layers ))
      workloads
  in
  if out <> "" then
    Out_channel.with_open_text out (fun oc ->
        Printf.fprintf oc
          "{\"schema\": %d, \"git_rev\": \"%s\", \"nproc\": %d, \"ocaml\": \"%s\", \
           \"seed\": %d, \"workloads\": {%s}}\n"
          schema_version (git_rev ())
          (Domain.recommended_domain_count ())
          Sys.ocaml_version seed
          (String.concat ", " (List.map snd runs)));
  if not (List.for_all fst runs) then exit 1

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 20 and trace = ref 0 in
  let out = ref "" in
  let usage =
    "perf.exe [--workload W --trace 0|1] [--seed N] [--seconds S] [--out FILE]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       "W run one workload: sweep, skeleton, stateful or sharded");
      ("--seed", Arg.Set_int seed, "N input seed; 0 is the canonical corpus");
      ("--seconds", Arg.Set_int seconds, "S how long one run measures");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "FILE write every workload's result lines as JSON");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if !workload = "" then run_all ~seed:!seed ~seconds:!seconds ~out:!out
  else
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
