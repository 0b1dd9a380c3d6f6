(** The SOFT command-line interface.

    - [soft_cli fuzz <dialect>] — run a SOFT campaign against one dialect
    - [soft_cli study] — regenerate the bug-study statistics (§4/§5)
    - [soft_cli compare] — equal-budget tool comparison (Tables 5/6)
    - [soft_cli tables] — Tables 3-4 and Figure 2, paper-vs-measured
    - [soft_cli repl <dialect>] — interactive SQL against a dialect *)

open Cmdliner
open Sqlfun_dialects
module Telemetry = Sqlfun_telemetry.Telemetry
module Profile = Sqlfun_telemetry.Profile
module Timeseries = Sqlfun_telemetry.Timeseries
module Json = Sqlfun_telemetry.Json

let dialect_arg =
  let doc =
    Printf.sprintf "Target dialect: one of %s (unique prefixes accepted)."
      (String.concat ", " Dialect.ids)
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIALECT" ~doc)

(* counts: a negative one is a usage error, not a silent default *)
let count =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 0 ->
      Error (`Msg (Printf.sprintf "expected a non-negative count, got %d" n))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let budget_arg default =
  let doc = "Maximum number of generated statements to execute (0 = exhaust)." in
  Arg.(value & opt count default & info [ "budget"; "b" ] ~doc)

let jobs_arg =
  let doc =
    "Number of worker domains (0 = \
     $(b,Domain.recommended_domain_count ()), i.e. the machine's core \
     count). Verdicts, bug lists and FP signatures are bit-identical \
     at any job count; only wall time changes."
  in
  Arg.(value & opt count 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Number of shards to partition each campaign's case stream across. \
     0 picks a default: one shard per job for $(b,fuzz), 1 for \
     $(b,tables) (whose campaigns already run in parallel — sharding \
     them too would oversubscribe the cores). More shards than jobs is \
     fine; 1 shard is the sequential pipeline."
  in
  Arg.(value & opt count 0 & info [ "shards" ] ~docv:"K" ~doc)

(* 0-valued knobs resolve to the machine: jobs defaults to the core
   count, shards to the job count (one shard per worker). *)
let resolve_parallelism ~jobs ~shards =
  let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
  let shards = if shards = 0 then jobs else shards in
  (jobs, shards)

(* [Domain.spawn] fails only after the domains that fit are running, so
   a command that needs more than the runtime has is refused before it
   spawns any *)
let within_domain_limit needed run =
  let limit = Sqlfun_parallel.Pool.max_domains in
  if needed > limit then
    `Error
      ( true,
        Printf.sprintf
          "--jobs and --shards need %d domains at once; the OCaml runtime \
           runs at most %d, the main domain included"
          needed limit )
  else `Ok (run ())

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Stream telemetry events (spans, verdicts, bugs, FP \
                 signatures) to $(docv) as JSON lines.")

let no_stateful_arg =
  Arg.(value & flag
       & info [ "no-stateful" ]
           ~doc:"Disable the synthesized stateful scenario stream \
                 (prerequisite CREATE/INSERT statements before a probe). \
                 With the flag the campaign is the historical \
                 single-statement pipeline, bit-identical to releases \
                 without scenario support; without it the parse- and \
                 storage-stage fault sites become reachable.")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write a machine-readable campaign metrics snapshot to \
                 $(docv).")

let profile_arg =
  Arg.(value & opt (some string) None
       & info [ "profile" ] ~docv:"FILE"
           ~doc:"Write the execute-stage attribution profile to $(docv) \
                 in folded-stack format \
                 ($(b,soft;dialect;function;phase self_ns) per line) — \
                 feed directly to flamegraph.pl.")

let timeseries_arg =
  Arg.(value & opt (some string) None
       & info [ "timeseries" ] ~docv:"FILE"
           ~doc:"Stream periodic campaign snapshots (cases/s, coverage, \
                 bug counts, per-shard progress) to \
                 $(docv) as JSON lines. The final $(b,shard=-1) \
                 snapshot is computed from merged totals and is \
                 identical at any shard/job count.")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Render a single-line live progress status on stderr \
                 from the campaign snapshots.")

(* exact id first, then a unique prefix ("postgres" -> postgresql) *)
let resolve_dialect id =
  match Dialect.find id with
  | Some p -> Ok p
  | None ->
    let plen = String.length id in
    (match
       List.filter
         (fun p ->
           String.length p.Dialect.id >= plen
           && String.sub p.Dialect.id 0 plen = id)
         Dialect.all
     with
     | [ p ] -> Ok p
     | _ :: _ :: _ ->
       Error (Printf.sprintf "ambiguous dialect %S (matches several of %s)" id
                (String.concat ", " Dialect.ids))
     | [] ->
       Error (Printf.sprintf "unknown dialect %S (expected one of %s)" id
                (String.concat ", " Dialect.ids)))

(* Builds a telemetry collector whose sink is the --trace file (null sink
   without the flag), runs [f tel] — which returns a thunk producing the
   snapshot, forced only when --json asked for one — then writes the
   artifacts. *)
let with_telemetry ~trace ~json f =
  let trace_oc = Option.map open_out trace in
  let sink =
    match trace_oc with
    | Some oc -> Telemetry.jsonl_sink oc
    | None -> Telemetry.null_sink
  in
  let tel = Telemetry.create ~sink () in
  (* the runner flushes registered sinks at campaign end and on the
     crash/restart path, so an abnormal termination can't truncate the
     trace mid-event *)
  Option.iter
    (fun oc -> Telemetry.add_flusher tel (fun () -> Stdlib.flush oc))
    trace_oc;
  let finish () = Option.iter close_out trace_oc in
  match f tel with
  | make_snapshot ->
    (match json with
     | Some path ->
       let oc = open_out path in
       output_string oc (Json.to_string (make_snapshot ()));
       output_char oc '\n';
       close_out oc;
       Printf.printf "telemetry snapshot written to %s\n" path
     | None -> ());
    finish ();
    Option.iter
      (fun file -> Printf.printf "telemetry trace written to %s\n" file)
      trace
  | exception exn ->
    finish ();
    raise exn

(* One status line, redrawn in place on stderr. Snapshots may arrive
   from worker domains; the mutex keeps redraws whole. *)
let progress_renderer dialect_id =
  let m = Mutex.create () in
  fun (s : Timeseries.snapshot) ->
    Mutex.lock m;
    let shard_view =
      match Array.length s.Timeseries.shard_cases with
      | 0 | 1 -> ""
      | n -> Printf.sprintf " | %d shards" n
    in
    Printf.eprintf "\r[%s] %d cases | %.0f c/s | %d branches | %d bugs%s  %!"
      dialect_id
      (Array.fold_left ( + ) 0 s.Timeseries.shard_cases)
      s.Timeseries.cases_per_s s.Timeseries.branches s.Timeseries.new_bugs
      shard_view;
    Mutex.unlock m

let fuzz_cmd =
  let run dialect budget jobs shards no_stateful verbose
      report trace json profile_out timeseries_out progress =
    let jobs, shards = resolve_parallelism ~jobs ~shards in
    within_domain_limit (Soft.Soft_runner.fuzz_domains ~jobs ~shards)
    @@ fun () ->
    match resolve_dialect dialect with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok prof ->
      let budget = if budget = 0 then None else Some budget in
      with_telemetry ~trace ~json (fun tel ->
          let ts_oc = Option.map open_out timeseries_out in
          Option.iter
            (fun oc -> Telemetry.add_flusher tel (fun () -> Stdlib.flush oc))
            ts_oc;
          let render =
            if progress then Some (progress_renderer prof.Dialect.id)
            else None
          in
          let timeseries =
            if ts_oc = None && render = None then None
            else
              Some
                {
                  Timeseries.every_cases = 1000;
                  every_ms = 500;
                  emit =
                    (fun s ->
                      Option.iter (fun oc -> Timeseries.jsonl_emit oc s) ts_oc;
                      Option.iter (fun r -> r s) render);
                }
          in
          let r =
            Soft.Soft_runner.fuzz ?budget ~telemetry:tel ?timeseries
              ~stateful:(not no_stateful) ~shards ~jobs prof
          in
          if progress then prerr_newline ();
          Option.iter close_out ts_oc;
          Option.iter
            (Printf.printf "timeseries written to %s\n")
            timeseries_out;
          (match profile_out with
           | Some path ->
             let oc = open_out path in
             Profile.write_folded oc r.Soft.Soft_runner.profile;
             close_out oc;
             Printf.printf "folded attribution profile written to %s\n" path
           | None -> ());
          (match report with
           | Some path ->
             let oc = open_out path in
             output_string oc (Soft.Report.campaign_to_markdown r);
             close_out oc;
             Printf.printf "bug report written to %s\n" path
           | None -> ());
          Printf.printf "SOFT campaign against %s %s (simulated)\n"
            prof.Dialect.display prof.Dialect.version;
          List.iter (Printf.printf "  %s\n")
            Soft.Report.(summary_lines (summary r));
          List.iter
            (fun b ->
              Printf.printf "    %s\n" (Soft.Report.bug_summary_line b);
              if verbose then
                Printf.printf "      note: %s\n" b.Soft.Detector.spec.Sqlfun_fault.Fault.note)
            r.Soft.Soft_runner.bugs;
          fun () -> Soft.Report.campaign_to_json r);
      0
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print bug notes.")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Write a markdown bug report for the campaign.")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Run a SOFT campaign against a simulated dialect")
    Term.(ret
            (const run $ dialect_arg $ budget_arg 0 $ jobs_arg $ shards_arg
             $ no_stateful_arg $ verbose
             $ report $ trace_arg $ json_arg $ profile_arg $ timeseries_arg
             $ progress_arg))

let study_cmd =
  let run () =
    print_string (Sqlfun_harness.Tables.study_section ());
    0
  in
  Cmd.v
    (Cmd.info "study" ~doc:"Regenerate the 318-bug study statistics (Sections 4-5)")
    Term.(const run $ const ())

let compare_cmd =
  let run budget trace json =
    with_telemetry ~trace ~json (fun tel ->
        let runs =
          Sqlfun_harness.Compare.comparison ~telemetry:tel ~budget ()
        in
        print_string (Sqlfun_harness.Tables.comparison_section runs);
        fun () ->
          Sqlfun_harness.Compare.comparison_to_json ~telemetry:tel ~budget runs);
    0
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Equal-budget comparison against SQUIRREL/SQLancer/SQLsmith")
    Term.(const run $ budget_arg 3000 $ trace_arg $ json_arg)

let tables_cmd =
  let run budget jobs shards =
    (* dialect campaigns parallelise across domains; tables are rendered
       from the merged per-dialect results, so the output is identical
       at any job count. Shards default to 1 here: campaign jobs are
       already one domain each, and sharding inside them would run up
       to jobs x shards domains. *)
    let jobs =
      if jobs = 0 then Domain.recommended_domain_count () else jobs
    in
    let shards = if shards = 0 then 1 else shards in
    within_domain_limit (Soft.Soft_runner.fuzz_all_domains ~jobs ~shards)
    @@ fun () ->
    print_string (Sqlfun_harness.Tables.table3 ());
    print_newline ();
    let budget = if budget = 0 then None else Some budget in
    print_string
      (Sqlfun_harness.Tables.campaign_section
         (Sqlfun_harness.Tables.paper_campaigns ?budget ~jobs ~shards ()));
    0
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate Tables 3-4 and Figure 2")
    Term.(ret (const run $ budget_arg 0 $ jobs_arg $ shards_arg))

let dialects_cmd =
  let run () =
    Printf.printf "%-12s %-10s %-9s %-6s %-5s %s\n" "dialect" "version"
      "casting" "json" "fns" "injected bugs";
    List.iter
      (fun p ->
        Printf.printf "%-12s %-10s %-9s %-6s %-5d %d\n" p.Dialect.id
          p.Dialect.version
          (match p.Dialect.strictness with
           | Sqlfun_value.Cast.Strict -> "strict"
           | Sqlfun_value.Cast.Lenient -> "lenient")
          (match p.Dialect.json_max_depth with
           | Some d -> string_of_int d
           | None -> "none")
          (List.length p.Dialect.functions)
          (List.length (Bug_ledger.for_dialect p.Dialect.id)))
      Dialect.all;
    0
  in
  Cmd.v
    (Cmd.info "dialects" ~doc:"List the simulated DBMS profiles")
    Term.(const run $ const ())

let logic_cmd =
  let run dialect budget =
    match resolve_dialect dialect with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok prof ->
      let budget = if budget = 0 then 300 else budget in
      let r = Sqlfun_harness.Logic_oracle.run ~budget prof in
      print_string (Sqlfun_harness.Logic_oracle.report_to_string r);
      if r.Sqlfun_harness.Logic_oracle.mismatches = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "logic"
       ~doc:
         "Run the correctness oracles (TLP partitioning, NoREC \
          re-execution, aggregate/array equivalence) against a dialect")
    Term.(const run $ dialect_arg $ budget_arg 300)

let repl_cmd =
  let run dialect armed =
    match resolve_dialect dialect with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok prof ->
      let engine = ref (Dialect.make_engine ~armed prof) in
      Printf.printf "%s %s (simulated)%s — terminate statements with ;\n"
        prof.Dialect.display prof.Dialect.version
        (if armed then " [injected bugs ARMED]" else "");
      let buf = Buffer.create 128 in
      (* a crashed server is respawned: a fresh session over the tables
         as they stood when it died *)
      let restart () =
        let open Sqlfun_engine in
        engine :=
          Engine.restart !engine (Storage.snapshot (Engine.catalog !engine))
      in
      (try
         while true do
           print_string (if Buffer.length buf = 0 then "sql> " else "  -> ");
           let line = read_line () in
           Buffer.add_string buf line;
           Buffer.add_char buf '\n';
           if String.contains line ';' then begin
             let sql = Buffer.contents buf in
             Buffer.clear buf;
             match Sqlfun_engine.Engine.exec_script !engine sql with
             | Ok outcomes ->
               List.iter
                 (fun o ->
                   print_endline (Sqlfun_engine.Engine.outcome_to_string o))
                 outcomes
             | Error e ->
               print_endline (Sqlfun_engine.Engine.error_to_string e)
             | exception Sqlfun_fault.Fault.Crash spec ->
               Printf.printf
                 "*** server crashed: %s (%s) — restarting ***\n"
                 spec.Sqlfun_fault.Fault.site
                 (Sqlfun_fault.Bug_kind.describe spec.Sqlfun_fault.Fault.kind);
               restart ()
             | exception Stack_overflow ->
               print_endline "*** server crashed: stack overflow — restarting ***";
               restart ()
           end
         done;
         0
       with End_of_file -> 0)
  in
  let armed =
    Arg.(value & flag & info [ "armed" ] ~doc:"Enable the injected bugs.")
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:
         "Interactive SQL session against a simulated dialect. A crash \
          restarts the server: the session state (sequences, \
          LAST_INSERT_ID, ROW_COUNT) starts fresh, and the tables as they \
          stood at the crash are kept")
    Term.(const run $ dialect_arg $ armed)

let () =
  let doc = "SOFT: boundary-argument testing of (simulated) DBMS SQL functions" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "soft_cli" ~version:"1.0.0" ~doc)
          [ fuzz_cmd; study_cmd; compare_cmd; tables_cmd; logic_cmd;
            dialects_cmd; repl_cmd ]))
