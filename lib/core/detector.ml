open Sqlfun_fault
open Sqlfun_engine
open Sqlfun_dialects
open Sqlfun_ast
module Coverage = Sqlfun_coverage.Coverage
module Telemetry = Sqlfun_telemetry.Telemetry
module Profile = Sqlfun_telemetry.Profile

type verdict =
  | Passed
  | Clean_error of string
  | False_positive of string
  | New_bug of Fault.spec
  | Dup_bug of Fault.spec
  | Known_crash of string

type found_bug = {
  spec : Fault.spec;
  found_by : Pattern_id.t option;
  poc : string;
  case_number : int;
}

type t = {
  prof : Dialect.profile;
  cov : Coverage.t;
  tel : Telemetry.t;
  xprof : Profile.t;  (* execute-stage attribution profiler *)
  mutable engine : Engine.t;
  mutable executed : int;
  mutable passed : int;
  mutable clean_errors : int;
  mutable false_positives : int;
  mutable known_crashes : int;
  mutable dup_crashes : int;  (* Dup_bug verdicts, classified + replayed *)
  mutable scenarios : int;  (* stateful scenarios run (prereqs <> []) *)
  mutable prereq_stmts : int;  (* prerequisite statements admitted *)
  (* crash-class verdicts (New/Dup/Known) attributed by occurrence
     stage; a blown stack is execute-stage by definition *)
  mutable stage_parse : int;
  mutable stage_execute : int;
  mutable stage_storage : int;
  baseline : Storage.snapshot;
      (* the post-seed table state every scenario starts from *)
  sites : (string, unit) Hashtbl.t;
  fp_signatures : (string, unit) Hashtbl.t;
  fp_buf : Buffer.t;  (* reused across FP-signature normalizations *)
  mutable found : found_bug list;  (* reversed *)
}

let create ?cov ?telemetry ?profile ?(compact = true) prof =
  let cov = match cov with Some c -> c | None -> Coverage.create () in
  let tel = match telemetry with Some t -> t | None -> Telemetry.create () in
  let xprof = match profile with Some p -> p | None -> Profile.create () in
  Profile.set_dialect xprof prof.Dialect.id;
  (* arming is this detector's one seed load; it is timed under the
     same "restart-after-crash" stage as the respawns that follow *)
  let engine =
    Telemetry.with_span tel ~dialect:prof.Dialect.id "restart-after-crash"
      (fun () ->
        Dialect.make_engine ~cov ~armed:true ~compact ~profile:xprof prof)
  in
  {
    prof;
    cov;
    tel;
    xprof;
    engine;
    executed = 0;
    passed = 0;
    clean_errors = 0;
    false_positives = 0;
    known_crashes = 0;
    dup_crashes = 0;
    scenarios = 0;
    prereq_stmts = 0;
    stage_parse = 0;
    stage_execute = 0;
    stage_storage = 0;
    baseline = Storage.snapshot (Engine.catalog engine);
    sites = Hashtbl.create 64;
    fp_signatures = Hashtbl.create 16;
    fp_buf = Buffer.create 128;
    found = [];
  }

(* A restart is the crash path: flush any streaming sinks first, so a
   campaign killed mid-restart cannot have silently swallowed the events
   leading up to the crash. The server is then respawned on the baseline
   snapshot recorded at [create]: a fresh session and catalog over the
   same registry and armed fault table. A crash that killed the server
   mid-scenario (after its CREATE/INSERT prerequisites ran) therefore
   cannot leak scenario tables into the next case, so stateful PoCs
   replay standalone against a cold engine. The seeds are not re-run:
   the restored catalog is exactly what they built at [create]. *)
let restart t =
  Telemetry.flush t.tel;
  Telemetry.with_span t.tel ~dialect:t.prof.Dialect.id "restart-after-crash"
    (fun () -> t.engine <- Engine.restart t.engine t.baseline)

let count_stage t = function
  | Fault.Parse -> t.stage_parse <- t.stage_parse + 1
  | Fault.Execute -> t.stage_execute <- t.stage_execute + 1
  | Fault.Storage -> t.stage_storage <- t.stage_storage + 1

let verdict_class = function
  | Passed -> Telemetry.Passed
  | Clean_error _ -> Telemetry.Clean_error
  | False_positive _ -> Telemetry.False_positive
  | New_bug _ -> Telemetry.New_bug
  | Dup_bug _ -> Telemetry.Dup_bug
  | Known_crash _ -> Telemetry.Known_crash

(* The verdict bookkeeping for one executed outcome — counter updates,
   FP-signature dedup, crash restart, site registration, bug events. *)
let settle t ~pattern ~pat ~dialect ~case_number ~poc outcome =
  match outcome with
  | `Res (Ok _) ->
    t.passed <- t.passed + 1;
    Passed
  | `Res (Error (Engine.Parse_failed msg) | Error (Engine.Sql_failed msg)) ->
    t.clean_errors <- t.clean_errors + 1;
    Clean_error msg
  | `Res (Error (Engine.Limit_hit msg)) ->
    t.false_positives <- t.false_positives + 1;
    (* the paper counts unique false-positive *reports*; dedupe on the
       message with digits normalized out. Stored signatures are
       digit-free ('#' stands for every digit run), so a raw message
       that already hits the table must itself be digit-free — its
       normalization is the identity and can be skipped. Messages
       that do need normalizing reuse one per-detector buffer instead
       of allocating a fresh one per false positive. *)
    if Hashtbl.mem t.fp_signatures msg then False_positive msg
    else begin
      let signature =
        let buf = t.fp_buf in
        Buffer.clear buf;
        let prev_digit = ref false in
        String.iter
          (fun c ->
            let is_digit = c >= '0' && c <= '9' in
            if is_digit then begin
              if not !prev_digit then Buffer.add_char buf '#'
            end
            else Buffer.add_char buf c;
            prev_digit := is_digit)
          msg;
        Buffer.contents buf
      in
      if not (Hashtbl.mem t.fp_signatures signature) then begin
        Hashtbl.add t.fp_signatures signature ();
        Telemetry.fp_event t.tel ~dialect ~signature
      end;
      False_positive msg
    end
  | `Crashed spec ->
    restart t;
    count_stage t spec.Fault.stage;
    if Hashtbl.mem t.sites spec.Fault.site then begin
      t.dup_crashes <- t.dup_crashes + 1;
      Dup_bug spec
    end
    else begin
      Hashtbl.add t.sites spec.Fault.site ();
      t.found <-
        { spec; found_by = pattern; poc = poc (); case_number }
        :: t.found;
      Telemetry.bug_event t.tel ~dialect ~site:spec.Fault.site
        ~kind:(Bug_kind.to_string spec.Fault.kind)
        ~pattern:pat ~case_number;
      New_bug spec
    end
  | `Blown ->
    restart t;
    count_stage t Fault.Execute;
    t.known_crashes <- t.known_crashes + 1;
    Known_crash "stack exhausted (CVE-2015-5289 class)"

(* ----- the executor -----

   Every case, whatever carried it, runs through [step]. A work item
   opens one "execute" span and fixes what is constant across its
   cases: the pattern, the verdict-counter row and the profiler's root
   record (both keyed by dialect x pattern), and the global number of
   its first case. *)
type item = {
  pattern : Pattern_id.t option;  (* [None] for a seed statement *)
  pat : string;
  vrow : Telemetry.verdict_counter;
  root : Profile.fn_stats;
  first_case : int option;
}

let pattern_tag = function
  | Some p -> Pattern_id.to_string p
  | None -> "seed"

let with_item t ?first_case pattern f =
  let dialect = t.prof.Dialect.id in
  (* Pattern_id.to_string returns shared literals, so tagging spans and
     counters with the pattern costs no allocation *)
  let pat = pattern_tag pattern in
  Telemetry.with_span t.tel ~dialect ~pattern:pat "execute" (fun () ->
      f
        {
          pattern;
          pat;
          vrow = Telemetry.verdict_counter t.tel ~dialect ~pattern:pat;
          root = Profile.root_stats t.xprof;
          first_case;
        })

(* One case: the item's [i]-th. [exec] is the engine round-trip and
   [poc] renders the case's SQL — lazily, because pretty-printing every
   generated statement would dominate the runtime and only crashing
   cases need it. The case is numbered [first_case + i] when the item
   carries a global number (shard workers pass the case's index in the
   unsharded stream, so merged bug records and verdict events carry the
   numbers a sequential run would have produced), else by the
   detector-local execution index. *)
let step t it i ~poc exec =
  t.executed <- t.executed + 1;
  let case_number =
    match it.first_case with Some n0 -> n0 + i | None -> t.executed
  in
  let dialect = t.prof.Dialect.id in
  (* Each case runs against a fresh session: stateful functions
     (NEXTVAL/LASTVAL, LAST_INSERT_ID, ROW_COUNT) must not let one
     case's verdict depend on which statements happened to run earlier
     on this engine — that would make PoCs non-replayable standalone
     and break the sharded campaign's determinism guarantee (each shard
     engine only sees a sub-stream of the cases). *)
  Sqlfun_functions.Fn_ctx.reset_session (Engine.context t.engine);
  (* root attribution frame around the round-trip only: whatever the
     engine's named scopes (parse/plan/eval/storage) don't claim of it
     is charged to [other]. Crashes are turned into data here and
     nowhere else. *)
  Profile.enter_with t.xprof it.root Profile.Other;
  let outcome =
    match exec () with
    | r -> `Res r
    | exception Fault.Crash spec -> `Crashed spec
    | exception Stack_overflow -> `Blown
  in
  (* the verdict bookkeeping is the round-trip's sibling scope; one
     clock read ends the one and starts the other *)
  Profile.switch t.xprof Profile.Classify;
  let verdict =
    settle t ~pattern:it.pattern ~pat:it.pat ~dialect ~case_number ~poc
      outcome
  in
  Profile.exit t.xprof;
  Telemetry.count_verdict_row t.tel it.vrow ~dialect ~pattern:it.pat
    ~case_number (verdict_class verdict);
  verdict

(* [prereqs] then [stmt] on one session, the first error being the
   result. *)
let rec exec_all engine stmt = function
  | [] -> Engine.exec_stmt engine stmt
  | p :: rest ->
    (match Engine.exec_stmt engine p with
     | Ok _ -> exec_all engine stmt rest
     | Error _ as e -> e)

(* One interpreted case: [prereqs] then [stmt] on one session — so
   session-state probes see their prerequisites' effects, and a
   prerequisite crash is the case's crash. The PoC is the whole
   statement list: a stateful bug must replay standalone from a cold
   engine. *)
let interpret t it i ~prereqs stmt =
  step t it i
    ~poc:(fun () ->
      String.concat ";\n"
        (List.map Sql_pp.stmt (prereqs @ [ stmt ])))
    (fun () -> exec_all t.engine stmt prereqs)

(* A family's member [i]. A case with prerequisites is a stateful
   scenario; afterwards the engine's storage is back at the post-seed
   baseline — by the crash respawn if it crashed, explicitly otherwise
   — so no scenario observes another's tables. *)
let run_member t it i (c : Patterns.case) =
  match c.Patterns.prereqs with
  | [] -> ignore (interpret t it i ~prereqs:[] c.Patterns.stmt)
  | prereqs ->
    t.scenarios <- t.scenarios + 1;
    t.prereq_stmts <- t.prereq_stmts + List.length prereqs;
    (match interpret t it i ~prereqs c.Patterns.stmt with
     | New_bug _ | Dup_bug _ | Known_crash _ -> ()
     | Passed | Clean_error _ | False_positive _ ->
       Storage.restore (Engine.catalog t.engine) t.baseline)

(* Members [i], [i + 1], … of family [f], planting [vs]. *)
let rec run_members t it (f : Patterns.family) i = function
  | [] -> ()
  | v :: vs ->
    run_member t it i (f.Patterns.f_build i v);
    run_members t it f (i + 1) vs

let run t ?first_case (w : Patterns.work) =
  match w with
  | Patterns.Seed stmt ->
    with_item t ?first_case None (fun it ->
        ignore (interpret t it 0 ~prereqs:[] stmt))
  | Patterns.Family f ->
    (* a family shares its "execute" span, verdict row and profiler
       root across its members *)
    with_item t ?first_case (Some f.Patterns.f_pattern) (fun it ->
        run_members t it f 0 f.Patterns.f_members)

let run_sql t sql =
  with_item t None (fun it ->
      step t it 0
        ~poc:(fun () -> sql)
        (fun () -> Engine.exec_sql t.engine sql))

(* Re-derives the sequential New-vs-Dup split from per-shard bug lists.

   Within one shard the engine sees its sub-stream in global order, so a
   crash a shard classified as Dup_bug had an earlier same-site crash at
   a smaller global index in the same shard — shard-local dups can never
   be the global first sighting. The shard-local News are therefore the
   only candidates: ordering them by global case number and keeping the
   first per site reproduces exactly the bug list a sequential run
   records, independent of shard count or completion order. *)
let merge_bugs per_shard =
  let all =
    List.sort
      (fun a b -> compare a.case_number b.case_number)
      (List.concat per_shard)
  in
  let seen = Hashtbl.create 64 in
  let kept, demoted =
    List.fold_left
      (fun (kept, demoted) b ->
        if Hashtbl.mem seen b.spec.Fault.site then (kept, b :: demoted)
        else begin
          Hashtbl.add seen b.spec.Fault.site ();
          (b :: kept, demoted)
        end)
      ([], []) all
  in
  (List.rev kept, List.rev demoted)

let executed t = t.executed
let passed t = t.passed
let clean_errors t = t.clean_errors
let false_positives t = t.false_positives
let unique_false_positives t = Hashtbl.length t.fp_signatures

let fp_signatures t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.fp_signatures []
  |> List.sort String.compare
let known_crashes t = t.known_crashes
let dup_crashes t = t.dup_crashes
let scenarios_executed t = t.scenarios
let prereq_statements t = t.prereq_stmts

type stage_counts = { parse : int; execute : int; storage : int }

let stage_verdicts t =
  { parse = t.stage_parse; execute = t.stage_execute; storage = t.stage_storage }
let bugs t = List.rev t.found
let coverage t = t.cov
let engine t = t.engine
let profile t = t.prof
let telemetry t = t.tel
