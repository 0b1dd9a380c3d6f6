open Sqlfun_fault
open Sqlfun_engine
open Sqlfun_dialects
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
  compact : bool;  (* compact value representations in the engine *)
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
  mutable baseline : Storage.snapshot;
      (* the post-seed table state every scenario starts from *)
  sites : (string, unit) Hashtbl.t;
  fp_signatures : (string, unit) Hashtbl.t;
  fp_buf : Buffer.t;  (* reused across FP-signature normalizations *)
  mutable found : found_bug list;  (* reversed *)
  plans : Compile.Cache.t option;  (* [None] = --no-compile *)
  mutable slot_buf : Sqlfun_ast.Ast.expr array;
      (* reused across compiled executions; holds each case's literal
         slot nodes *)
}

(* Arming a fresh engine is the same work whether it is the initial start
   or a post-crash restart, so both are timed under the
   "restart-after-crash" stage. *)
let fresh_engine tel cov xprof ~compact prof =
  Telemetry.with_span tel ~dialect:prof.Dialect.id "restart-after-crash"
    (fun () -> Dialect.make_engine ~cov ~armed:true ~compact ~profile:xprof prof)

let create ?cov ?telemetry ?profile ?(compile = true) ?(compact = true) prof =
  let cov = match cov with Some c -> c | None -> Coverage.create () in
  let tel = match telemetry with Some t -> t | None -> Telemetry.create () in
  let xprof = match profile with Some p -> p | None -> Profile.create () in
  Profile.set_dialect xprof prof.Dialect.id;
  let engine = fresh_engine tel cov xprof ~compact prof in
  {
    prof;
    cov;
    tel;
    xprof;
    compact;
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
    plans = (if compile then Some (Compile.Cache.create ()) else None);
    slot_buf = Array.make 16 Sqlfun_ast.Ast.Null;
  }

(* A restart is the crash path: flush any streaming sinks first, so a
   campaign killed mid-restart cannot have silently swallowed the events
   leading up to the crash. The rebuilt engine re-loads the seed corpus,
   and storage is then pinned to the baseline snapshot recorded at
   [create]: a crash that killed the server mid-scenario (after its
   CREATE/INSERT prerequisites ran) must not leak scenario tables — or
   any seed-load drift — into the next case, so stateful PoCs replay
   standalone against a cold engine. *)
let restart t =
  Telemetry.flush t.tel;
  t.engine <- fresh_engine t.tel t.cov t.xprof ~compact:t.compact t.prof;
  Storage.restore (Engine.catalog t.engine) t.baseline

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
   FP-signature dedup, crash restart, site registration, bug events.
   The single source of truth shared by [classify] (one engine
   round-trip per call) and [run_batch]'s compiled loop (one call per
   batch member): both paths produce bit-identical verdicts, counters
   and events because both end here. *)
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

(* [poc] is rendered lazily: pretty-printing every generated statement
   would dominate the runtime, and only crashing statements need SQL.
   [case_number] overrides the detector-local execution index — shard
   workers pass the case's index in the global (unsharded) stream so
   that merged bug records and verdict events carry the same numbers a
   sequential run would have produced. *)
let classify t ?pattern ?case_number ~poc run =
  t.executed <- t.executed + 1;
  let case_number =
    match case_number with Some n -> n | None -> t.executed
  in
  let dialect = t.prof.Dialect.id in
  (* Pattern_id.to_string returns shared literals, so tagging spans and
     counters with the pattern costs no allocation. *)
  let pat =
    match pattern with Some p -> Pattern_id.to_string p | None -> "seed"
  in
  (* Each case runs against a fresh session: stateful functions
     (NEXTVAL/LASTVAL, LAST_INSERT_ID, ROW_COUNT) must not let one
     case's verdict depend on which statements happened to run earlier
     on this engine — that would make PoCs non-replayable standalone
     and break the sharded campaign's determinism guarantee (each shard
     engine only sees a sub-stream of the cases). *)
  Sqlfun_functions.Fn_ctx.reset_session (Engine.context t.engine);
  (* The execute stage is the engine round-trip; crashes are turned into
     data so the span closes with the statement's true wall time. *)
  let outcome =
    Telemetry.with_span t.tel ~dialect ~pattern:pat "execute" (fun () ->
        (* root attribution frame: whatever the engine's named scopes
           (parse/plan/eval/storage) don't claim of this round-trip is
           charged to the [other] bucket as this frame's self-time *)
        Profile.enter t.xprof Profile.Other;
        match run () with
        | r ->
          Profile.exit t.xprof;
          `Res r
        | exception Fault.Crash spec ->
          Profile.exit t.xprof;
          `Crashed spec
        | exception Stack_overflow ->
          Profile.exit t.xprof;
          `Blown)
  in
  let verdict =
    Telemetry.with_span t.tel ~dialect ~pattern:pat "detect" @@ fun () ->
    Profile.with_phase t.xprof Profile.Classify @@ fun () ->
    settle t ~pattern ~pat ~dialect ~case_number ~poc outcome
  in
  Telemetry.count_verdict t.tel ~dialect ~pattern:pat ~case_number
    (verdict_class verdict);
  verdict

let run_sql t ?pattern ?case_number sql =
  classify t ?pattern ?case_number
    ~poc:(fun () -> sql)
    (fun () -> Engine.exec_sql t.engine sql)

(* The engine round-trip for one statement outside a family batch.
   Seed replays and skeleton-varying cases (P2.1/P2.2/P3.2/P3.3) never
   reuse a plan, so they always interpret; with the plan cache on, each
   is counted as a compile fallback. Skeleton-sharing cases reach the
   compiler only through [run_batch]. *)
let exec_engine t stmt =
  if Option.is_some t.plans then Telemetry.compile_fallback t.tel;
  Engine.exec_stmt t.engine stmt

let run_stmt t ?pattern ?case_number stmt =
  classify t ?pattern ?case_number
    ~poc:(fun () -> Sqlfun_ast.Sql_pp.stmt stmt)
    (fun () -> exec_engine t stmt)

let run_case t ?case_number (case : Patterns.case) =
  run_stmt t ~pattern:case.Patterns.pattern ?case_number case.Patterns.stmt

(* ----- stateful scenarios -----

   One scenario = one case: the prerequisites and the probe execute as
   a single classified round-trip (session reset once, at the top — a
   session-state scenario depends on its prerequisites' effects being
   visible to the probe). A clean prerequisite failure is the
   scenario's verdict; a prerequisite crash is a found bug and the
   probe never runs. Afterwards the engine's storage is returned to the
   post-seed baseline: by [restart] if the scenario crashed, explicitly
   otherwise, so no scenario observes another's tables. *)
let run_scenario t ?case_number (sc : Patterns.scenario) =
  match sc.Patterns.prereqs with
  | [] -> run_case t ?case_number sc.Patterns.case
  | prereqs ->
    t.scenarios <- t.scenarios + 1;
    t.prereq_stmts <- t.prereq_stmts + List.length prereqs;
    let case = sc.Patterns.case in
    let stmts = prereqs @ [ case.Patterns.stmt ] in
    (* the PoC is the whole statement list: a stateful bug must replay
       standalone from a cold engine *)
    let poc () =
      String.concat ";\n" (List.map Sqlfun_ast.Sql_pp.stmt stmts)
    in
    let verdict =
      classify t ~pattern:case.Patterns.pattern ?case_number ~poc (fun () ->
          let rec go = function
            | [] -> Engine.exec_stmt t.engine case.Patterns.stmt
            | p :: rest ->
              (match Engine.exec_stmt t.engine p with
               | Ok _ -> go rest
               | Error _ as e -> e)
          in
          go prereqs)
    in
    (match verdict with
     | New_bug _ | Dup_bug _ | Known_crash _ ->
       (* the crash path already rebuilt the engine on the baseline *)
       ()
     | Passed | Clean_error _ | False_positive _ ->
       Storage.restore (Engine.catalog t.engine) t.baseline);
    verdict

(* ----- slot-stream batched execution -----

   One batch = one skeleton-sharing case family, and the only way a
   case runs compiled: a case that could not join a family arrives as a
   family of one (its own skeleton, an empty window). The per-case fixed
   overhead — telemetry span entry, plan-cache probe (skeleton
   fingerprint + structural verify), constant-slot fill and a PoC
   closure — is paid once per family; the member loop is fill-window →
   eval → settle. Soundness: within a batch the probed skeleton and the
   non-window slots are constant by construction (that is what makes it
   a family), so hoisting them cannot change any member's verdict; and
   compiled execution is observably identical to interpretation
   (values, provenance, tick counts, coverage, fault checks — see
   compile.ml), so which members run compiled never changes a verdict.
   Member ASTs are never materialized on the hot path;
   [Patterns.batch_stmt] rebuilds one lazily when a crash needs its PoC
   or the family is interpreted, structurally equal to the statement
   the per-case generator emits. *)

(* One probe resolves the whole family. The per-member counters mirror
   what [n] one-case probes of the same skeleton would record. [None]
   means interpret: no plan cache (--no-compile), or an unadmitted or
   uncompilable family. *)
let family_plan t (b : Patterns.batch) n =
  match t.plans with
  | None -> None
  | Some cache ->
    let hits k = for _ = 1 to k do Telemetry.compile_hit t.tel done in
    let fallbacks k =
      for _ = 1 to k do Telemetry.compile_fallback t.tel done
    in
    Profile.with_phase t.xprof Profile.Plan @@ fun () ->
    let compiled =
      match
        Compile.Cache.get_batched cache ~registry:(Engine.registry t.engine)
          ~count:n b.Patterns.b_skeleton
      with
      | Compile.Cache.Skip ->
        fallbacks n;
        None
      | Compile.Cache.Found c ->
        hits n;
        Some c
      | Compile.Cache.Added c ->
        Telemetry.compile_miss t.tel;
        hits (n - 1);
        Some c
    in
    (match compiled with
     | None -> None
     | Some Compile.Fallback ->
       fallbacks n;
       None
     | Some (Compile.Plan plan) ->
       if Compile.n_slots plan <> Array.length b.Patterns.b_slots then begin
         (* traversal disagreement would mean a skeleton bug; never let
            it corrupt a verdict — run the interpreter instead *)
         fallbacks n;
         None
       end
       else Some plan)

let run_batch t ?first_case (b : Patterns.batch) =
  let n = Patterns.batch_size b in
  if n > 0 then begin
    Telemetry.batch_flush t.tel ~cases:n;
    let pattern = b.Patterns.b_pattern in
    match family_plan t b n with
    | None ->
      (* interpret members one by one, each reconstructed from the
         skeleton and its window — the reference path the compiled loop
         must match *)
      List.iteri
        (fun i vec ->
          let stmt = Patterns.batch_stmt b vec in
          ignore
            (classify t ~pattern
               ?case_number:(Option.map (fun n0 -> n0 + i) first_case)
               ~poc:(fun () -> Sqlfun_ast.Sql_pp.stmt stmt)
               (fun () -> Engine.exec_stmt t.engine stmt)))
        b.Patterns.b_vecs
    | Some plan ->
      let pat = Pattern_id.to_string pattern in
      let dialect = t.prof.Dialect.id in
      let nslots = Array.length b.Patterns.b_slots in
      if Array.length t.slot_buf < nslots then
        t.slot_buf <-
          Array.make
            (Stdlib.max nslots (2 * Array.length t.slot_buf))
            Sqlfun_ast.Ast.Null;
      let buf = t.slot_buf in
      (* constant slots land once; the member loop only rewrites the
         varying window *)
      Array.blit b.Patterns.b_slots 0 buf 0 nslots;
      (* one PoC closure for the whole batch: it reads the member vector
         out of [cur], so clean cases allocate nothing *)
      let cur = ref b.Patterns.b_slots in
      let poc () = Sqlfun_ast.Sql_pp.stmt (Patterns.batch_stmt b !cur) in
      (* the verdict-counter row and the profiler's root record are
         keyed by dialect x pattern, both constant across the batch:
         resolve them once instead of probing string-keyed tables per
         member *)
      let vrow = Telemetry.verdict_counter t.tel ~dialect ~pattern:pat in
      let root = Profile.root_stats t.xprof in
      Telemetry.with_span t.tel ~dialect ~pattern:pat "execute" (fun () ->
          List.iteri
            (fun i vec ->
              t.executed <- t.executed + 1;
              let case_number =
                match first_case with Some n0 -> n0 + i | None -> t.executed
              in
              (* [t.engine] is re-read each member: a crash restart
                 replaces it mid-batch, and the plan stays valid because
                 registries are static per-dialect data *)
              Sqlfun_functions.Fn_ctx.reset_session (Engine.context t.engine);
              Array.blit vec 0 buf b.Patterns.b_lo b.Patterns.b_n;
              (* the root attribution frame covers the engine round-trip
                 only, exactly like [classify]'s — widening it over the
                 verdict bookkeeping would deflate the attribution
                 ratio *)
              Profile.enter_with t.xprof root Profile.Other;
              let outcome =
                match Engine.exec_compiled t.engine plan buf with
                | r ->
                  Profile.exit t.xprof;
                  `Res r
                | exception Fault.Crash spec ->
                  Profile.exit t.xprof;
                  `Crashed spec
                | exception Stack_overflow ->
                  Profile.exit t.xprof;
                  `Blown
              in
              cur := vec;
              let verdict =
                settle t ~pattern:(Some pattern) ~pat ~dialect ~case_number
                  ~poc outcome
              in
              Telemetry.count_verdict_row t.tel vrow ~dialect ~pattern:pat
                ~case_number (verdict_class verdict))
            b.Patterns.b_vecs)
  end

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
let profile t = t.prof
let telemetry t = t.tel
let exec_profile t = t.xprof
