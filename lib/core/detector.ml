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

(* The cached image of a verdict: everything needed to replay the
   classification without the engine round-trip. New-vs-Dup for crashes
   is NOT cached — it depends on execution order, so it is re-derived
   from the [sites] table at replay time (within one detector a cached
   crash always replays as a duplicate: the miss that populated the
   entry registered the site). *)
type cached_verdict =
  | C_passed
  | C_clean of string
  | C_fp of string
  | C_crash of Fault.spec
  | C_blown

type t = {
  prof : Dialect.profile;
  cov : Coverage.t;
  tel : Telemetry.t;
  xprof : Profile.t;  (* execute-stage attribution profiler *)
  compact : bool;  (* compact value representations in the engine *)
  mutable engine : Engine.t;
  mutable executed : int;
  mutable memoized : int;  (* how many of [executed] skipped the engine *)
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
  memo : cached_verdict Verdict_cache.t option;  (* [None] = --no-memo *)
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

let create ?cov ?telemetry ?profile ?(memo = true) ?(compile = true)
    ?(compact = true) prof =
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
    memoized = 0;
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
    memo = (if memo then Some (Verdict_cache.create ()) else None);
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
   round-trip per call) and [run_batch] (one call per batch member
   inside the batched loop): both paths produce bit-identical verdicts,
   counters and events because both end here. *)
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

(* ----- verdict memoization -----

   A verdict is a pure function of the *statement list* it classifies,
   because every scenario starts from the same engine state: the
   session is reset at the top of [classify], and table state is always
   the post-seed baseline — stateless probes never touch storage, a
   stateful scenario restores the baseline when it completes, and a
   crash rebuilds the engine and re-pins the baseline in [restart]. So
   a statement list seen before can replay its recorded verdict without
   the engine round-trip, bit-identically:

   - counters, the FP-signature set (the first execution registered the
     signature; a replay of the same message adds nothing), and verdict
     events replay exactly as a re-execution would have produced them;
   - coverage is untouched, which only drops duplicate hit-count
     increments — the distinct point set a re-execution would touch is
     already present (insertion is idempotent);
   - a cached crash still restarts the engine, exactly as the
     re-executed crash would have, so the engine lifecycle (and the
     arming coverage it records) is identical to an uncached run;
   - a cached non-crash scenario skips its prerequisites entirely, so
     there is nothing to restore — storage was never touched;
   - New-vs-Dup is re-derived from the [sites] table (and, across
     shards, from globally ordered case numbers), never replayed.

   A *bare* DDL/DML statement (a seed replay outside any scenario) is
   still not cacheable: only [run_scenario] pairs such statements with
   the baseline-restore discipline that makes their verdicts pure. *)

let cacheable = function
  | Sqlfun_ast.Ast.Select_stmt _ | Sqlfun_ast.Ast.Explain _ -> true
  | Sqlfun_ast.Ast.Create_table _ | Sqlfun_ast.Ast.Insert _
  | Sqlfun_ast.Ast.Drop_table _ ->
    false

let to_cached = function
  | Passed -> C_passed
  | Clean_error msg -> C_clean msg
  | False_positive msg -> C_fp msg
  | New_bug spec | Dup_bug spec -> C_crash spec
  | Known_crash _ -> C_blown

(* Mirrors [classify]'s bookkeeping without the engine round-trip. *)
let replay t ?pattern ?case_number ~poc cached =
  t.executed <- t.executed + 1;
  t.memoized <- t.memoized + 1;
  let case_number =
    match case_number with Some n -> n | None -> t.executed
  in
  let dialect = t.prof.Dialect.id in
  let pat =
    match pattern with Some p -> Pattern_id.to_string p | None -> "seed"
  in
  let verdict =
    match cached with
    | C_passed ->
      t.passed <- t.passed + 1;
      Passed
    | C_clean msg ->
      t.clean_errors <- t.clean_errors + 1;
      Clean_error msg
    | C_fp msg ->
      t.false_positives <- t.false_positives + 1;
      False_positive msg
    | C_crash spec ->
      (* a re-execution would have crashed and restarted — keep the
         engine lifecycle identical *)
      restart t;
      count_stage t spec.Fault.stage;
      if Hashtbl.mem t.sites spec.Fault.site then begin
        t.dup_crashes <- t.dup_crashes + 1;
        Dup_bug spec
      end
      else begin
        (* unreachable through the detector (the populating miss
           registered the site), kept so a hand-fed cache still
           classifies soundly *)
        Hashtbl.add t.sites spec.Fault.site ();
        t.found <-
          { spec; found_by = pattern; poc = poc (); case_number }
          :: t.found;
        Telemetry.bug_event t.tel ~dialect ~site:spec.Fault.site
          ~kind:(Bug_kind.to_string spec.Fault.kind)
          ~pattern:pat ~case_number;
        New_bug spec
      end
    | C_blown ->
      restart t;
      count_stage t Fault.Execute;
      t.known_crashes <- t.known_crashes + 1;
      Known_crash "stack exhausted (CVE-2015-5289 class)"
  in
  Telemetry.count_verdict t.tel ~dialect ~pattern:pat ~case_number
    (verdict_class verdict);
  verdict

(* The engine round-trip for one statement: compile-once/fill-slots/run
   when a compiled plan covers the statement's skeleton, the interpreter
   otherwise. The plan cache is keyed on the skeleton, so every case of
   a pattern family after the first is a cache hit that skips the AST
   walk entirely; the slot buffer is reused across cases. *)
let exec_engine t ?pattern stmt =
  match t.plans with
  | None -> Engine.exec_stmt t.engine stmt
  | Some _
    when not
           (match pattern with
            | Some p -> Pattern_id.shares_skeleton p
            | None -> false) ->
    (* seed replays and skeleton-varying patterns (P2.1/P2.2/P3.2/P3.3)
       never reuse a plan; probing the cache for them costs more than
       the tree walk they would run anyway *)
    Telemetry.compile_fallback t.tel;
    Engine.exec_stmt t.engine stmt
  | Some cache ->
    (* the cache probe (skeleton fingerprint + structural verify) and
       slot fill are planning work: charged to the [Plan] attribution
       phase so the much shorter compiled round-trips don't inflate the
       unclaimed [other] bucket *)
    let prepared =
      Profile.with_phase t.xprof Profile.Plan @@ fun () ->
      let compiled =
        match
          Compile.Cache.get cache ~registry:(Engine.registry t.engine) stmt
        with
        | Compile.Cache.Skip -> None
        | Compile.Cache.Found c ->
          Telemetry.compile_hit t.tel;
          Some c
        | Compile.Cache.Added c ->
          Telemetry.compile_miss t.tel;
          Some c
      in
      match compiled with
      | None ->
        Telemetry.compile_fallback t.tel;
        None
      | Some Compile.Fallback ->
        Telemetry.compile_fallback t.tel;
        None
      | Some (Compile.Plan plan) ->
        let n = Compile.n_slots plan in
        if Array.length t.slot_buf < n then
          t.slot_buf <-
            Array.make
              (Stdlib.max n (2 * Array.length t.slot_buf))
              Sqlfun_ast.Ast.Null;
        let buf = t.slot_buf in
        let filled =
          Sqlfun_ast.Ast_util.fold_slots
            (fun i s ->
              buf.(i) <- s;
              i + 1)
            0 stmt
        in
        if filled <> n then begin
          (* traversal disagreement would mean a skeleton bug; never let
             it corrupt a verdict — run the interpreter instead *)
          Telemetry.compile_fallback t.tel;
          None
        end
        else Some (plan, buf)
    in
    (match prepared with
     | None -> Engine.exec_stmt t.engine stmt
     | Some (plan, buf) -> Engine.exec_compiled t.engine plan buf)

let exec_classified t ?pattern ?case_number ~poc stmt =
  let execute () =
    classify t ?pattern ?case_number ~poc (fun () ->
        exec_engine t ?pattern stmt)
  in
  (* memo/compile partition: a skeleton-sharing family is the
     compiler's — every case after the first is a plan-cache hit, and
     its distinct boundary literals make verdict-cache hits rare, so
     the per-case fingerprint+probe is pure overhead there. Memoize
     only what the compiler does not own: seed replays and the
     skeleton-varying families the compiler falls back on. *)
  let compiler_owned =
    match (t.plans, pattern) with
    | Some _, Some p -> Pattern_id.shares_skeleton p
    | _ -> false
  in
  match t.memo with
  | Some cache when cacheable stmt && not compiler_owned ->
    let fp = Sqlfun_ast.Ast_util.fingerprint stmt in
    (match Verdict_cache.find cache ~fp [ stmt ] with
     | Verdict_cache.Hit cached ->
       Telemetry.memo_hit t.tel;
       replay t ?pattern ?case_number ~poc cached
     | Verdict_cache.Miss { collided; admit } ->
       if collided then Telemetry.memo_collision t.tel;
       Telemetry.memo_miss t.tel;
       let verdict = execute () in
       if admit then Verdict_cache.add cache ~fp [ stmt ] (to_cached verdict);
       verdict)
  | Some _ | None -> execute ()

let run_stmt t ?pattern ?case_number stmt =
  exec_classified t ?pattern ?case_number
    ~poc:(fun () -> Sqlfun_ast.Sql_pp.stmt stmt)
    stmt

let run_case t ?case_number (case : Patterns.case) =
  exec_classified t ~pattern:case.Patterns.pattern ?case_number
    ~poc:(fun () -> Sqlfun_ast.Sql_pp.stmt case.Patterns.stmt)
    case.Patterns.stmt

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
    let pattern = case.Patterns.pattern in
    let execute () =
      let verdict =
        classify t ~pattern ?case_number ~poc (fun () ->
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
    in
    (match t.memo with
     | Some cache ->
       let fp = Sqlfun_ast.Ast_util.fingerprint_stmts stmts in
       (match Verdict_cache.find cache ~fp stmts with
        | Verdict_cache.Hit cached ->
          Telemetry.memo_hit t.tel;
          (* a cached non-crash scenario never ran its prerequisites,
             so storage is untouched and needs no restore; a cached
             crash restarts (and re-baselines) inside [replay] *)
          replay t ~pattern ?case_number ~poc cached
        | Verdict_cache.Miss { collided; admit } ->
          if collided then Telemetry.memo_collision t.tel;
          Telemetry.memo_miss t.tel;
          let verdict = execute () in
          if admit then Verdict_cache.add cache ~fp stmts (to_cached verdict);
          verdict)
     | None -> execute ())

(* ----- slot-stream batched execution -----

   One batch = one skeleton-sharing case family. The per-case fixed
   overhead the unbatched path pays n times — telemetry span entry,
   plan-cache probe (skeleton fingerprint + structural verify), the
   memo/compile partition decision, full slot refill, and a fresh PoC
   closure per case — is paid once here; the member loop is
   fill-window → eval → settle. Soundness: within a batch the probed
   skeleton, the partition decision, and the non-window slots are
   constant by construction (that is what makes it a family), so
   hoisting them cannot change any member's verdict; and compiled
   execution is observably identical to interpretation (values,
   provenance, tick counts, coverage, fault checks — see compile.ml),
   so members a batch runs compiled where the unbatched run would
   still have been warming the admission counter classify
   identically. Member ASTs are never materialized on the hot path;
   [Patterns.batch_stmt] rebuilds one lazily when a crash needs its
   PoC, byte-identical to the unbatched pretty-print because the
   reconstruction is structurally equal to the unbatched statement. *)
let run_batch t ?first_case (b : Patterns.batch) =
  let n = Patterns.batch_size b in
  if n > 0 then begin
    Telemetry.batch_flush t.tel ~cases:n;
    let pattern = b.Patterns.b_pattern in
    let pat = Pattern_id.to_string pattern in
    let dialect = t.prof.Dialect.id in
    let number i = Option.map (fun n0 -> n0 + i) first_case in
    match t.plans with
    | None ->
      (* --no-compile: the interpreter path memoizes (the partition
         gives these families to the verdict cache when there is no
         plan cache), so members take the classic per-case route *)
      List.iteri
        (fun i vec ->
          let stmt = Patterns.batch_stmt b vec in
          ignore
            (exec_classified t ~pattern ?case_number:(number i)
               ~poc:(fun () -> Sqlfun_ast.Sql_pp.stmt stmt)
               stmt))
        b.Patterns.b_vecs
    | Some cache ->
      let hits k = for _ = 1 to k do Telemetry.compile_hit t.tel done in
      let fallbacks k =
        for _ = 1 to k do Telemetry.compile_fallback t.tel done
      in
      (* one probe resolves the whole family; the per-member counters
         mirror what n unbatched probes of an admitted family record *)
      let plan =
        Profile.with_phase t.xprof Profile.Plan @@ fun () ->
        let compiled =
          match
            Compile.Cache.get_batched cache
              ~registry:(Engine.registry t.engine) ~count:n
              b.Patterns.b_skeleton
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
        match compiled with
        | None -> None
        | Some Compile.Fallback ->
          fallbacks n;
          None
        | Some (Compile.Plan plan) ->
          if Compile.n_slots plan <> Array.length b.Patterns.b_slots then begin
            (* traversal disagreement would mean a skeleton bug; never
               let it corrupt a verdict — run the interpreter instead *)
            fallbacks n;
            None
          end
          else Some plan
      in
      (match plan with
       | None ->
         (* unadmitted or uncompilable family: interpret members one by
            one. The memo probe is skipped exactly as the unbatched
            partition skips it — with the plan cache on, a
            skeleton-sharing family is the compiler's. *)
         List.iteri
           (fun i vec ->
             let stmt = Patterns.batch_stmt b vec in
             ignore
               (classify t ~pattern ?case_number:(number i)
                  ~poc:(fun () -> Sqlfun_ast.Sql_pp.stmt stmt)
                  (fun () -> Engine.exec_stmt t.engine stmt)))
           b.Patterns.b_vecs
       | Some plan ->
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
         (* one PoC closure for the whole batch: it reads the member
            vector out of [cur], so clean cases allocate nothing *)
         let cur = ref b.Patterns.b_slots in
         let poc () = Sqlfun_ast.Sql_pp.stmt (Patterns.batch_stmt b !cur) in
         (* the verdict-counter row and the profiler's root record are
            keyed by dialect x pattern, both constant across the batch:
            resolve them once instead of probing string-keyed tables
            per member *)
         let vrow = Telemetry.verdict_counter t.tel ~dialect ~pattern:pat in
         let root = Profile.root_stats t.xprof in
         Telemetry.with_span t.tel ~dialect ~pattern:pat "execute"
           (fun () ->
             List.iteri
               (fun i vec ->
                 t.executed <- t.executed + 1;
                 let case_number =
                   match first_case with
                   | Some n0 -> n0 + i
                   | None -> t.executed
                 in
                 (* [t.engine] is re-read each member: a crash restart
                    replaces it mid-batch, and the plan stays valid
                    because registries are static per-dialect data *)
                 Sqlfun_functions.Fn_ctx.reset_session
                   (Engine.context t.engine);
                 Array.blit vec 0 buf b.Patterns.b_lo b.Patterns.b_n;
                 (* the root attribution frame covers the engine
                    round-trip only, exactly like [classify]'s —
                    widening it over the verdict bookkeeping would
                    deflate the attribution ratio *)
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
                   settle t ~pattern:(Some pattern) ~pat ~dialect
                     ~case_number ~poc outcome
                 in
                 Telemetry.count_verdict_row t.tel vrow ~dialect
                   ~pattern:pat ~case_number (verdict_class verdict))
               b.Patterns.b_vecs))
  end

let run_cases t ?budget cases =
  let limit = match budget with Some b -> b | None -> max_int in
  let count = ref 0 in
  let rec go cases =
    if !count >= limit then ()
    else
      match Seq.uncons cases with
      | None -> ()
      | Some (case, rest) ->
        incr count;
        ignore (run_case t case);
        go rest
  in
  go cases;
  !count

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
let cases_memoized t = t.memoized
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
