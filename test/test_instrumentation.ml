(* Instrumentation handles: the cast point table, the per-engine
   handles a function resolution keeps (coverage cell, profiler stats
   record, fault specs), the allocation guard that keeps per-event
   formatting and hashing out of the call and cast paths, the spill
   guard that keeps boundary-sized ranges unspilled where they are
   rejected or rendered, the message guard that keeps boundary-sized
   strings out of error messages, and the allocation ratchet over a
   whole campaign. *)

open Sqlfun_engine
open Sqlfun_functions
open Sqlfun_value
open Sqlfun_ast
module Coverage = Sqlfun_coverage.Coverage
module Profile = Sqlfun_telemetry.Profile
module Fault = Sqlfun_fault.Fault
module Old = Kernel_oracles

let plain_targets =
  Ast.
    [ T_bool; T_smallint; T_int; T_bigint; T_unsigned; T_decimal None;
      T_float; T_double; T_char None; T_varchar None; T_text; T_blob; T_date;
      T_time; T_datetime; T_interval_t; T_json; T_inet; T_uuid; T_geometry;
      T_xml; T_row_t ]

let parametric_targets =
  Ast.
    [ T_decimal (Some (10, 2)); T_char (Some 5); T_varchar (Some 255);
      T_array_t T_int; T_array_t (T_array_t T_text); T_map_t (T_text, T_int);
      T_named ("Decimal256", [ 45 ]); T_named ("UInt8", []) ]

let test_cast_point_names () =
  Array.iteri
    (fun i ty -> Alcotest.(check int) "ty_index" i (Value.ty_index ty))
    Value.all_tys;
  Array.iter
    (fun ty ->
      List.iter
        (fun target ->
          List.iter
            (fun (ok, outcome) ->
              let want = Old.cast_point ty target outcome in
              Alcotest.(check string) want want
                (Cast.coverage_point ty target ~ok))
            [ (true, "ok"); (false, "err") ])
        (plain_targets @ parametric_targets))
    Value.all_tys

let strict = { Cast.strictness = Cast.Strict; json_max_depth = Some 512 }

let test_cast_records_its_point () =
  let cases =
    [ (Value.Int 5L, Ast.T_bigint);
      (Value.Str "abc", Ast.T_int);
      (Value.Null, Ast.T_date);
      (Value.Str "abcdef", Ast.T_varchar (Some 2));
      (Value.Int 1L, Ast.T_array_t Ast.T_int) ]
  in
  List.iter
    (fun (v, target) ->
      let cov = Coverage.create () in
      let ok = Result.is_ok (Cast.cast ~cov strict v target) in
      let want =
        Old.cast_point (Value.type_of v) target (if ok then "ok" else "err")
      in
      Alcotest.(check (list (pair string int))) want [ (want, 1) ]
        (Coverage.points cov))
    cases

let parse sql =
  match Sqlfun_parse.Parser.parse_stmt sql with
  | Ok s -> s
  | Error msg -> Alcotest.failf "parse %S: %s" sql msg

let run e stmt =
  match Engine.exec_stmt e stmt with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "exec: %s" (Engine.error_to_string err)

let hits cov point =
  match List.assoc_opt point (Coverage.points cov) with Some n -> n | None -> 0

let eval_count prof ~dialect func =
  List.fold_left
    (fun acc (r : Profile.row) ->
      if r.r_dialect = dialect && r.r_func = func && r.r_phase = Profile.Eval
      then acc + r.r_count
      else acc)
    0 (Profile.rows prof)

let abs_crash =
  {
    Fault.site = "test/abs/minus-seven";
    dialect = "test";
    func = "ABS";
    category = "math";
    kind = Sqlfun_fault.Bug_kind.Segv;
    pattern = Sqlfun_fault.Pattern_id.P1_2;
    status = Fault.Confirmed;
    stage = Fault.Execute;
    trigger = Fault.Arg_at (0, Fault.Int_is (-7L));
    note = "";
  }

let crashes e stmt =
  match Engine.exec_stmt e stmt with
  | _ -> false
  | exception Fault.Crash _ -> true

let test_handle_routing () =
  (* one registry, two engines: every handle a resolution keeps must
     charge the engine in hand *)
  let registry = All_fns.registry () in
  let engine () =
    let cov = Coverage.create () and prof = Profile.create () in
    Profile.set_dialect prof "test";
    let fault = Fault.make [ abs_crash ] in
    (Engine.create ~cov ~fault ~profile:prof ~registry ~dialect:"test" (), cov,
     prof, fault)
  in
  let e1, cov1, prof1, fault1 = engine () in
  let e2, cov2, prof2, _ = engine () in
  let call = parse "SELECT ABS(-1)" in
  List.iter (fun e -> run e call) [ e1; e2; e1; e2; e1; e2; e2; e1 ];
  Alcotest.(check int) "engine 1 fn/ABS" 4 (hits cov1 "fn/ABS");
  Alcotest.(check int) "engine 2 fn/ABS" 4 (hits cov2 "fn/ABS");
  Alcotest.(check int) "engine 1 ABS scopes" 4 (eval_count prof1 ~dialect:"test" "ABS");
  Alcotest.(check int) "engine 2 ABS scopes" 4 (eval_count prof2 ~dialect:"test" "ABS");
  (* only engine 1's fault runtime is armed *)
  Fault.arm fault1;
  let boom = parse "SELECT ABS(-7)" in
  Alcotest.(check bool) "armed engine crashes" true (crashes e1 boom);
  Alcotest.(check bool) "unarmed engine does not" false (crashes e2 boom);
  Alcotest.(check bool) "armed engine still crashes" true (crashes e1 boom)

let test_respawn_keeps_handles () =
  let cov = Coverage.create () and prof = Profile.create () in
  let e =
    Engine.create ~cov ~profile:prof ~registry:(All_fns.registry ())
      ~dialect:"test" ()
  in
  let call = parse "SELECT ABS(-1)" in
  run e call;
  let e' = Engine.restart e (Storage.snapshot (Engine.catalog e)) in
  run e' call;
  run e' call;
  Alcotest.(check int) "fn/ABS across the respawn" 3 (hits cov "fn/ABS");
  Alcotest.(check int) "ABS scopes across the respawn" 3
    (eval_count prof ~dialect:"" "ABS")

let test_reset_keeps_cells () =
  let t = Coverage.create () in
  let c = Coverage.cell t "kept" in
  Alcotest.(check bool) "a cell alone is invisible" false (Coverage.mem t "kept");
  Coverage.hit_cell c;
  Coverage.branch t "b" true;
  ignore (Cast.cast ~cov:t strict (Value.Int 1L) Ast.T_text);
  Coverage.reset t;
  let fresh = Coverage.create () in
  Alcotest.(check (list (pair string int))) "reset = fresh" (Coverage.points fresh)
    (Coverage.points t);
  Alcotest.(check int) "reset count" 0 (Coverage.count t);
  Alcotest.(check (list string)) "reset diff" [] (Coverage.diff t fresh);
  Coverage.hit_cell c;
  Coverage.branch t "b" false;
  ignore (Cast.cast ~cov:t strict (Value.Int 1L) Ast.T_text);
  Alcotest.(check (list (pair string int))) "kept handles count after reset"
    [ ("b/f", 1); ("cast/BIGINT->TEXT/ok", 1); ("kept", 1) ]
    (Coverage.points t);
  Alcotest.(check int) "distinct" 3 (Coverage.count t);
  Alcotest.(check int) "total" 3 (Coverage.total_hits t);
  (* and through an engine: the registry's kept fn/ABS cell *)
  let cov = Coverage.create () in
  let e = Engine.create ~cov ~registry:(All_fns.registry ()) ~dialect:"test" () in
  let call = parse "SELECT ABS(-1)" in
  run e call;
  Coverage.reset cov;
  run e call;
  let cov' = Coverage.create () in
  run (Engine.create ~cov:cov' ~registry:(All_fns.registry ()) ~dialect:"test" ()) call;
  Alcotest.(check (list (pair string int))) "engine after reset = fresh engine"
    (Coverage.points cov') (Coverage.points cov)

let test_dialect_switch () =
  let prof = Profile.create () in
  Profile.set_dialect prof "a";
  let e =
    Engine.create ~profile:prof ~registry:(All_fns.registry ()) ~dialect:"a" ()
  in
  let call = parse "SELECT ABS(-1)" in
  run e call;
  Profile.set_dialect prof "b";
  run e call;
  run e call;
  Alcotest.(check int) "charged to a" 1 (eval_count prof ~dialect:"a" "ABS");
  Alcotest.(check int) "charged to b" 2 (eval_count prof ~dialect:"b" "ABS")

let test_switch () =
  let p = Profile.create () in
  let root = Profile.root_stats p in
  Profile.enter_with p root Profile.Other;
  Profile.enter p Profile.Eval;
  Profile.exit p;
  Profile.switch p Profile.Classify;
  Alcotest.(check int) "sibling at the same depth" 1 (Profile.depth p);
  Profile.exit p;
  Alcotest.(check int) "closed" 0 (Profile.depth p);
  let count phase =
    List.fold_left
      (fun acc (r : Profile.row) -> if r.r_phase = phase then acc + r.r_count else acc)
      0 (Profile.rows p)
  in
  Alcotest.(check (list int)) "one scope each" [ 1; 1; 1 ]
    [ count Profile.Other; count Profile.Eval; count Profile.Classify ]

(* minor words per call of [f], averaged over [n] calls after a
   warm-up; the window is exact because it empties the minor heap at
   both ends *)
let minor_words_per_call n f =
  for _ = 1 to 100 do ignore (Sys.opaque_identity (f ())) done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to n do ignore (Sys.opaque_identity (f ())) done;
  Gc.minor ();
  (Gc.minor_words () -. before) /. float_of_int n

let test_allocation_guard () =
  let n = 10_000 in
  let cov = Coverage.create () and v = Value.Int (-1L) in
  let cast = minor_words_per_call n (fun () -> Cast.cast ~cov strict v Ast.T_bigint) in
  let bare = minor_words_per_call n (fun () -> Cast.convert strict v Ast.T_bigint) in
  if cast > bare then
    Alcotest.failf "a recorded cast allocates %.1f words, its result alone %.1f"
      cast bare;
  let ctx = Fn_ctx.create ~cov ~dialect:"test" () in
  let branch = minor_words_per_call n (fun () -> Fn_ctx.branch ctx "guard" true) in
  if branch > 0. then Alcotest.failf "a branch hit allocates %.1f words" branch;
  (* an armed engine, so the call consults the fault specs too *)
  let prof = Sqlfun_dialects.Dialect.find_exn "mysql" in
  let e = Sqlfun_dialects.Dialect.make_engine ~armed:true prof in
  let stmt sql =
    let s = parse sql in
    fun () -> Engine.exec_stmt e s
  in
  let call = minor_words_per_call n (stmt "SELECT ABS(-1)") in
  let no_call = minor_words_per_call n (stmt "SELECT -1") in
  (* 27 words: the argument list cell, the result record, and ABS's own
     option, int64 and value boxes. A name built, an option returned by
     a table probe or a closure made per call shows up above it. *)
  if call -. no_call > 27. then
    Alcotest.failf "an interpreted ABS(-1) call allocates %.1f words"
      (call -. no_call)

(* [f ()] and the words it allocates on the minor heap and directly on
   the major heap (major minus promoted). Emptying the minor heap at
   both ends makes both counts exact; without it the minor count moved
   by up to a minor heap's size from one window to the next. *)
let minor_and_direct_major f =
  Gc.minor ();
  let mi0, pr0, ma0 = Gc.counters () in
  let r = f () in
  Gc.minor ();
  let mi1, pr1, ma1 = Gc.counters () in
  (r, mi1 -. mi0, ma1 -. ma0 -. (pr1 -. pr0))

let outcome = function
  | Ok o -> Engine.outcome_to_string o
  | Error err -> Engine.error_to_string err

let engine d =
  Sqlfun_dialects.Dialect.make_engine ~armed:true (Sqlfun_dialects.Dialect.find_exn d)

(* words allocated on either heap by [f ()] (a promoted word is counted
   once, at its minor allocation) and the compact spills it adds *)
let words_and_spills f =
  let s0 = Value.Compact.read () in
  let r, minor, major = minor_and_direct_major f in
  (r, minor +. major, (Value.Compact.since s0).spills)

let test_spill_guard () =
  (* A boundary-sized RANGE that a scalar argument rejects, or that a
     TEXT column renders, is answered from first/step/len: no spill, and
     a word count well below its cells. Spilling them cost 5.9M, 1.7M
     and 1.45M words; these statements take 335, 262 and 86k, nearly
     all of the INSERT's being the rendered string. The outcomes are
     the boxed path's. *)
  let check e (sql, want, bound) =
    let stmt = parse sql in
    let got, words, spills = words_and_spills (fun () -> Engine.exec_stmt e stmt) in
    Alcotest.(check string) sql want (outcome got);
    Alcotest.(check int) (sql ^ " spills") 0 spills;
    if words > bound then
      Alcotest.failf "%s allocates %.0f words (bound %.0f)" sql words bound
  in
  let ch = engine "clickhouse" in
  List.iter (check ch)
    [ ("SELECT FROM_DAYS(RANGE(738000))", "ERROR: cannot coerce ARRAY to an integer", 1e3);
      ("SELECT PERIOD_ADD(RANGE(202305), 3)",
       "ERROR: cannot coerce ARRAY to an integer", 1e3) ];
  let duck = engine "duckdb" in
  run duck (parse "CREATE TABLE t (v TEXT)");
  check duck ("INSERT INTO t VALUES (RANGE(99999))", "OK, 1 row(s) affected", 4e5);
  match Engine.exec_sql duck "SELECT LENGTH(v) FROM t" with
  | Ok o -> Alcotest.(check string) "rendered length" "col1\n688883" (Engine.outcome_to_string o)
  | Error err -> Alcotest.fail (Engine.error_to_string err)

let test_message_guard () =
  (* A strict cast error quotes at most 64 bytes of its argument
     (Value.quote). Quoting the whole flattened SPACE(2460000) cost
     ~1.76M words, most of it straight on the major heap; what is left
     is the 310k-word flatten itself, which the lenient dialect pays
     too. PERIOD_ADD's 202305-byte argument is flattened in 25k words. *)
  let check (d, sql, want, bound) =
    let e = engine d in
    (* a fresh engine's first statement pays one-time set-up *)
    run e (parse "SELECT 1");
    let stmt = parse sql in
    let got, words, _ = words_and_spills (fun () -> Engine.exec_stmt e stmt) in
    Alcotest.(check string) (d ^ ": " ^ sql) want (outcome got);
    if words > bound then
      Alcotest.failf "%s on %s allocates %.0f words (bound %.0f)" sql d words bound
  in
  let not_an_integer n =
    Printf.sprintf "ERROR: invalid cast: %S... (%d bytes) is not an integer"
      (String.make 64 ' ') n
  in
  List.iter check
    [ ("clickhouse", "SELECT FROM_DAYS(SPACE(2460000))", not_an_integer 2460000, 4e5);
      ("mysql", "SELECT FROM_DAYS(SPACE(2460000))", "col1\nNULL", 4e5);
      ("clickhouse", "SELECT PERIOD_ADD(SPACE(202305), 3)", not_an_integer 202305, 4e4) ]

let test_allocation_ratchet () =
  (* Exhaustive monetdb at 1x1 (55,207 cases) allocates the same number
     of words in every run, so a per-case allocation added anywhere on
     the campaign path shows here exactly. The recorded counts are
     OCaml 5.1.1's; the first campaign in a process also pays lazy
     global set-up, so the second is measured. A change that raises a
     count on purpose re-records it (CHANGES.md says how). *)
  if Sys.ocaml_version <> "5.1.1" then Alcotest.skip ();
  let campaign () =
    Soft.Soft_runner.fuzz ~shards:1 ~jobs:1
      (Sqlfun_dialects.Dialect.find_exn "monetdb")
  in
  ignore (campaign ());
  let _, minor, major = minor_and_direct_major campaign in
  Printf.printf "minor words %.0f, direct major words %.0f\n" minor major;
  let check what got recorded =
    if got > recorded then
      Alcotest.failf "exhaustive monetdb allocates %.0f %s (recorded %.0f)" got
        what recorded
  in
  check "minor words" minor 30_377_267.;
  check "direct major words" major 832_237.

let suite =
  ( "instrumentation",
    [
      Alcotest.test_case "cast point table equals the old formatter" `Quick
        test_cast_point_names;
      Alcotest.test_case "a cast records its point" `Quick test_cast_records_its_point;
      Alcotest.test_case "handles route to their own engine" `Quick
        test_handle_routing;
      Alcotest.test_case "respawn keeps the handles" `Quick test_respawn_keeps_handles;
      Alcotest.test_case "reset keeps kept cells counting" `Quick test_reset_keeps_cells;
      Alcotest.test_case "dialect switch re-binds the stats" `Quick test_dialect_switch;
      Alcotest.test_case "switch opens a sibling scope" `Quick test_switch;
      Alcotest.test_case "allocation guard" `Quick test_allocation_guard;
      Alcotest.test_case "spill guard" `Quick test_spill_guard;
      Alcotest.test_case "message guard" `Quick test_message_guard;
      Alcotest.test_case "allocation ratchet" `Quick test_allocation_ratchet;
    ] )
