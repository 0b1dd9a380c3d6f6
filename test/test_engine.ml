open Sqlfun_engine
open Sqlfun_functions
open Sqlfun_value

let make_engine ?(strict = true) () =
  let cast_cfg =
    {
      Cast.strictness = (if strict then Cast.Strict else Cast.Lenient);
      json_max_depth = Some 512;
    }
  in
  Engine.create ~registry:(All_fns.registry ()) ~cast_cfg ~dialect:"test" ()

let exec e sql =
  match Engine.exec_sql e sql with
  | Ok o -> o
  | Error err -> Alcotest.failf "exec failed for %S: %s" sql (Engine.error_to_string err)

let exec_err e sql =
  match Engine.exec_sql e sql with
  | Ok _ -> Alcotest.failf "expected error for %S" sql
  | Error err -> err

let one_value e sql =
  match exec e sql with
  | Engine.Rows { rows = [ [ v ] ]; _ } -> v
  | Engine.Rows rs ->
    Alcotest.failf "expected single value for %S, got %d rows x %d cols" sql
      (List.length rs.Interp.rows)
      (List.length rs.Interp.columns)
  | Engine.Affected _ -> Alcotest.failf "expected rows for %S" sql

let check_display e sql expected =
  Alcotest.(check string) sql expected (Value.to_display (one_value e sql))

let test_select_literals () =
  let e = make_engine () in
  check_display e "SELECT 1" "1";
  check_display e "SELECT 'hi'" "hi";
  check_display e "SELECT NULL" "NULL";
  check_display e "SELECT TRUE" "TRUE";
  check_display e "SELECT 1.50" "1.50";
  check_display e "SELECT -9999999999999999999999" "-9999999999999999999999"

let test_arithmetic () =
  let e = make_engine () in
  check_display e "SELECT 1 + 2 * 3" "7";
  check_display e "SELECT 10 / 4" "2.5000";
  check_display e "SELECT 10 % 3" "1";
  check_display e "SELECT 1.5 + 0.25" "1.75";
  check_display e "SELECT -(5)" "-5";
  check_display e "SELECT 2 < 3" "TRUE";
  check_display e "SELECT 'ab' || 'cd'" "abcd";
  check_display e "SELECT 5 & 3" "1";
  check_display e "SELECT 1 << 4" "16";
  check_display e "SELECT NULL + 1" "NULL"

let test_strict_vs_lenient () =
  let strict = make_engine ~strict:true () in
  let lenient = make_engine ~strict:false () in
  (* division by zero *)
  (match exec_err strict "SELECT 1 / 0" with
   | Engine.Sql_failed _ -> ()
   | _ -> Alcotest.fail "strict div by zero should be SQL error");
  check_display lenient "SELECT 1 / 0" "NULL";
  (* string to int casting *)
  (match exec_err strict "SELECT CAST('12abc' AS BIGINT)" with
   | Engine.Sql_failed _ -> ()
   | _ -> Alcotest.fail "strict bad cast should fail");
  check_display lenient "SELECT CAST('12abc' AS BIGINT)" "12";
  (* overflow promotes in lenient, errors in strict *)
  (match exec_err strict "SELECT 9223372036854775807 + 1" with
   | Engine.Sql_failed _ -> ()
   | _ -> Alcotest.fail "strict overflow should fail");
  check_display lenient "SELECT 9223372036854775807 + 1" "9223372036854775808"

let test_functions_through_sql () =
  let e = make_engine () in
  check_display e "SELECT LENGTH('hello')" "5";
  check_display e "SELECT UPPER('abc')" "ABC";
  check_display e "SELECT REPEAT('ab', 3)" "ababab";
  check_display e "SELECT CONCAT('a', 1, NULL)" "NULL";
  check_display e "SELECT IFNULL(NULL, 'x')" "x";
  check_display e "SELECT COALESCE(NULL, NULL, 3)" "3";
  check_display e "SELECT ABS(-2.5)" "2.5";
  check_display e "SELECT FORMAT(1234567.891, 2)" "1,234,567.89";
  check_display e "SELECT FORMAT(1234567.891, 2, 'de_DE')" "1.234.567,89";
  check_display e "SELECT JSON_LENGTH('[1,2,3]')" "3";
  check_display e "SELECT JSON_EXTRACT('{\"a\": [1, 2]}', '$.a[1]')" "2";
  check_display e "SELECT ARRAY_LENGTH(ARRAY[1, 2, 3])" "3";
  check_display e "SELECT ST_ASTEXT(POINT(1, 2))" "POINT(1 2)";
  check_display e "SELECT YEAR('2023-05-17')" "2023";
  check_display e "SELECT DATEDIFF('2024-01-01', '2023-01-01')" "365";
  check_display e "SELECT INET6_NTOA(INET6_ATON('::1'))" "::1";
  check_display e
    "SELECT UPDATEXML('<a><c></c></a>', '/a/c[1]', '<c><b></b></c>')"
    "<a><c><b></b></c></a>";
  check_display e "SELECT INTERVAL(23, 1, 15, 17, 30, 44, 200)" "3"

let test_nested_function_calls () =
  let e = make_engine () in
  check_display e "SELECT LENGTH(REPEAT('ab', 10))" "20";
  check_display e "SELECT UPPER(CONCAT('a', LOWER('B')))" "AB";
  check_display e "SELECT JSON_LENGTH(JSON_ARRAY(1, 2, 3))" "3"

let test_unknown_function () =
  let e = make_engine () in
  match exec_err e "SELECT NO_SUCH_FN(1)" with
  | Engine.Sql_failed msg ->
    Alcotest.(check bool) "mentions function" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "unknown function should be SQL error"

let test_tables_crud () =
  let e = make_engine () in
  (match exec e "CREATE TABLE t (a INT, b TEXT)" with
   | Engine.Affected 0 -> ()
   | _ -> Alcotest.fail "create");
  (match exec e "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')" with
   | Engine.Affected 3 -> ()
   | _ -> Alcotest.fail "insert");
  (match exec e "SELECT * FROM t" with
   | Engine.Rows { columns = [ "a"; "b" ]; rows } ->
     Alcotest.(check int) "3 rows" 3 (List.length rows)
   | _ -> Alcotest.fail "select star");
  check_display e "SELECT b FROM t WHERE a = 2" "y";
  (match exec e "SELECT a FROM t WHERE a > 1" with
   | Engine.Rows { rows; _ } -> Alcotest.(check int) "filtered" 2 (List.length rows)
   | _ -> Alcotest.fail "where");
  (match exec e "DROP TABLE t" with
   | Engine.Affected 0 -> ()
   | _ -> Alcotest.fail "drop");
  match exec_err e "SELECT * FROM t" with
  | Engine.Sql_failed _ -> ()
  | _ -> Alcotest.fail "dropped table should be unknown"

let test_insert_casting () =
  let e = make_engine () in
  ignore (exec e "CREATE TABLE t (a DECIMAL(10,2), b DATE)");
  ignore (exec e "INSERT INTO t VALUES ('3.14159', '2023-05-17')");
  check_display e "SELECT a FROM t" "3.14";
  check_display e "SELECT b FROM t" "2023-05-17";
  (* NOT NULL violation *)
  ignore (exec e "CREATE TABLE u (a INT NOT NULL)");
  match exec_err e "INSERT INTO u VALUES (NULL)" with
  | Engine.Sql_failed _ -> ()
  | _ -> Alcotest.fail "not null violation"

let test_aggregates () =
  let e = make_engine () in
  ignore (exec e "CREATE TABLE t (g TEXT, v INT)");
  ignore
    (exec e
       "INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 10), ('b', 20), ('b', NULL)");
  check_display e "SELECT COUNT(*) FROM t" "5";
  check_display e "SELECT COUNT(v) FROM t" "4";
  check_display e "SELECT SUM(v) FROM t" "33";
  check_display e "SELECT AVG(v) FROM t" "8.2500";
  check_display e "SELECT MIN(v) FROM t" "1";
  check_display e "SELECT MAX(v) FROM t" "20";
  check_display e "SELECT GROUP_CONCAT(v) FROM t WHERE g = 'a'" "1,2";
  (match exec e "SELECT g, SUM(v) FROM t GROUP BY g" with
   | Engine.Rows { rows; _ } -> Alcotest.(check int) "2 groups" 2 (List.length rows)
   | _ -> Alcotest.fail "group by");
  (match exec e "SELECT g FROM t GROUP BY g HAVING SUM(v) > 5" with
   | Engine.Rows { rows = [ [ Value.Str "b" ] ]; _ } -> ()
   | _ -> Alcotest.fail "having");
  check_display e "SELECT COUNT(DISTINCT g) FROM t" "2";
  (* aggregate over no rows *)
  check_display e "SELECT SUM(v) FROM t WHERE v > 100" "NULL";
  check_display e "SELECT COUNT(*) FROM t WHERE v > 100" "0"

let test_distinct_and_order () =
  let e = make_engine () in
  ignore (exec e "CREATE TABLE t (a INT)");
  ignore (exec e "INSERT INTO t VALUES (3), (1), (2), (1)");
  (match exec e "SELECT DISTINCT a FROM t" with
   | Engine.Rows { rows; _ } -> Alcotest.(check int) "distinct" 3 (List.length rows)
   | _ -> Alcotest.fail "distinct");
  (match exec e "SELECT a FROM t ORDER BY a" with
   | Engine.Rows { rows; _ } ->
     Alcotest.(check (list string)) "sorted" [ "1"; "1"; "2"; "3" ]
       (List.map (fun r -> Value.to_display (List.hd r)) rows)
   | _ -> Alcotest.fail "order");
  (match exec e "SELECT a FROM t ORDER BY 1 DESC LIMIT 2" with
   | Engine.Rows { rows; _ } ->
     Alcotest.(check (list string)) "desc limit" [ "3"; "2" ]
       (List.map (fun r -> Value.to_display (List.hd r)) rows)
   | _ -> Alcotest.fail "order desc")

let test_union () =
  let e = make_engine () in
  (match exec e "SELECT 1 UNION SELECT 2 UNION SELECT 1" with
   | Engine.Rows { rows; _ } -> Alcotest.(check int) "union dedup" 2 (List.length rows)
   | _ -> Alcotest.fail "union");
  (match exec e "SELECT 1 UNION ALL SELECT 1" with
   | Engine.Rows { rows; _ } -> Alcotest.(check int) "union all" 2 (List.length rows)
   | _ -> Alcotest.fail "union all");
  (* implicit cast across UNION: int + string -> the left side's type *)
  (match exec e "SELECT 1 UNION SELECT '2'" with
   | Engine.Rows { rows; _ } ->
     Alcotest.(check int) "coerced union" 2 (List.length rows)
   | _ -> Alcotest.fail "union coerce");
  match exec_err e "SELECT 1 UNION SELECT 1, 2" with
  | Engine.Sql_failed _ -> ()
  | _ -> Alcotest.fail "column count mismatch"

let test_subqueries () =
  let e = make_engine () in
  ignore (exec e "CREATE TABLE t (a INT)");
  ignore (exec e "INSERT INTO t VALUES (5), (7)");
  check_display e "SELECT (SELECT MAX(a) FROM t)" "7";
  check_display e "SELECT * FROM (SELECT a FROM t WHERE a > 6) sq" "7";
  check_display e "SELECT EXISTS (SELECT a FROM t WHERE a = 5)" "TRUE";
  check_display e "SELECT (3 IN (SELECT a FROM t))" "FALSE";
  check_display e "SELECT (5 IN (SELECT a FROM t))" "TRUE"

let test_case_like_between () =
  let e = make_engine () in
  check_display e "SELECT CASE WHEN 1 < 2 THEN 'y' ELSE 'n' END" "y";
  check_display e "SELECT CASE 3 WHEN 1 THEN 'a' WHEN 3 THEN 'c' END" "c";
  check_display e "SELECT ('hello' LIKE 'h%o')" "TRUE";
  check_display e "SELECT ('hello' LIKE 'h_llo')" "TRUE";
  check_display e "SELECT ('hello' LIKE 'x%')" "FALSE";
  check_display e "SELECT (5 BETWEEN 1 AND 10)" "TRUE";
  check_display e "SELECT (5 NOT BETWEEN 1 AND 10)" "FALSE";
  check_display e "SELECT (2 IN (1, 2, 3))" "TRUE";
  check_display e "SELECT (NULL IS NULL)" "TRUE";
  check_display e "SELECT (1 IS NOT NULL)" "TRUE"

let test_three_valued_logic () =
  let e = make_engine () in
  check_display e "SELECT (NULL AND FALSE)" "FALSE";
  check_display e "SELECT (NULL AND TRUE)" "NULL";
  check_display e "SELECT (NULL OR TRUE)" "TRUE";
  check_display e "SELECT (NULL OR FALSE)" "NULL";
  check_display e "SELECT (NULL = NULL)" "NULL";
  check_display e "SELECT NOT NULL" "NULL"

let test_casts_through_sql () =
  let e = make_engine () in
  check_display e "SELECT CAST('110' AS DECIMAL256(45))" "110.000000000000000000000000000000000000000000000";
  check_display e "SELECT '42'::BIGINT" "42";
  check_display e "SELECT CAST('2023-05-17' AS DATE)" "2023-05-17";
  check_display e "SELECT CAST('[1,2]' AS JSON)" "[1,2]";
  check_display e "SELECT CONVERT('12', SIGNED)" "12";
  check_display e "SELECT CONVERT(NULL, UNSIGNED)" "NULL"

let test_step_budget () =
  let e =
    Engine.create ~registry:(All_fns.registry ())
      ~limits:{ Fn_ctx.max_string_bytes = 1000; max_collection = 100; max_steps = 1000 }
      ~dialect:"test" ()
  in
  (* an enormous REPEAT trips the allocation cap: the paper's FP class *)
  match Engine.exec_sql e "SELECT REPEAT('a', 9999999999)" with
  | Error (Engine.Limit_hit _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected resource limit"

let test_date_interval_arith () =
  let e = make_engine () in
  check_display e "SELECT CAST('2023-01-31' AS DATE) + INTERVAL 1 MONTH"
    "2023-02-28 00:00:00";
  check_display e "SELECT DATE_ADD('2023-01-01', INTERVAL 2 DAY)"
    "2023-01-03 00:00:00";
  check_display e "SELECT LAST_DAY('2024-02-03')" "2024-02-29"

let test_star_argument_rejected () =
  let e = make_engine () in
  (* a correct engine rejects '*' outside COUNT *)
  match exec_err e "SELECT CONTAINS('x', 'x', *)" with
  | Engine.Sql_failed msg ->
    Alcotest.(check bool) "mentions star" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "star argument must be a clean error when unfaulted"

let test_row_in_interval_rejected () =
  let e = make_engine () in
  match exec_err e "SELECT INTERVAL(ROW(1,1), ROW(1,2))" with
  | Engine.Sql_failed _ -> ()
  | _ -> Alcotest.fail "ROW in INTERVAL must be a clean error when unfaulted"

let test_json_depth_is_clean_error_by_default () =
  let e = make_engine () in
  match Engine.exec_sql e "SELECT REPEAT('[', 1000)::JSON" with
  | Error (Engine.Sql_failed _) -> ()
  | Ok _ -> Alcotest.fail "deep json should not parse"
  | Error other ->
    Alcotest.failf "expected clean error, got %s" (Engine.error_to_string other)

let test_script_execution () =
  let e = make_engine () in
  match
    Engine.exec_script e
      "CREATE TABLE s (x INT); INSERT INTO s VALUES (1), (2); SELECT SUM(x) FROM s"
  with
  | Ok [ _; _; Engine.Rows { rows = [ [ v ] ]; _ } ] ->
    Alcotest.(check string) "sum" "3" (Value.to_display v)
  | Ok _ -> Alcotest.fail "unexpected script shape"
  | Error err -> Alcotest.failf "script failed: %s" (Engine.error_to_string err)

let test_sequences () =
  let e = make_engine () in
  check_display e "SELECT NEXTVAL('sq')" "1";
  check_display e "SELECT NEXTVAL('sq')" "2";
  check_display e "SELECT LASTVAL('sq')" "2";
  check_display e "SELECT SETVAL('sq', 10)" "10";
  check_display e "SELECT NEXTVAL('sq')" "11"

let test_restart_respawns () =
  (* a respawn renews the session and the tables and shares the static
     per-dialect data: registry, fault runtime, coverage, profiler *)
  let e = make_engine () in
  ignore
    (Engine.exec_script e "CREATE TABLE r (x INT); INSERT INTO r VALUES (1)");
  check_display e "SELECT NEXTVAL('sq')" "1";
  let ctx = Engine.context e in
  ctx.Fn_ctx.last_insert_id <- 5L;
  ctx.Fn_ctx.row_count <- 3;
  let snap = Storage.snapshot (Engine.catalog e) in
  ignore
    (Engine.exec_script e
       "CREATE TABLE later (y INT); INSERT INTO r VALUES (2)");
  let e' = Engine.restart e snap in
  let ctx' = Engine.context e' in
  Alcotest.(check bool) "fresh session" false (ctx' == ctx);
  Alcotest.(check int) "no sequences" 0 (Hashtbl.length ctx'.Fn_ctx.sequences);
  Alcotest.(check int64) "last_insert_id reset" 0L ctx'.Fn_ctx.last_insert_id;
  Alcotest.(check int) "row_count reset" 0 ctx'.Fn_ctx.row_count;
  Alcotest.(check int) "step counter reset" 0 ctx'.Fn_ctx.steps;
  Alcotest.(check bool) "registry shared" true
    (Engine.registry e' == Engine.registry e);
  Alcotest.(check bool) "fault runtime shared" true
    (ctx'.Fn_ctx.fault == ctx.Fn_ctx.fault);
  Alcotest.(check bool) "coverage shared" true
    (ctx'.Fn_ctx.cov == ctx.Fn_ctx.cov);
  Alcotest.(check bool) "profiler shared" true
    (Engine.profile e' == Engine.profile e
    && Storage.profile (Engine.catalog e') == Engine.profile e);
  Alcotest.(check bool) "fresh catalog" false
    (Engine.catalog e' == Engine.catalog e);
  Alcotest.(check (list string)) "tables as snapshotted" [ "r" ]
    (Storage.table_names (Engine.catalog e'));
  check_display e' "SELECT SUM(x) FROM r" "1";
  check_display e' "SELECT NEXTVAL('sq')" "1"

(* ----- compiled plans against the interpreter -----

   A family's compiled plan must be observably identical to
   interpreting each member. Every slot of each skeleton below is
   refilled with every boundary literal kind, one slot at a time; the
   member runs as a compiled plan on one engine and as its
   reconstructed statement on a twin engine. The outcome (typed values
   or error), any crash, the hit-counted coverage, the profile's
   per-function scope counts and the tick count must agree. Several
   skeletons hold a constant subquery, [EXISTS] or [IN (SELECT ...)]
   beside the varying slots: a campaign family can carry one, and no
   other test runs those branches of the compiler. *)

let plan_skeletons =
  [
    "SELECT ABS(ROUND(1.5, 1)), CONCAT('a', UPPER('b')), ABS(-7)";
    "SELECT CAST(1 AS BIGINT), CAST('x' AS DATE), CAST(2 AS DECIMAL(10, 2))";
    "SELECT -1, NOT 1, ~1, 1 + 2, 3 - 4, 3 * 4, 5 / 6, 7 % 8, 'a' || 'b'";
    "SELECT 1 = 2, 1 <> 2, 1 < 2, 1 >= 2, 1 AND 0, 1 OR 0, 'a' LIKE 'b'";
    "SELECT 1 & 2, 1 | 2, 1 ^ 2, 1 << 2, 8 >> 1, 1 IS NULL, 1 IS NOT NULL";
    "SELECT CASE 1 WHEN 2 THEN 3 ELSE 4 END, CASE WHEN 1 THEN 2 END";
    "SELECT 1 BETWEEN 2 AND 3, ABS(1) IN (2, 3, NULL)";
    "SELECT ROW(1, 'a'), ARRAY[1, 2], CONVERT(1, CHAR)";
    "SELECT ABS(1) + (SELECT 5), UPPER('a')";
    "SELECT EXISTS (SELECT 1), LENGTH('a')";
    "SELECT 1 IN (SELECT 2), 1 IN (3, (SELECT 4))";
    "SELECT (SELECT 1 UNION SELECT 2), ABS(1)";
    "SELECT NO_SUCH_FUNCTION(1), ABS(DISTINCT 1)";
    "SELECT DATE('2024-01-31') + INTERVAL 1 MONTH, \
     INTERVAL 2 DAY + DATE('2024-02-28'), DATE('2024-03-01') - INTERVAL 1 YEAR";
    "SELECT LENGTH(REPEAT('ab', 3000) || 'x'), 'y' || REPEAT('c', 5000)";
  ]

let boundary_literals =
  Sqlfun_ast.Ast.
    [ Null; Bool_lit true; Bool_lit false; Int_lit "0"; Int_lit "-7";
      Int_lit "9223372036854775807"; Int_lit "99999999999999999999";
      Dec_lit "1.5"; Dec_lit "-0.000001"; Str_lit ""; Str_lit "abc";
      Str_lit "2024-02-29"; Hex_lit ""; Hex_lit "\xff\x00" ]

let test_compiled_matches_interpreter () =
  let module Ast_util = Sqlfun_ast.Ast_util in
  let module Coverage = Sqlfun_coverage.Coverage in
  let module Profile = Sqlfun_telemetry.Profile in
  let module Fault = Sqlfun_fault.Fault in
  let registry = All_fns.registry () in
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
  in
  let twin () =
    let cov = Coverage.create () and prof = Profile.create () in
    let fault = Fault.make [ abs_crash ] in
    Fault.arm fault;
    (Engine.create ~cov ~fault ~profile:prof ~registry ~dialect:"test" (),
     cov, prof)
  in
  let ce, ccov, cprof = twin () and ie, icov, iprof = twin () in
  let typed = function
    | Engine.Rows rs ->
      String.concat " | " rs.Interp.columns
      :: List.map
           (fun row ->
             String.concat " | "
               (List.map
                  (fun v ->
                    Value.ty_name (Value.type_of v) ^ ":" ^ Value.to_display v)
                  row))
           rs.Interp.rows
      |> String.concat "\n"
    | Engine.Affected n -> Printf.sprintf "affected %d" n
  in
  let observe e run =
    let r =
      match run () with
      | Ok o -> "ok " ^ typed o
      | Error err -> "error " ^ Engine.error_to_string err
      | exception Fault.Crash spec -> "crash " ^ spec.Fault.site
    in
    (r, (Engine.context e).Fn_ctx.steps)
  in
  let fn_scopes prof =
    List.filter_map
      (fun (r : Profile.row) ->
        if r.Profile.r_func = "" then None
        else Some (r.Profile.r_func, r.Profile.r_count))
      (Profile.rows prof)
    |> List.sort compare
  in
  let crashes = ref 0 and errors = ref 0 and members = ref 0 in
  List.iter
    (fun sql ->
      let skel =
        match Sqlfun_parse.Parser.parse_stmt sql with
        | Ok s -> s
        | Error msg -> Alcotest.failf "parse %S: %s" sql msg
      in
      let slots =
        Array.of_list
          (List.rev (Ast_util.fold_slots (fun acc e -> e :: acc) [] skel))
      in
      let plan =
        match Compile.compile ~registry skel with
        | Compile.Plan p -> p
        | Compile.Fallback -> Alcotest.failf "%S should compile" sql
      in
      Alcotest.(check int) (sql ^ ": slot count") (Array.length slots)
        (Compile.n_slots plan);
      Array.iteri
        (fun i _ ->
          List.iter
            (fun lit ->
              let vec = Array.copy slots in
              vec.(i) <- lit;
              (* the reference statement: the skeleton with its [i]-th
                 slot node (found by physical identity) swapped for
                 [lit]; its slot vector must then be [vec] *)
              let stmt =
                Ast_util.map_exprs
                  (fun e -> if e == slots.(i) then lit else e)
                  skel
              in
              if
                Ast_util.fold_slots (fun acc e -> e :: acc) [] stmt
                <> List.rev (Array.to_list vec)
              then Alcotest.failf "%S: slot %d swap missed" sql i;
              let label = Sqlfun_ast.Sql_pp.stmt stmt in
              let got, got_steps =
                observe ce (fun () -> Engine.exec_compiled ce plan vec)
              in
              let want, want_steps =
                observe ie (fun () -> Engine.exec_stmt ie stmt)
              in
              incr members;
              if String.starts_with ~prefix:"crash" want then incr crashes;
              if String.starts_with ~prefix:"error" want then incr errors;
              Alcotest.(check string) (label ^ ": outcome") want got;
              Alcotest.(check int) (label ^ ": ticks") want_steps got_steps;
              Alcotest.(check (list (pair string int)))
                (label ^ ": coverage") (Coverage.points icov)
                (Coverage.points ccov);
              Alcotest.(check (list (pair string int)))
                (label ^ ": function scopes") (fn_scopes iprof)
                (fn_scopes cprof))
            boundary_literals)
        slots)
    plan_skeletons;
  (* the comparison is vacuous unless it reached crashes and errors *)
  Alcotest.(check bool) "members ran" true (!members > 500);
  Alcotest.(check bool) "some members crashed" true (!crashes > 0);
  Alcotest.(check bool) "some members errored" true (!errors > 0)

let test_aggregate_projections_fall_back () =
  let registry = All_fns.registry () in
  List.iter
    (fun sql ->
      match Sqlfun_parse.Parser.parse_stmt sql with
      | Error msg -> Alcotest.failf "parse %S: %s" sql msg
      | Ok stmt ->
        (match Compile.compile ~registry stmt with
         | Compile.Fallback -> ()
         | Compile.Plan _ -> Alcotest.failf "%S compiled" sql))
    [ "SELECT COUNT(1)"; "SELECT SUM(1) + 1"; "SELECT ABS(1), MAX('a')";
      "SELECT 1 FROM t"; "SELECT DISTINCT 1"; "SELECT *"; "SELECT 1 LIMIT 1" ]

let suite =
  ( "engine",
    [
      Alcotest.test_case "select literals" `Quick test_select_literals;
      Alcotest.test_case "arithmetic" `Quick test_arithmetic;
      Alcotest.test_case "strict vs lenient" `Quick test_strict_vs_lenient;
      Alcotest.test_case "functions through sql" `Quick test_functions_through_sql;
      Alcotest.test_case "nested calls" `Quick test_nested_function_calls;
      Alcotest.test_case "unknown function" `Quick test_unknown_function;
      Alcotest.test_case "tables crud" `Quick test_tables_crud;
      Alcotest.test_case "insert casting" `Quick test_insert_casting;
      Alcotest.test_case "aggregates" `Quick test_aggregates;
      Alcotest.test_case "distinct and order" `Quick test_distinct_and_order;
      Alcotest.test_case "union" `Quick test_union;
      Alcotest.test_case "subqueries" `Quick test_subqueries;
      Alcotest.test_case "case/like/between" `Quick test_case_like_between;
      Alcotest.test_case "three-valued logic" `Quick test_three_valued_logic;
      Alcotest.test_case "casts through sql" `Quick test_casts_through_sql;
      Alcotest.test_case "step budget" `Quick test_step_budget;
      Alcotest.test_case "date interval arithmetic" `Quick test_date_interval_arith;
      Alcotest.test_case "star argument rejected" `Quick test_star_argument_rejected;
      Alcotest.test_case "row in INTERVAL rejected" `Quick test_row_in_interval_rejected;
      Alcotest.test_case "json depth clean error" `Quick test_json_depth_is_clean_error_by_default;
      Alcotest.test_case "script execution" `Quick test_script_execution;
      Alcotest.test_case "sequences" `Quick test_sequences;
      Alcotest.test_case "restart respawns" `Quick test_restart_respawns;
      Alcotest.test_case "compiled plans match the interpreter" `Quick
        test_compiled_matches_interpreter;
      Alcotest.test_case "aggregate projections fall back" `Quick
        test_aggregate_projections_fall_back;
    ] )
