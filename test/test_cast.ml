(** Systematic tests of the casting matrix — the substrate of every P2.x
    pattern. Strict and lenient configurations are exercised side by side,
    plus qcheck totality properties (the matrix must never raise outside
    the declared error channel). *)

open Sqlfun_value
open Sqlfun_ast
open Sqlfun_num
open Sqlfun_data

let strict = { Cast.strictness = Cast.Strict; json_max_depth = Some 512 }
let lenient = { Cast.strictness = Cast.Lenient; json_max_depth = Some 512 }

let cast ?(cfg = strict) v ty = Cast.convert cfg v ty

let ok ?cfg v ty expected =
  match cast ?cfg v ty with
  | Ok r ->
    Alcotest.(check string)
      (Printf.sprintf "%s -> %s" (Value.to_display v) (Sql_pp.type_name ty))
      expected (Value.to_display r)
  | Error e ->
    Alcotest.failf "cast %s -> %s failed: %s" (Value.to_display v)
      (Sql_pp.type_name ty) (Cast.error_to_string e)

let fails ?cfg v ty =
  match cast ?cfg v ty with
  | Ok r ->
    Alcotest.failf "cast %s -> %s unexpectedly gave %s" (Value.to_display v)
      (Sql_pp.type_name ty) (Value.to_display r)
  | Error _ -> ()

let test_null_casts_everywhere () =
  List.iter
    (fun ty ->
      ok Value.Null ty "NULL";
      ok ~cfg:lenient Value.Null ty "NULL")
    [
      Ast.T_bool; Ast.T_int; Ast.T_bigint; Ast.T_unsigned;
      Ast.T_decimal (Some (10, 2)); Ast.T_double; Ast.T_text; Ast.T_blob;
      Ast.T_date; Ast.T_time; Ast.T_datetime; Ast.T_json;
      Ast.T_array_t Ast.T_int; Ast.T_inet; Ast.T_uuid; Ast.T_geometry;
      Ast.T_xml; Ast.T_row_t; Ast.T_interval_t;
    ]

let test_integer_targets () =
  ok (Value.Int 42L) Ast.T_bigint "42";
  ok (Value.Str "42") Ast.T_bigint "42";
  ok (Value.Str " -7 ") Ast.T_bigint "-7";
  ok (Value.Dec (Decimal.of_string_exn "3.7")) Ast.T_bigint "4";
  ok (Value.Float 2.4) Ast.T_bigint "2";
  ok (Value.Bool true) Ast.T_int "1";
  (* range checks *)
  fails (Value.Int 40000L) Ast.T_smallint;
  ok ~cfg:lenient (Value.Int 40000L) Ast.T_smallint "32767";
  fails (Value.Int 3000000000L) Ast.T_int;
  ok ~cfg:lenient (Value.Int (-3000000000L)) Ast.T_int "-2147483648";
  (* garbage strings *)
  fails (Value.Str "abc") Ast.T_bigint;
  ok ~cfg:lenient (Value.Str "abc") Ast.T_bigint "0";
  ok ~cfg:lenient (Value.Str "12abc") Ast.T_bigint "12";
  (* unsigned *)
  fails (Value.Int (-1L)) Ast.T_unsigned;
  ok ~cfg:lenient (Value.Int (-1L)) Ast.T_unsigned "0";
  (* overflow of a huge decimal *)
  fails (Value.Dec (Decimal.of_string_exn (String.make 25 '9'))) Ast.T_bigint;
  (* dates become YYYYMMDD, the MySQL convention *)
  (match Calendar.date_of_string "2023-05-17" with
   | Some d -> ok (Value.Date d) Ast.T_bigint "20230517"
   | None -> Alcotest.fail "date");
  fails (Value.Arr []) Ast.T_bigint

let test_decimal_targets () =
  ok (Value.Str "3.14159") (Ast.T_decimal (Some (10, 2))) "3.14";
  ok (Value.Int 5L) (Ast.T_decimal (Some (5, 2))) "5.00";
  (* precision overflow: strict errors, lenient saturates *)
  fails (Value.Int 123456L) (Ast.T_decimal (Some (4, 2)));
  ok ~cfg:lenient (Value.Int 123456L) (Ast.T_decimal (Some (4, 2))) "99.99";
  fails (Value.Int 1L) (Ast.T_decimal (Some (0, 0)));
  fails (Value.Int 1L) (Ast.T_decimal (Some (90, 0)));
  (* the ClickHouse named family allows precision past the generic cap *)
  ok (Value.Str "110") (Ast.T_named ("DECIMAL256", [ 45 ]))
    ("110." ^ String.make 45 '0');
  fails (Value.Str "1") (Ast.T_named ("DECIMAL256", [ 99 ]));
  fails (Value.Str "x") (Ast.T_named ("NO_SUCH_TYPE", []))

let test_temporal_targets () =
  ok (Value.Str "2023-05-17") Ast.T_date "2023-05-17";
  ok (Value.Str "2023-05-17 10:30:00") Ast.T_datetime "2023-05-17 10:30:00";
  ok (Value.Str "2023-05-17") Ast.T_datetime "2023-05-17 00:00:00";
  ok (Value.Str "10:30:55") Ast.T_time "10:30:55";
  ok (Value.Int 20230517L) Ast.T_date "2023-05-17";
  fails (Value.Str "2023-02-30") Ast.T_date;
  (match cast ~cfg:lenient (Value.Str "2023-02-30") Ast.T_date with
   | Ok Value.Null -> ()
   | _ -> Alcotest.fail "lenient bad date becomes NULL");
  fails (Value.Str "not a date") Ast.T_date;
  ok (Value.Str "5 DAY") Ast.T_interval_t "INTERVAL 5 DAY";
  fails (Value.Str "5 parsecs") Ast.T_interval_t

let test_json_targets () =
  ok (Value.Str "[1, 2]") Ast.T_json "[1,2]";
  ok (Value.Int 7L) Ast.T_json "7";
  ok (Value.Arr [ Value.Int 1L; Value.Null ]) Ast.T_json "[1,null]";
  fails (Value.Str "{broken") Ast.T_json;
  (match cast ~cfg:lenient (Value.Str "plain") Ast.T_json with
   | Ok (Value.Json (Json.J_str "plain")) -> ()
   | _ -> Alcotest.fail "lenient wraps non-json strings");
  (* a blown depth with the budget disabled is the crash channel *)
  let no_budget = { Cast.strictness = Cast.Lenient; json_max_depth = None } in
  (match Cast.convert no_budget (Value.Str (String.make 5000 '[')) Ast.T_json with
   | Error (Cast.Depth_blown _) -> ()
   | _ -> Alcotest.fail "expected Depth_blown");
  (* with a budget it is a clean error *)
  match cast (Value.Str (String.make 5000 '[')) Ast.T_json with
  | Error (Cast.Invalid _) -> ()
  | _ -> Alcotest.fail "expected clean depth error"

let test_misc_targets () =
  ok (Value.Str "10.0.0.1") Ast.T_inet "10.0.0.1";
  ok (Value.Str "::1") Ast.T_inet "::1";
  fails (Value.Str "999.0.0.1") Ast.T_inet;
  ok (Value.Str "6CCD780C-BABA-1026-9564-5B8C656024DB") Ast.T_uuid
    "6ccd780c-baba-1026-9564-5b8c656024db";
  fails (Value.Str "nope") Ast.T_uuid;
  ok (Value.Str "POINT(1 2)") Ast.T_geometry "POINT(1 2)";
  fails (Value.Str "SHAPE(1)") Ast.T_geometry;
  ok (Value.Str "<a><b></b></a>") Ast.T_xml "<a><b></b></a>";
  fails (Value.Str "<a>") Ast.T_xml;
  ok (Value.Str "x") (Ast.T_char (Some 5)) "x";
  fails (Value.Str "too long") (Ast.T_char (Some 3));
  ok ~cfg:lenient (Value.Str "too long") (Ast.T_char (Some 3)) "too";
  ok (Value.Arr [ Value.Str "1"; Value.Str "2" ]) (Ast.T_array_t Ast.T_int) "[1, 2]";
  fails (Value.Str "t") Ast.T_row_t;
  ok (Value.Bool true) Ast.T_text "TRUE";
  ok (Value.Str "yes") Ast.T_bool "TRUE";
  ok (Value.Str "off") Ast.T_bool "FALSE";
  fails (Value.Str "maybe") Ast.T_bool;
  ok ~cfg:lenient (Value.Str "maybe") Ast.T_bool "FALSE"

(* ----- properties ----- *)

let arb_value =
  let open QCheck.Gen in
  let gen =
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int (Int64.of_int i)) int;
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 20));
        map (fun f -> Value.Float f) (float_range (-1e9) 1e9);
        map
          (fun (n, s) ->
            Value.Dec (Decimal.make ~neg:false ~digits:(string_of_int (abs n)) ~scale:s))
          (pair int (int_range 0 8));
        map (fun l -> Value.Arr (List.map (fun i -> Value.Int (Int64.of_int i)) l))
          (list_size (int_range 0 4) int);
      ]
  in
  QCheck.make ~print:Value.to_display gen

let all_target_types =
  [
    Ast.T_bool; Ast.T_smallint; Ast.T_int; Ast.T_bigint; Ast.T_unsigned;
    Ast.T_decimal None; Ast.T_decimal (Some (12, 4)); Ast.T_float;
    Ast.T_double; Ast.T_char (Some 8); Ast.T_varchar (Some 8); Ast.T_text;
    Ast.T_blob; Ast.T_date; Ast.T_time; Ast.T_datetime; Ast.T_interval_t;
    Ast.T_json; Ast.T_array_t Ast.T_text; Ast.T_map_t (Ast.T_text, Ast.T_int);
    Ast.T_inet; Ast.T_uuid; Ast.T_geometry; Ast.T_xml; Ast.T_row_t;
    Ast.T_named ("DECIMAL64", [ 4 ]);
  ]

let prop_cast_total cfg name =
  QCheck.Test.make ~name ~count:200 arb_value (fun v ->
      List.for_all
        (fun ty ->
          match Cast.convert cfg v ty with
          | Ok _ | Error _ -> true
          | exception e ->
            QCheck.Test.fail_reportf "cast %s -> %s raised %s"
              (Value.to_display v) (Sql_pp.type_name ty) (Printexc.to_string e))
        all_target_types)

let prop_lenient_strings_never_fail_numerics =
  QCheck.Test.make ~name:"lenient string->numeric never errors" ~count:300
    (QCheck.make ~print:(fun s -> s) QCheck.Gen.(string_size ~gen:printable (int_range 0 15)))
    (fun s ->
      List.for_all
        (fun ty ->
          match Cast.convert lenient (Value.Str s) ty with
          | Ok _ -> true
          | Error _ -> false)
        [ Ast.T_bigint; Ast.T_decimal None; Ast.T_double; Ast.T_bool ])

let prop_cast_preserves_tag =
  QCheck.Test.make ~name:"successful cast yields the target tag (or NULL)"
    ~count:200 arb_value (fun v ->
      List.for_all
        (fun ty ->
          match Cast.convert strict v ty with
          | Error _ -> true
          | Ok r ->
            Value.is_null r || Value.type_of r = Cast.ty_of_type_name ty)
        [ Ast.T_bigint; Ast.T_decimal None; Ast.T_double; Ast.T_text;
          Ast.T_bool; Ast.T_json; Ast.T_blob ])

let suite =
  ( "cast",
    [
      Alcotest.test_case "NULL casts everywhere" `Quick test_null_casts_everywhere;
      Alcotest.test_case "integer targets" `Quick test_integer_targets;
      Alcotest.test_case "decimal targets" `Quick test_decimal_targets;
      Alcotest.test_case "temporal targets" `Quick test_temporal_targets;
      Alcotest.test_case "json targets" `Quick test_json_targets;
      Alcotest.test_case "misc targets" `Quick test_misc_targets;
      QCheck_alcotest.to_alcotest (prop_cast_total strict "strict cast is total");
      QCheck_alcotest.to_alcotest (prop_cast_total lenient "lenient cast is total");
      QCheck_alcotest.to_alcotest prop_lenient_strings_never_fail_numerics;
      QCheck_alcotest.to_alcotest prop_cast_preserves_tag;
    ] )
