open Sqlfun_value
open Sqlfun_num
open Sqlfun_data

let dec s = Value.Dec (Decimal.of_string_exn s)

let cmp a b = Value.compare_values a b

let test_numeric_coercion () =
  Alcotest.(check (option int)) "int vs dec" (Some 0) (cmp (Value.Int 2L) (dec "2.0"));
  Alcotest.(check (option int)) "int vs float" (Some 0)
    (cmp (Value.Int 2L) (Value.Float 2.0));
  Alcotest.(check (option int)) "dec vs float" (Some (-1))
    (cmp (dec "1.5") (Value.Float 2.5));
  Alcotest.(check (option int)) "bool as number" (Some 0)
    (cmp (Value.Bool true) (Value.Int 1L));
  Alcotest.(check (option int)) "nan incomparable" None
    (cmp (Value.Float Float.nan) (Value.Int 1L))

let test_incomparable () =
  Alcotest.(check (option int)) "null" None (cmp Value.Null (Value.Int 1L));
  Alcotest.(check (option int)) "row vs int" None
    (cmp (Value.Row [ Value.Int 1L ]) (Value.Int 1L));
  Alcotest.(check (option int)) "str vs int" None
    (cmp (Value.Str "1") (Value.Int 1L));
  Alcotest.(check (option int)) "map" None
    (cmp (Value.Map []) (Value.Map []))

let test_collections () =
  let arr l = Value.Arr (List.map (fun i -> Value.Int (Int64.of_int i)) l) in
  Alcotest.(check (option int)) "array eq" (Some 0) (cmp (arr [ 1; 2 ]) (arr [ 1; 2 ]));
  Alcotest.(check (option int)) "array lt" (Some (-1)) (cmp (arr [ 1 ]) (arr [ 1; 2 ]));
  Alcotest.(check (option int)) "array elem" (Some 1) (cmp (arr [ 2 ]) (arr [ 1; 9 ]))

let test_date_string_coercion () =
  match Calendar.date_of_string "2023-05-17" with
  | None -> Alcotest.fail "date"
  | Some d ->
    Alcotest.(check (option int)) "str vs date" (Some 0)
      (cmp (Value.Str "2023-05-17") (Value.Date d));
    Alcotest.(check (option int)) "date vs later str" (Some (-1))
      (cmp (Value.Date d) (Value.Str "2024-01-01"))

let test_display () =
  Alcotest.(check string) "float int" "2" (Value.to_display (Value.Float 2.0));
  Alcotest.(check string) "nan" "NaN" (Value.to_display (Value.Float Float.nan));
  Alcotest.(check string) "inf" "Infinity" (Value.to_display (Value.Float Float.infinity));
  Alcotest.(check string) "blob hex" "0x4142" (Value.to_display (Value.Blob "AB"));
  Alcotest.(check string) "row" "(1, x)"
    (Value.to_display (Value.Row [ Value.Int 1L; Value.Str "x" ]));
  Alcotest.(check string) "interval" "INTERVAL 3 DAY"
    (Value.to_display (Value.Interval { Calendar.amount = 3L; unit_ = Calendar.Day }))

let test_depth_and_size () =
  Alcotest.(check int) "scalar depth" 1 (Value.depth_of (Value.Int 1L));
  Alcotest.(check int) "nested arr depth" 3
    (Value.depth_of (Value.Arr [ Value.Arr [ Value.Arr [] ] ]));
  (match Json.parse "[[1]]" with
   | Ok j -> Alcotest.(check int) "json depth" 3 (Value.depth_of (Value.Json j))
   | Error _ -> Alcotest.fail "json");
  Alcotest.(check bool) "string size" true (Value.size_of (Value.Str "hello") = 5);
  Alcotest.(check bool) "array size grows" true
    (Value.size_of (Value.Arr [ Value.Int 1L; Value.Int 2L ])
     > Value.size_of (Value.Arr [ Value.Int 1L ]))

(* antisymmetry on the comparable fragment *)
let arb_scalar =
  let open QCheck.Gen in
  QCheck.make ~print:Value.to_display
    (oneof
       [
         map (fun i -> Value.Int (Int64.of_int i)) int;
         map (fun f -> Value.Float f) (float_range (-1e6) 1e6);
         map
           (fun n -> Value.Dec (Decimal.of_int n))
           (int_range (-100000) 100000);
         map (fun b -> Value.Bool b) bool;
       ])

let prop_antisym =
  QCheck.Test.make ~name:"compare_values antisymmetric" ~count:300
    (QCheck.pair arb_scalar arb_scalar) (fun (a, b) ->
      match (cmp a b, cmp b a) with
      | Some x, Some y -> x = -y
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let prop_transitive =
  QCheck.Test.make ~name:"compare_values transitive on numerics" ~count:300
    (QCheck.triple arb_scalar arb_scalar arb_scalar) (fun (a, b, c) ->
      match (cmp a b, cmp b c, cmp a c) with
      | Some x, Some y, Some z when x <= 0 && y <= 0 -> z <= 0
      | Some _, Some _, Some _ -> true
      | _ -> true)

(* ----- compact representations ----- *)

let boxed_range ~first ~step ~len =
  Value.Arr
    (List.init len (fun i ->
         Value.Int (Int64.add first (Int64.mul step (Int64.of_int i)))))

let as_range = function
  | Value.Range_arr r -> r
  | _ -> Alcotest.fail "expected Range_arr"

let as_rope = function
  | Value.Rope_str r -> r
  | _ -> Alcotest.fail "expected Rope_str"

let arb_range =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (first, len, down) ->
      Printf.sprintf "first=%Ld len=%d down=%b" first len down)
    (triple
       (map Int64.of_int (int_range (-1_000_000) 1_000_000))
       (int_range Value.Compact.min_array_len
          (4 * Value.Compact.min_array_len))
       bool)

(* every observable a consumer can reach must agree with the boxed
   spelling: type/size/depth, display, comparison, length, element
   access, reversal, and the spill itself *)
let prop_range_observational =
  QCheck.Test.make ~name:"range array observationally boxed" ~count:60
    arb_range (fun (first, len, down) ->
      let step = if down then -1L else 1L in
      let compact = Value.range_arr ~first ~step ~len in
      let boxed = boxed_range ~first ~step ~len in
      let r = as_range compact in
      Value.type_of compact = Value.type_of boxed
      && Value.size_of compact = Value.size_of boxed
      && Value.depth_of compact = Value.depth_of boxed
      && Value.to_display compact = Value.to_display boxed
      && Value.compare_values compact boxed = Some 0
      && Value.arr_length compact = Some len
      && Value.range_nth r 0 = Value.Int first
      && Value.range_last r
         = Int64.add first (Int64.mul step (Int64.of_int (len - 1)))
      && Value.view (Value.range_rev r)
         = Value.Arr (List.rev (Value.range_spill r))
      && Value.view compact = boxed)

let prop_range_slice_observational =
  QCheck.Test.make ~name:"range slice observationally boxed" ~count:60
    (QCheck.pair arb_range (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun ((first, len, down), (o0, l0)) ->
      let step = if down then -1L else 1L in
      let r = as_range (Value.range_arr ~first ~step ~len) in
      let offset = o0 mod len in
      let slen = 1 + (l0 mod (len - offset)) in
      let got = Value.view (Value.range_slice r ~offset ~len:slen) in
      let want =
        match boxed_range ~first ~step ~len with
        | Value.Arr vs ->
          Value.Arr
            (List.filteri (fun i _ -> i >= offset && i < offset + slen) vs)
        | _ -> assert false
      in
      got = want)

let utf8_chars s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let arb_rope =
  let open QCheck.Gen in
  let seg =
    oneofl [ "a"; "ab"; "xyz"; "\xc3\xa9"; " \xe2\x98\x83 "; "0123456789" ]
  in
  QCheck.make
    ~print:(fun (s, n, tail) -> Printf.sprintf "%S x %d ^ %S" s n tail)
    (triple seg (int_range 1 2_000)
       (string_size ~gen:printable (int_range 0 12)))

let prop_rope_observational =
  QCheck.Test.make ~name:"rope string observationally boxed" ~count:60
    arb_rope (fun (seg, n, tail) ->
      let rep = Value.str_rope_rep seg n in
      let flat_rep = String.concat "" (List.init n (fun _ -> seg)) in
      let whole =
        if tail = "" then rep
        else
          match Value.rope_concat rep (Value.Str tail) with
          | Some v -> v
          | None -> Alcotest.fail "rope_concat refused string operands"
      in
      let flat = flat_rep ^ tail in
      let r = as_rope whole in
      Value.type_of whole = Value.Ty_str
      && Value.str_bytes whole = Some (String.length flat)
      && Value.size_of whole = Value.size_of (Value.Str flat)
      && Value.depth_of whole = Value.depth_of (Value.Str flat)
      && Value.rope_measure String.length r = String.length flat
      && Value.rope_measure utf8_chars r = utf8_chars flat
      && Value.to_display whole = Value.to_display (Value.Str flat)
      && Value.compare_values whole (Value.Str flat) = Some 0
      (* flatten caches: both calls must return the flat string *)
      && Value.rope_flatten r = flat
      && Value.rope_flatten r = flat
      && Value.view whole = Value.Str flat)

(* spill paths at the representation thresholds: a slice one short of
   the compact floor boxes eagerly, at the floor it stays compact; hit
   and spill counters move exactly when they should *)
let test_compact_thresholds () =
  let n = Value.Compact.min_array_len in
  let c0 = Value.Compact.read () in
  let r = as_range (Value.range_arr ~first:0L ~step:1L ~len:(2 * n)) in
  (match Value.range_slice r ~offset:1 ~len:(n - 1) with
   | Value.Arr vs ->
     Alcotest.(check int) "sub-threshold slice boxes eagerly" (n - 1)
       (List.length vs)
   | _ -> Alcotest.fail "expected boxed slice");
  (match Value.range_slice r ~offset:1 ~len:n with
   | Value.Range_arr s ->
     Alcotest.(check int) "threshold slice stays compact" n s.Value.rg_len
   | _ -> Alcotest.fail "expected compact slice");
  let mid = Value.Compact.since c0 in
  Alcotest.(check bool) "constructions counted" true
    (mid.Value.Compact.hits >= 2);
  Alcotest.(check int) "no spill before view" 0 mid.Value.Compact.spills;
  ignore (Value.view (Value.Range_arr r));
  ignore (Value.view (Value.Range_arr r));
  let fin = Value.Compact.since c0 in
  Alcotest.(check int) "spill counted once (cached)" 1
    fin.Value.Compact.spills

(* an error message quotes an argument as [%S] does up to 64 bytes,
   and a longer one as a bounded prefix and its length *)
let test_quote () =
  let same s =
    let want = Printf.sprintf "%S" s in
    Alcotest.(check string) want want (Value.quote s)
  in
  for c = 0 to 255 do same (String.make 1 (Char.chr c)) done;
  for n = 0 to Value.quote_max_bytes do
    same (String.make n ' ');
    same (String.init n (fun i -> Char.chr (((i * 37) + (n * 11)) land 255)))
  done;
  let big = String.make 2_460_000 ' ' in
  Alcotest.(check string) "prefix and length"
    (Printf.sprintf "%S... (2460000 bytes)" (String.sub big 0 64))
    (Value.quote big);
  List.iter
    (fun c ->
      let q = Value.quote (String.make 2_460_000 c) in
      if String.length q > 289 then
        Alcotest.failf "quoting 2.46 MB of %C takes %d bytes" c (String.length q))
    [ ' '; '\000'; '\255'; '"' ]

let prop_quote_short =
  QCheck.Test.make ~name:"quote is %S up to 64 bytes" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 Value.quote_max_bytes))
    (fun s -> Value.quote s = Printf.sprintf "%S" s)

let suite =
  ( "value",
    [
      Alcotest.test_case "numeric coercion" `Quick test_numeric_coercion;
      Alcotest.test_case "incomparable pairs" `Quick test_incomparable;
      Alcotest.test_case "collections" `Quick test_collections;
      Alcotest.test_case "date-string coercion" `Quick test_date_string_coercion;
      Alcotest.test_case "display" `Quick test_display;
      Alcotest.test_case "depth and size" `Quick test_depth_and_size;
      Alcotest.test_case "compact thresholds and spill" `Quick
        test_compact_thresholds;
      Alcotest.test_case "quote" `Quick test_quote;
      QCheck_alcotest.to_alcotest prop_quote_short;
      QCheck_alcotest.to_alcotest prop_antisym;
      QCheck_alcotest.to_alcotest prop_transitive;
      QCheck_alcotest.to_alcotest prop_range_observational;
      QCheck_alcotest.to_alcotest prop_range_slice_observational;
      QCheck_alcotest.to_alcotest prop_rope_observational;
    ] )
