(** The byte-walking kernels against their previous implementations
    ([Kernel_oracles]), plus an allocation guard: a kernel over a 10 KB
    argument may allocate its result and O(1) words besides, never
    something per byte. *)

open Sqlfun_data
open Sqlfun_functions
open Sqlfun_value
module Old = Kernel_oracles
module Coverage = Sqlfun_coverage.Coverage
module Fault = Sqlfun_fault.Fault

(* strings over a small alphabet, so separators, specifiers and
   overlapping matches are common *)
let string_over ?(max = 24) alphabet =
  QCheck.make
    ~print:(Printf.sprintf "%S")
    QCheck.Gen.(string_size ~gen:(oneofl alphabet) (int_range 0 max))

let chars s = List.init (String.length s) (String.get s)

(* ----- hex and digests ----- *)

let check_hex s =
  Codec.hex_encode s = Old.hex_encode s
  && Value.to_display (Value.Blob s) = Old.blob_display s
  && Sqlfun_ast.Sql_pp.expr (Sqlfun_ast.Ast.Hex_lit s) = "X'" ^ Old.hex_of_bytes s ^ "'"
  && Codec.fnv1a_64 s = Old.fnv1a_64 s
  && Codec.digest_hex s = Old.digest_hex s
  && Codec.crc32 s = Old.crc32 s

let prop_hex =
  QCheck.Test.make ~name:"hex and digests equal per-byte Printf" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 64))
    check_hex

let test_hex_every_byte () =
  for c = 0 to 255 do
    let s = String.make 1 (Char.chr c) in
    Alcotest.(check bool) (Printf.sprintf "byte %02X" c) true (check_hex s)
  done;
  Alcotest.(check bool) "high bytes" true (check_hex "\x80\xff\x00\x7f\xab")

let prop_decoders =
  QCheck.Test.make ~name:"hex and base64 decoders equal the option originals"
    ~count:1000
    (string_over (chars "09afAFgxZz+/= \n"))
    (fun s ->
      Codec.hex_decode s = Old.hex_decode s
      && Codec.base64_decode s = Old.base64_decode s)

(* ----- substring search ----- *)

let prop_substring =
  QCheck.Test.make ~name:"substring search equals String.sub scan" ~count:1000
    QCheck.(
      triple (string_over ~max:20 [ 'a'; 'b' ]) (string_over ~max:4 [ 'a'; 'b' ])
        (int_range 0 25))
    (fun (hay, needle, from) ->
      Substring.find hay needle from = Old.find_sub hay needle from
      && (Substring.find hay needle 0 <> None) = Old.contains_substring hay needle)

let test_substring_edges () =
  let check name hay needle from =
    Alcotest.(check (option int)) name (Old.find_sub hay needle from)
      (Substring.find hay needle from)
  in
  check "empty needle" "abc" "" 0;
  check "empty needle at end" "abc" "" 3;
  check "empty needle past end" "abc" "" 7;
  check "from at end" "abc" "c" 3;
  check "from past end" "abc" "c" 9;
  check "overlapping" "aaaa" "aa" 1;
  check "overlapping from 2" "aaaa" "aa" 2;
  check "needle longer than hay" "ab" "abc" 0;
  check "whole hay" "abc" "abc" 0;
  check "partial prefix" "aab" "ab" 0

(* ----- calendar parsing ----- *)

let date_text = string_over [ '0'; '1'; '2'; '9'; '-'; '/'; ':'; ' '; '_'; 'x'; '+' ]

let quirks =
  [
    ""; " "; "2023-05-17"; " 2023-05-17 "; "2023/05/17"; "2023-5-7";
    "002023-005-017"; "2_023-0_5-1_7"; "+2023-+05-+17"; "0x7e7-0x5-0x11";
    "0b11-1-1"; "0o17-1-1"; "2023-05"; "2023-05-17-01"; "2023--17";
    "10:30:05"; "10:30"; "1_0:0_5"; "+1:+2:+3"; "0x1:0x2"; "24:00:00";
    "2023-05-17 10:30:05"; "2023-05-17  10:30"; "2023-05-17 "; "- -";
  ]

let check_calendar s =
  Calendar.split_on_any [ '-'; '/' ] s = Old.Calendar.split_on_any [ '-'; '/' ] s
  && Calendar.split_on_any [ ':' ] s = Old.Calendar.split_on_any [ ':' ] s
  && Calendar.split_on_any [] s = Old.Calendar.split_on_any [] s
  && Calendar.date_of_string s = Old.Calendar.date_of_string s
  && Calendar.time_of_string s = Old.Calendar.time_of_string s
  && Calendar.datetime_of_string s = Old.Calendar.datetime_of_string s

let prop_calendar =
  QCheck.Test.make ~name:"split_on_any and parsers equal the Buffer originals"
    ~count:1000 date_text check_calendar

let test_calendar_quirks () =
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S" s) true (check_calendar s))
    quirks;
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "unit %S" s) true
        (Calendar.unit_of_string s = Old.Calendar.unit_of_string s))
    [ "day"; "DAYS"; "Minutes"; "seconds"; "SECONDSS"; "yearly"; ""; "MINUTES " ]

(* ----- SQL function bodies ----- *)

let impl spec =
  match spec.Func_sig.kind with
  | Func_sig.Scalar f -> f
  | Func_sig.Aggregate _ -> assert false

(* Output (or error), ticks and every coverage hit of one call on a fresh
   context. *)
let run f args =
  let ctx = Fn_ctx.create ~cov:(Coverage.create ()) ~dialect:"kernels" () in
  let out =
    match f ctx (List.map Fault.arg args) with
    | v -> Value.to_display v
    | exception Fn_ctx.Sql_error m -> "error: " ^ m
    | exception Fn_ctx.Resource_limit m -> "limit: " ^ m
  in
  (out, ctx.Fn_ctx.steps, Coverage.points ctx.Fn_ctx.cov)

let same_call spec old args = run (impl spec) args = run old args

let datetime_arb =
  QCheck.(
    map
      (fun (jd, (hour, minute, second)) ->
        let date = Option.get (Calendar.of_julian_day jd) in
        let time = Option.get (Calendar.make_time ~hour ~minute ~second) in
        { Calendar.date; time })
      (pair (int_range 1721426 5373484)
         (triple (int_range 0 23) (int_range 0 59) (int_range 0 59))))

let format_text =
  string_over
    (chars "%%%YymcdeHisSMWj" @ [ 'q'; 'x'; '/'; '-'; ' ' ])

let prop_date_format =
  QCheck.Test.make ~name:"DATE_FORMAT equals per-occurrence sprintf" ~count:500
    QCheck.(pair datetime_arb format_text)
    (fun (dt, fmt) ->
      same_call Date_fns.date_format_fn Old.date_format
        [ Value.Datetime dt; Value.Str fmt ])

let test_date_format_specifiers () =
  let dt = Option.get (Calendar.datetime_of_string "0007-02-03 04:05:06") in
  List.iter
    (fun fmt ->
      let out, _, hits = run (impl Date_fns.date_format_fn) [ Value.Datetime dt; Value.Str fmt ] in
      Alcotest.(check (pair string (list (pair string int))))
        fmt
        (let o, _, h = run Old.date_format [ Value.Datetime dt; Value.Str fmt ] in
         (o, h))
        (out, hits))
    [
      "%Y %y %m %c %d %e %H %i %s %S %M %W %j %%"; "%q%q%z"; "trailing %";
      "%"; "%%%"; ""; "%Y%"; "%%Y";
    ]

let prop_soundex =
  QCheck.Test.make ~name:"SOUNDEX equals the letter-list original" ~count:500
    (string_over (chars "RobertHhWwaeiou1 -Tymczak"))
    (fun s -> same_call Catalog_tail.soundex_fn Old.soundex [ Value.Str s ])

let prop_split_part =
  QCheck.Test.make ~name:"SPLIT_PART equals the part-list original" ~count:500
    QCheck.(
      triple (string_over [ 'a'; ','; 'b' ]) (string_over ~max:2 [ ','; 'a' ])
        (int_range (-1) 8))
    (fun (s, sep, idx) ->
      same_call String_fns.split_part_fn Old.split_part
        [ Value.Str s; Value.Str sep; Value.Int (Int64.of_int idx) ])

let prop_conv =
  QCheck.Test.make ~name:"CONV equals the String.iter original" ~count:500
    QCheck.(
      triple (string_over (chars "0189afzAF- ")) (oneofl [ 1; 2; 8; 10; 16; 36; 37 ])
        (oneofl [ 2; 10; 16; 36 ]))
    (fun (s, from_base, to_base) ->
      same_call Conv_fns.conv_fn Old.conv
        [ Value.Str s; Value.Int (Int64.of_int from_base); Value.Int (Int64.of_int to_base) ])

(* ----- regex ----- *)

let regex_tokens =
  [ "a"; "b"; "."; "*"; "+"; "?"; "[ab]"; "[^a]"; "[0-9]"; "("; ")"; "|"; "^"; "$";
    "{1,2}"; "{2}"; "\\d"; "\\x61"; "[" ]

let pattern_arb =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(map (String.concat "") (list_size (int_range 0 6) (oneofl regex_tokens)))

(* the result and its step count, or the step cap *)
let with_steps f steps () =
  match f () with
  | v -> Some (v, steps ())
  | exception (Regex.Step_limit | Old.Regex.Step_limit) -> None

let prop_regex =
  QCheck.Test.make ~name:"regex find/matches/replace_all and steps equal the original"
    ~count:1000
    QCheck.(pair pattern_arb (string_over ~max:12 [ 'a'; 'b'; '1'; ' ' ]))
    (fun (pattern, s) ->
      match (Regex.compile pattern, Old.Regex.compile pattern) with
      | Error a, Error b -> a = b
      | Ok re, Ok old ->
        let steps = Regex.steps_of_last_match
        and old_steps = Old.Regex.steps_of_last_match in
        with_steps (fun () -> Regex.find re s) steps ()
        = with_steps (fun () -> Old.Regex.find old s) old_steps ()
        && with_steps (fun () -> Regex.matches re s) steps ()
           = with_steps (fun () -> Old.Regex.matches old s) old_steps ()
        && with_steps (fun () -> Regex.replace_all re s "#") steps ()
           = with_steps (fun () -> Old.Regex.replace_all old s "#") old_steps ()
      | Ok _, Error _ | Error _, Ok _ -> false)

let test_regex_step_cap () =
  (* past the step cap both raise; below it the totals agree *)
  let s = String.make 24 'a' ^ "b" in
  List.iter
    (fun pattern ->
      let re = Result.get_ok (Regex.compile pattern)
      and old = Result.get_ok (Old.Regex.compile pattern) in
      Alcotest.(check bool) pattern true
        (with_steps (fun () -> Regex.replace_all re s "x") Regex.steps_of_last_match ()
         = with_steps (fun () -> Old.Regex.replace_all old s "x")
             Old.Regex.steps_of_last_match ()))
    [ "(a*)*c"; "(a|aa)*c"; "a*a*a*a*c"; "a{2}"; "" ]

(* ----- other argument parsers ----- *)

let inet_quirks =
  [ "::1"; "1::"; "::"; "1:2:3:4:5:6:7:8"; "1:2:3:4:5:6:7:8:9"; "::ffff:1.2.3.4";
    "1.2.3.4"; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "1..2.3"; " 10.0.0.1 ";
    ":::1"; "1:::2"; "fffff::"; "1:2:3:4:5:6:1.2.3.4"; "0x1.2.3.4"; "+1.2.3.4" ]

let check_parsers s =
  Inet.of_string s = Old.Inet.of_string s
  && Xml_doc.parse_xpath s = Old.Xml_doc.parse_xpath s
  && Json.to_string (Json.J_str s) = "\"" ^ Old.escape_json_string s ^ "\""

let prop_parsers =
  QCheck.Test.make ~name:"INET, XPath and JSON-string kernels equal the originals"
    ~count:1000
    (string_over (chars "019af:./[]x \n\001\""))
    check_parsers

let test_parser_quirks () =
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S" s) true (check_parsers s))
    (inet_quirks @ [ "/"; "/a"; "/a/"; "/a//b"; "/a[1]/b[0]"; "/a[x]"; "a/b"; "/[1]" ])

(* ----- container rendering ----- *)

(* Ranges of 256-5000 cells with step +-1, anchored where the digit
   writer has edges: around zero (sign changes mid-range), at a power
   of ten (widths change mid-range), at either end of int64, or
   anywhere in the native int range. *)
let range_gen =
  QCheck.Gen.(
    let* len = int_range 256 5000 and* up = bool and* anchor = int_range 0 4 in
    let step = if up then 1L else -1L and span = Int64.of_int (len - 1) in
    let+ first =
      match anchor with
      | 0 ->
        let+ k = int_range 0 (len - 1) in
        Int64.of_int (if up then -k else k)
      | 1 ->
        let+ e = int_range 1 18 and* k = int_range 0 (len - 1) and* neg = bool in
        let p = Int64.of_string ("1" ^ String.make e '0') in
        let first = Int64.sub p (Int64.of_int (if up then k else k - len + 1)) in
        if neg then Int64.neg (Int64.add first (Int64.mul step span)) else first
      | 2 -> return (if up then Int64.sub Int64.max_int span else Int64.max_int)
      | 3 -> return (if up then Int64.min_int else Int64.add Int64.min_int span)
      | _ -> map Int64.of_int int
    in
    Value.range_arr ~first ~step ~len)

let rec nested_gen depth =
  QCheck.Gen.(
    let scalar =
      oneof
        [ map (fun i -> Value.Int (Int64.of_int i)) int;
          map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 6));
          map (fun f -> Value.Float f) float;
          oneofl [ Value.Null; Value.Bool true; Value.Int Int64.min_int ] ]
    in
    if depth = 0 then scalar
    else
      let elems = list_size (int_range 0 4) (nested_gen (depth - 1)) in
      frequency
        [ (3, scalar);
          (1, map (fun vs -> Value.Arr vs) elems);
          (1, map (fun vs -> Value.Row vs) elems);
          (1, map (fun vs -> Value.Map (List.map (fun v -> (v, v)) vs)) elems);
          (1,
           let+ first = map Int64.of_int small_signed_int and* len = int_range 256 300 in
           Value.range_arr ~first ~step:1L ~len) ])

let check_display v = Value.to_display v = Old.to_display v

let prop_range_display =
  QCheck.Test.make ~name:"range rendering equals the spilled concatenation" ~count:300
    (QCheck.make ~print:Value.to_display range_gen)
    check_display

let prop_nested_display =
  QCheck.Test.make ~name:"container rendering equals the concatenated original"
    ~count:500
    (QCheck.make ~print:Value.to_display (nested_gen 3))
    check_display

(* ----- allocation guard ----- *)

(* Minor words one call allocates. A result above 256 words goes
   straight to the major heap, so a kernel that allocates nothing per
   byte shows a small constant here, while one [String.sub] per
   position or one [Printf] per byte shows tens of thousands. Emptying
   the minor heap at both ends of the window makes the count exact. *)
let minor_words f =
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  int_of_float (Gc.minor_words () -. before)

let test_allocation_guard () =
  let n = 10_000 in
  let check name f =
    let w = minor_words f in
    if w > 512 then Alcotest.failf "%s over %d bytes allocated %d minor words" name n w
  in
  let a = String.make n 'a' and twos = String.make n '2' in
  let high = String.make n '\xab' and q = String.make n 'Q' in
  check "substring search" (fun () -> Substring.find a "aab" 0);
  check "split_on_any" (fun () -> Calendar.split_on_any [ '-'; '/' ] twos);
  check "date_of_string" (fun () -> Calendar.date_of_string twos);
  check "hex_encode" (fun () -> Codec.hex_encode high);
  check "blob display" (fun () -> Value.to_display (Value.Blob high));
  check "digest_hex" (fun () -> Codec.digest_hex a);
  check "crc32" (fun () -> Codec.crc32 a);
  check "hex_decode" (fun () -> Codec.hex_decode a);
  check "base64_decode" (fun () -> Codec.base64_decode q)

let suite =
  ( "kernels",
    [
      Alcotest.test_case "hex every byte" `Quick test_hex_every_byte;
      Alcotest.test_case "substring edges" `Quick test_substring_edges;
      Alcotest.test_case "calendar quirks" `Quick test_calendar_quirks;
      Alcotest.test_case "DATE_FORMAT specifiers" `Quick test_date_format_specifiers;
      Alcotest.test_case "regex step cap" `Quick test_regex_step_cap;
      Alcotest.test_case "parser quirks" `Quick test_parser_quirks;
      Alcotest.test_case "allocation guard" `Quick test_allocation_guard;
      QCheck_alcotest.to_alcotest prop_hex;
      QCheck_alcotest.to_alcotest prop_decoders;
      QCheck_alcotest.to_alcotest prop_substring;
      QCheck_alcotest.to_alcotest prop_calendar;
      QCheck_alcotest.to_alcotest prop_date_format;
      QCheck_alcotest.to_alcotest prop_soundex;
      QCheck_alcotest.to_alcotest prop_split_part;
      QCheck_alcotest.to_alcotest prop_conv;
      QCheck_alcotest.to_alcotest prop_regex;
      QCheck_alcotest.to_alcotest prop_parsers;
      QCheck_alcotest.to_alcotest prop_range_display;
      QCheck_alcotest.to_alcotest prop_nested_display;
    ] )
