open Sqlfun_num
open Sqlfun_data

(* Two compact, lazily-materialized backings ride alongside the boxed
   constructors (PR 8): [Range_arr] describes the arithmetic integer
   sequences RANGE produces as first/step/length (O(1) to build where
   the boxed list is O(n) — RANGE(1000000) used to allocate a million
   cells per call), and [Rope_str] describes the REPEAT/LPAD/RPAD/
   CONCAT-built strings as a repetition/concatenation tree over flat
   segments (O(1) to build where the flat string is O(bytes)).

   Soundness contract: a compact value is *observationally identical*
   to its boxed spelling. Every function in this module that inspects
   structure either handles the compact constructors with an O(1)
   computation proven equal to the boxed one ([size_of], [depth_of],
   [type_of], range-vs-range comparison), renders a range from
   first/step/len to its cells' bytes ([to_display]), or materializes
   through {!view} first. Compact values are only built above the
   {!Compact.min_array_len}/{!Compact.min_str_bytes} thresholds and are
   never empty, so sites that compare against small literal values
   (e.g. [v = Str ""], [v = Arr []]) can never meet one. Spilling
   mutates a cache in place — values are engine-local (one engine per
   shard/domain), so the mutation is single-domain like the rest of the
   engine state. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Dec of Decimal.t
  | Float of float
  | Str of string
  | Blob of string
  | Date of Calendar.date
  | Time of Calendar.time
  | Datetime of Calendar.datetime
  | Interval of Calendar.interval
  | Json of Json.t
  | Arr of t list
  | Map of (t * t) list
  | Row of t list
  | Inet of Inet.t
  | Uuid of string
  | Geom of Geometry.t
  | Xml of Xml_doc.t list
  | Range_arr of range_arr
  | Rope_str of rope_str

and range_arr = {
  rg_first : int64;
  rg_step : int64;  (* +1 or -1: RANGE only emits unit strides *)
  rg_len : int;  (* >= 1: empty arrays stay boxed *)
  mutable rg_spill : t list option;  (* cached boxed materialization *)
}

and rope_str = {
  mutable rp_node : rope;  (* collapses to [R_leaf] on first flatten *)
  rp_bytes : int;  (* total flat length, >= 1: "" stays boxed *)
}

and rope =
  | R_leaf of string
  | R_rep of string * int  (* segment repeated n times, segment <> "" *)
  | R_cat of rope * rope

type ty =
  | Ty_null
  | Ty_bool
  | Ty_int
  | Ty_dec
  | Ty_float
  | Ty_str
  | Ty_blob
  | Ty_date
  | Ty_time
  | Ty_datetime
  | Ty_interval
  | Ty_json
  | Ty_array
  | Ty_map
  | Ty_row
  | Ty_inet
  | Ty_uuid
  | Ty_geometry
  | Ty_xml

let type_of = function
  | Null -> Ty_null
  | Bool _ -> Ty_bool
  | Int _ -> Ty_int
  | Dec _ -> Ty_dec
  | Float _ -> Ty_float
  | Str _ | Rope_str _ -> Ty_str
  | Blob _ -> Ty_blob
  | Date _ -> Ty_date
  | Time _ -> Ty_time
  | Datetime _ -> Ty_datetime
  | Interval _ -> Ty_interval
  | Json _ -> Ty_json
  | Arr _ | Range_arr _ -> Ty_array
  | Map _ -> Ty_map
  | Row _ -> Ty_row
  | Inet _ -> Ty_inet
  | Uuid _ -> Ty_uuid
  | Geom _ -> Ty_geometry
  | Xml _ -> Ty_xml

let ty_name = function
  | Ty_null -> "NULL"
  | Ty_bool -> "BOOLEAN"
  | Ty_int -> "BIGINT"
  | Ty_dec -> "DECIMAL"
  | Ty_float -> "DOUBLE"
  | Ty_str -> "TEXT"
  | Ty_blob -> "BLOB"
  | Ty_date -> "DATE"
  | Ty_time -> "TIME"
  | Ty_datetime -> "DATETIME"
  | Ty_interval -> "INTERVAL"
  | Ty_json -> "JSON"
  | Ty_array -> "ARRAY"
  | Ty_map -> "MAP"
  | Ty_row -> "ROW"
  | Ty_inet -> "INET"
  | Ty_uuid -> "UUID"
  | Ty_geometry -> "GEOMETRY"
  | Ty_xml -> "XML"

(* the position of each tag in [all_tys], for tables indexed by type *)
let ty_index = function
  | Ty_null -> 0
  | Ty_bool -> 1
  | Ty_int -> 2
  | Ty_dec -> 3
  | Ty_float -> 4
  | Ty_str -> 5
  | Ty_blob -> 6
  | Ty_date -> 7
  | Ty_time -> 8
  | Ty_datetime -> 9
  | Ty_interval -> 10
  | Ty_json -> 11
  | Ty_array -> 12
  | Ty_map -> 13
  | Ty_row -> 14
  | Ty_inet -> 15
  | Ty_uuid -> 16
  | Ty_geometry -> 17
  | Ty_xml -> 18

let all_tys =
  [| Ty_null; Ty_bool; Ty_int; Ty_dec; Ty_float; Ty_str; Ty_blob; Ty_date;
     Ty_time; Ty_datetime; Ty_interval; Ty_json; Ty_array; Ty_map; Ty_row;
     Ty_inet; Ty_uuid; Ty_geometry; Ty_xml |]

let is_null = function Null -> true | _ -> false

(* ----- compact-representation accounting -----

   Hit/spill counts live in domain-local cells: value code has no
   context handle, and per-domain cells let the runner attribute a
   campaign's counts to its own domains even when other campaigns run
   concurrently on other domains (a process-global counter could not).
   Counts are throughput metadata — they never feed a verdict. *)

module Compact = struct
  type counters = { hits : int; spills : int }

  type cell = { mutable c_hits : int; mutable c_spills : int }

  let key = Domain.DLS.new_key (fun () -> { c_hits = 0; c_spills = 0 })

  let hit () =
    let c = Domain.DLS.get key in
    c.c_hits <- c.c_hits + 1

  let spill () =
    let c = Domain.DLS.get key in
    c.c_spills <- c.c_spills + 1

  let read () =
    let c = Domain.DLS.get key in
    { hits = c.c_hits; spills = c.c_spills }

  let since c0 =
    let c = read () in
    { hits = c.hits - c0.hits; spills = c.spills - c0.spills }

  (* Below these sizes the boxed representation is built directly: the
     constant-factor win would be negligible, and keeping small values
     boxed preserves every structural-equality comparison against small
     literals (never-empty is the load-bearing half of the invariant). *)
  let min_array_len = 256
  let min_str_bytes = 4096
end

(* ----- range arrays ----- *)

let range_arr ~first ~step ~len =
  Compact.hit ();
  Range_arr { rg_first = first; rg_step = step; rg_len = len; rg_spill = None }

let range_nth r i = Int (Int64.add r.rg_first (Int64.mul r.rg_step (Int64.of_int i)))

let range_last r =
  Int64.add r.rg_first (Int64.mul r.rg_step (Int64.of_int (r.rg_len - 1)))

let range_spill r =
  match r.rg_spill with
  | Some vs -> vs
  | None ->
    Compact.spill ();
    (* build back-to-front so the list is one pass, no reversal *)
    let vs = ref [] in
    for i = r.rg_len - 1 downto 0 do
      vs := range_nth r i :: !vs
    done;
    r.rg_spill <- Some !vs;
    !vs

let range_rev r =
  Compact.hit ();
  Range_arr
    {
      rg_first = range_last r;
      rg_step = Int64.neg r.rg_step;
      rg_len = r.rg_len;
      rg_spill = None;
    }

(* [offset] 0-based, [len >= 1]; sub-ranges below the compact threshold
   come back boxed so the size invariant survives slicing *)
let range_slice r ~offset ~len =
  let first =
    Int64.add r.rg_first (Int64.mul r.rg_step (Int64.of_int offset))
  in
  if len >= Compact.min_array_len then
    range_arr ~first ~step:r.rg_step ~len
  else begin
    let vs = ref [] in
    for i = len - 1 downto 0 do
      vs := Int (Int64.add first (Int64.mul r.rg_step (Int64.of_int i))) :: !vs
    done;
    Arr !vs
  end

(* ----- rope strings ----- *)

let rec rope_blit node buf pos =
  match node with
  | R_leaf s ->
    Bytes.blit_string s 0 buf pos (String.length s);
    pos + String.length s
  | R_rep (seg, n) ->
    let sl = String.length seg in
    let total = sl * n in
    (* write the segment once, then double the filled prefix in place *)
    Bytes.blit_string seg 0 buf pos sl;
    let filled = ref sl in
    while !filled < total do
      let k = Stdlib.min !filled (total - !filled) in
      Bytes.blit buf pos buf (pos + !filled) k;
      filled := !filled + k
    done;
    pos + total
  | R_cat (a, b) -> rope_blit b buf (rope_blit a buf pos)

let rope_flatten r =
  match r.rp_node with
  | R_leaf s -> s
  | node ->
    Compact.spill ();
    let buf = Bytes.create r.rp_bytes in
    let wrote = rope_blit node buf 0 in
    assert (wrote = r.rp_bytes);
    let s = Bytes.unsafe_to_string buf in
    r.rp_node <- R_leaf s;
    s

let str_rope_rep seg n =
  Compact.hit ();
  Rope_str { rp_node = R_rep (seg, n); rp_bytes = String.length seg * n }

let rope_of_value = function
  | Str s -> Some (R_leaf s, String.length s)
  | Rope_str r -> Some (r.rp_node, r.rp_bytes)
  | Null | Bool _ | Int _ | Dec _ | Float _ | Blob _ | Date _ | Time _
  | Datetime _ | Interval _ | Json _ | Arr _ | Map _ | Row _ | Inet _
  | Uuid _ | Geom _ | Xml _ | Range_arr _ ->
    None

let rope_concat a b =
  match (rope_of_value a, rope_of_value b) with
  | Some (na, la), Some (nb, lb) when la + lb > 0 ->
    Compact.hit ();
    Some (Rope_str { rp_node = R_cat (na, nb); rp_bytes = la + lb })
  | _ -> None

(* Sums a per-segment measure without flattening: exact for any measure
   that is additive across concatenation (byte length, UTF-8 character
   count — a continuation byte stays a continuation byte wherever the
   segment boundary falls). *)
let rope_measure f r =
  let rec go = function
    | R_leaf s -> f s
    | R_rep (seg, n) -> n * f seg
    | R_cat (a, b) -> go a + go b
  in
  go r.rp_node

let str_bytes = function
  | Str s -> Some (String.length s)
  | Rope_str r -> Some r.rp_bytes
  | Null | Bool _ | Int _ | Dec _ | Float _ | Blob _ | Date _ | Time _
  | Datetime _ | Interval _ | Json _ | Arr _ | Map _ | Row _ | Inet _
  | Uuid _ | Geom _ | Xml _ | Range_arr _ ->
    None

let arr_length = function
  | Arr vs -> Some (List.length vs)
  | Range_arr r -> Some r.rg_len
  | Null | Bool _ | Int _ | Dec _ | Float _ | Str _ | Blob _ | Date _
  | Time _ | Datetime _ | Interval _ | Json _ | Map _ | Row _ | Inet _
  | Uuid _ | Geom _ | Xml _ | Rope_str _ ->
    None

(* Shallow normalization: the boxed spelling of the top constructor.
   Elements of a spilled range are plain [Int]s, so one level suffices
   for arrays; a flattened rope is a plain string. *)
let view = function
  | Range_arr r -> Arr (range_spill r)
  | Rope_str r -> Str (rope_flatten r)
  | v -> v

let float_display f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "Infinity"
  else if f = Float.neg_infinity then "-Infinity"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

(* ----- range rendering -----

   A range renders as its elements' [Int64.to_string] joined by ", "
   inside brackets, written straight from first/step/len: one pass
   sums the digit counts, a second writes into a buffer of exactly
   that size, so neither the boxed cells nor the per-element strings
   exist. Digits come from the negated value, whose range covers
   [min_int] too. The digit helpers are inlined so that their int64
   argument stays unboxed: a call would box it once per element. *)

let neg64 v : int64 = if v < 0L then v else Int64.neg v

let[@inline] int64_width v =
  let n = ref (neg64 v) and w = ref (if v < 0L then 2 else 1) in
  while !n <= -10L do
    n := Int64.div !n 10L;
    incr w
  done;
  !w

(* writes [v] ending just before [stop]; its [int64_width] bytes start
   at [stop - int64_width v] *)
let[@inline] write_int64 buf stop v =
  let n = ref (neg64 v) and p = ref stop in
  while
    decr p;
    Bytes.unsafe_set buf !p (Char.unsafe_chr (48 - Int64.to_int (Int64.rem !n 10L)));
    n := Int64.div !n 10L;
    !n <> 0L
  do
    ()
  done;
  if v < 0L then Bytes.unsafe_set buf (!p - 1) '-'

(* the step past the last cell may wrap around; that value is never read *)
let range_display r =
  let width = ref (2 + (2 * (r.rg_len - 1))) in
  let v = ref r.rg_first in
  for _ = 1 to r.rg_len do
    width := !width + int64_width !v;
    v := Int64.add !v r.rg_step
  done;
  let buf = Bytes.create !width in
  Bytes.unsafe_set buf 0 '[';
  let pos = ref 1 in
  v := r.rg_first;
  for i = 1 to r.rg_len do
    if i > 1 then begin
      Bytes.unsafe_set buf !pos ',';
      Bytes.unsafe_set buf (!pos + 1) ' ';
      pos := !pos + 2
    end;
    pos := !pos + int64_width !v;
    write_int64 buf !pos !v;
    v := Int64.add !v r.rg_step
  done;
  Bytes.unsafe_set buf !pos ']';
  Bytes.unsafe_to_string buf

(* Containers render into one buffer: the same bytes as concatenating
   each element's rendering with the separators, without the
   intermediate strings and lists. *)
let rec to_display = function
  | Null -> "NULL"
  | Bool true -> "TRUE"
  | Bool false -> "FALSE"
  | Int i -> Int64.to_string i
  | Dec d -> Decimal.to_string d
  | Float f -> float_display f
  | Str s -> s
  | Rope_str r -> rope_flatten r
  | Blob b -> Codec.hex_encode ~prefix:"0x" b
  | Date d -> Calendar.date_to_string d
  | Time t -> Calendar.time_to_string t
  | Datetime dt -> Calendar.datetime_to_string dt
  | Interval { amount; unit_ } ->
    Printf.sprintf "INTERVAL %Ld %s" amount (Calendar.unit_to_string unit_)
  | Json j -> Json.to_string j
  | Range_arr r -> range_display r
  | (Arr _ | Map _ | Row _) as v ->
    let buf = Buffer.create 64 in
    add_display buf v;
    Buffer.contents buf
  | Inet a -> Inet.to_string a
  | Uuid u -> u
  | Geom g -> Geometry.to_wkt g
  | Xml nodes -> Xml_doc.to_string nodes

and add_display buf = function
  | Arr vs -> add_seq buf '[' ']' vs
  | Row vs -> add_seq buf '(' ')' vs
  | Map kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        add_display buf k;
        Buffer.add_string buf ": ";
        add_display buf v)
      kvs;
    Buffer.add_char buf '}'
  | v -> Buffer.add_string buf (to_display v)

and add_seq buf l r vs =
  Buffer.add_char buf l;
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ", ";
      add_display buf v)
    vs;
  Buffer.add_char buf r

(* Numeric coercion tower: Int < Dec < Float. *)
let as_dec = function
  | Int i -> Some (Decimal.of_int64 i)
  | Dec d -> Some d
  | Bool b -> Some (if b then Decimal.one else Decimal.zero)
  | Null | Float _ | Str _ | Blob _ | Date _ | Time _ | Datetime _
  | Interval _ | Json _ | Arr _ | Map _ | Row _ | Inet _ | Uuid _ | Geom _
  | Xml _ | Range_arr _ | Rope_str _ ->
    None

let as_float = function
  | Int i -> Some (Int64.to_float i)
  | Dec d -> Some (Decimal.to_float d)
  | Float f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Null | Str _ | Blob _ | Date _ | Time _ | Datetime _ | Interval _
  | Json _ | Arr _ | Map _ | Row _ | Inet _ | Uuid _ | Geom _ | Xml _
  | Range_arr _ | Rope_str _ ->
    None

(* O(1) lexicographic comparison of two arithmetic sequences, equal by
   construction to [compare_lists] over their spilled elements: the
   firsts decide, then (equal firsts) a length-1 sequence is a strict
   prefix, then the second elements — i.e. the steps — decide, and with
   equal steps the whole shorter sequence is a prefix so length
   decides. *)
let compare_ranges x y =
  let c = Int64.compare x.rg_first y.rg_first in
  if c <> 0 then Some c
  else if x.rg_len = 1 || y.rg_len = 1 then
    if x.rg_len = y.rg_len then Some 0
    else Some (if x.rg_len < y.rg_len then -1 else 1)
  else
    let c = Int64.compare x.rg_step y.rg_step in
    if c <> 0 then Some c
    else if x.rg_len = y.rg_len then Some 0
    else Some (if x.rg_len < y.rg_len then -1 else 1)

let rec compare_values a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Range_arr x, Range_arr y -> compare_ranges x y
  | (Range_arr _ | Rope_str _), _ | _, (Range_arr _ | Rope_str _) ->
    compare_values (view a) (view b)
  | Bool x, Bool y -> Some (compare x y)
  | Int x, Int y -> Some (Int64.compare x y)
  | Str x, Str y -> Some (String.compare x y)
  | Blob x, Blob y -> Some (String.compare x y)
  | Date x, Date y -> Some (Calendar.compare_date x y)
  | Time x, Time y ->
    Some
      (compare
         ((x.Calendar.hour * 3600) + (x.Calendar.minute * 60) + x.Calendar.second)
         ((y.Calendar.hour * 3600) + (y.Calendar.minute * 60) + y.Calendar.second))
  | Datetime x, Datetime y -> Some (Calendar.compare_datetime x y)
  | Uuid x, Uuid y -> Some (String.compare x y)
  | Inet x, Inet y -> Some (String.compare (Inet.to_bytes x) (Inet.to_bytes y))
  | (Float _, _ | _, Float _)
    when as_float a <> None && as_float b <> None ->
    (match (as_float a, as_float b) with
     | Some x, Some y ->
       if Float.is_nan x || Float.is_nan y then None else Some (Float.compare x y)
     | _, _ -> None)
  | (Int _ | Dec _ | Bool _), (Int _ | Dec _ | Bool _) ->
    (match (as_dec a, as_dec b) with
     | Some x, Some y -> Some (Decimal.compare x y)
     | _, _ -> None)
  | Arr xs, Arr ys -> compare_lists xs ys
  | Str x, Date _ ->
    (match Calendar.date_of_string x with
     | Some d -> compare_values (Date d) b
     | None -> None)
  | Date _, Str y ->
    (match Calendar.date_of_string y with
     | Some d -> compare_values a (Date d)
     | None -> None)
  | _, _ -> None

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> Some 0
  | [], _ :: _ -> Some (-1)
  | _ :: _, [] -> Some 1
  | x :: xs', y :: ys' ->
    (match compare_values x y with
     | Some 0 -> compare_lists xs' ys'
     | (Some _ | None) as r -> r)

let equal a b = match compare_values a b with Some 0 -> true | Some _ | None -> false

let rec size_of = function
  | Null | Bool _ -> 1
  | Int _ -> 8
  | Float _ -> 8
  | Dec d -> Decimal.precision d + 4
  | Str s | Blob s | Uuid s -> String.length s
  | Rope_str r -> r.rp_bytes  (* = String.length of the flat string *)
  | Date _ -> 4
  | Time _ -> 4
  | Datetime _ -> 8
  | Interval _ -> 12
  | Json j -> String.length (Json.to_string j)
  | Arr vs | Row vs -> List.fold_left (fun acc v -> acc + size_of v) 8 vs
  | Range_arr r -> 8 + (8 * r.rg_len)  (* = the boxed fold: 8 + 8/element *)
  | Map kvs ->
    List.fold_left (fun acc (k, v) -> acc + size_of k + size_of v) 8 kvs
  | Inet _ -> 16
  | Geom g -> 16 * Geometry.num_points g
  | Xml nodes -> String.length (Xml_doc.to_string nodes)

let rec depth_of = function
  | Null | Bool _ | Int _ | Dec _ | Float _ | Str _ | Blob _ | Date _
  | Time _ | Datetime _ | Interval _ | Inet _ | Uuid _ | Geom _
  | Rope_str _ ->
    1
  | Json j -> Json.depth j
  | Xml nodes ->
    1 + List.fold_left (fun m n -> Stdlib.max m (Xml_doc.node_depth n)) 0 nodes
  | Arr [] | Row [] | Map [] -> 1
  | Arr vs | Row vs ->
    1 + List.fold_left (fun m v -> Stdlib.max m (depth_of v)) 0 vs
  | Range_arr _ -> 2  (* nonempty array of scalars, exactly the boxed depth *)
  | Map kvs ->
    1 + List.fold_left (fun m (_, v) -> Stdlib.max m (depth_of v)) 0 kvs

let pp fmt v = Format.pp_print_string fmt (to_display v)

let quote_max_bytes = 64

(* one allocation for the result: a message is built for every
   rejected case *)
let quote s =
  let n = String.length s in
  let short = n <= quote_max_bytes in
  let e = String.escaped (if short then s else String.sub s 0 quote_max_bytes) in
  let tail = if short then "\"" else "\"... (" ^ string_of_int n ^ " bytes)" in
  let el = String.length e and tl = String.length tail in
  let b = Bytes.create (1 + el + tl) in
  Bytes.set b 0 '"';
  Bytes.blit_string e 0 b 1 el;
  Bytes.blit_string tail 0 b (1 + el) tl;
  Bytes.unsafe_to_string b
