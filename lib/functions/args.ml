open Sqlfun_value
open Sqlfun_fault
open Sqlfun_data
open Sqlfun_num
open Sqlfun_ast

(* The argument value as the evaluator produced it — possibly a compact
   representation (range array, rope string). Only the accessors below
   that provably treat compact and boxed spellings identically may use
   it; everything else goes through {!value}, which normalizes. *)
let raw args i =
  match List.nth_opt args i with
  | Some a ->
    if a.Fault.prov = Fault.Prov.Star then
      Fn_ctx.err "improper use of '*' as argument %d" (i + 1)
    else a.Fault.value
  | None -> Fn_ctx.err "missing argument %d" (i + 1)

(* Normalization choke point: every consumer reached from here sees the
   boxed spelling, so the function implementations' pattern matches are
   representation-blind by construction. *)
let value args i = Value.view (raw args i)

let raw_opt args i =
  match List.nth_opt args i with
  | Some a when a.Fault.prov <> Fault.Prov.Star -> Some a.Fault.value
  | Some _ | None -> None

let value_opt args i = Option.map Value.view (raw_opt args i)

let reject_containers what v =
  match v with
  | Value.Arr _ | Value.Map _ | Value.Row _ | Value.Range_arr _ ->
    Fn_ctx.err "cannot coerce %s to %s" (Value.ty_name (Value.type_of v)) what
  | _ -> v

(* The scalar accessors reject containers on the raw value and view only
   what passed: [type_of] names a range ARRAY as its spilled cells do, so
   the error is the boxed path's without building those cells. *)
let scalar what args i = Value.view (reject_containers what (raw args i))

let str ctx args i =
  match Fn_ctx.cast_value ctx (scalar "a string" args i) Ast.T_text with
  | Value.Str s -> s
  | Value.Null -> Fn_ctx.err "unexpected NULL argument %d" (i + 1)
  | v -> Value.to_display v

let int_ ctx args i =
  match Fn_ctx.cast_value ctx (scalar "an integer" args i) Ast.T_bigint with
  | Value.Int v -> v
  | Value.Null -> Fn_ctx.err "unexpected NULL argument %d" (i + 1)
  | v -> Fn_ctx.err "argument %d is not an integer (%s)" (i + 1)
      (Value.ty_name (Value.type_of v))

let int_opt ctx args i =
  match raw_opt args i with
  | None -> None
  | Some Value.Null -> None
  | Some _ -> Some (int_ ctx args i)

let dec ctx args i =
  match Fn_ctx.cast_value ctx (scalar "a number" args i) (Ast.T_decimal None) with
  | Value.Dec d -> d
  | Value.Null -> Fn_ctx.err "unexpected NULL argument %d" (i + 1)
  | v -> Fn_ctx.err "argument %d is not a number (%s)" (i + 1)
      (Value.ty_name (Value.type_of v))

let float_ ctx args i =
  match Fn_ctx.cast_value ctx (scalar "a number" args i) Ast.T_double with
  | Value.Float f -> f
  | Value.Null -> Fn_ctx.err "unexpected NULL argument %d" (i + 1)
  | v -> Fn_ctx.err "argument %d is not a number (%s)" (i + 1)
      (Value.ty_name (Value.type_of v))

let bool_ ctx args i =
  match Fn_ctx.cast_value ctx (scalar "a boolean" args i) Ast.T_bool with
  | Value.Bool b -> b
  | Value.Null -> Fn_ctx.err "unexpected NULL argument %d" (i + 1)
  | v -> Fn_ctx.err "argument %d is not a boolean (%s)" (i + 1)
      (Value.ty_name (Value.type_of v))

let json ctx args i =
  match Fn_ctx.cast_value ctx (value args i) Ast.T_json with
  | Value.Json j -> j
  | Value.Null -> Fn_ctx.err "unexpected NULL argument %d" (i + 1)
  | v -> Fn_ctx.err "argument %d is not JSON (%s)" (i + 1) (Value.ty_name (Value.type_of v))

let json_path ctx args i =
  let s = str ctx args i in
  match Json.parse_path s with
  | Ok p -> p
  | Error msg -> Fn_ctx.err "bad JSON path %s: %s" (Value.quote s) msg

let date ctx args i =
  match Fn_ctx.cast_value ctx (scalar "a date" args i) Ast.T_date with
  | Value.Date d -> d
  | Value.Null -> Fn_ctx.err "argument %d is not a valid date" (i + 1)
  | v -> Fn_ctx.err "argument %d is not a date (%s)" (i + 1)
      (Value.ty_name (Value.type_of v))

let datetime ctx args i =
  match Fn_ctx.cast_value ctx (scalar "a datetime" args i) Ast.T_datetime with
  | Value.Datetime dt -> dt
  | Value.Date d ->
    (match Calendar.datetime_of_string (Calendar.date_to_string d) with
     | Some dt -> dt
     | None -> Fn_ctx.err "argument %d is not a valid datetime" (i + 1))
  | Value.Null -> Fn_ctx.err "argument %d is not a valid datetime" (i + 1)
  | v -> Fn_ctx.err "argument %d is not a datetime (%s)" (i + 1)
      (Value.ty_name (Value.type_of v))

let array _ctx args i =
  match value args i with
  | Value.Arr vs -> vs
  | Value.Json (Json.J_arr elems) ->
    List.map
      (fun j ->
        match j with
        | Json.J_null -> Value.Null
        | Json.J_bool b -> Value.Bool b
        | Json.J_num n ->
          (match Decimal.of_string n with
           | Ok d -> Value.Dec d
           | Error _ -> Value.Str n)
        | Json.J_str s -> Value.Str s
        | Json.J_arr _ | Json.J_obj _ -> Value.Json j)
      elems
  | v -> Fn_ctx.err "argument %d is not an array (%s)" (i + 1)
      (Value.ty_name (Value.type_of v))

let map _ctx args i =
  match value args i with
  | Value.Map kvs -> kvs
  | v -> Fn_ctx.err "argument %d is not a map (%s)" (i + 1)
      (Value.ty_name (Value.type_of v))

let geometry ctx args i =
  match Fn_ctx.cast_value ctx (value args i) Ast.T_geometry with
  | Value.Geom g -> g
  | Value.Null -> Fn_ctx.err "argument %d is not a geometry" (i + 1)
  | v -> Fn_ctx.err "argument %d is not a geometry (%s)" (i + 1)
      (Value.ty_name (Value.type_of v))

let blob _ctx args i =
  match value args i with
  | Value.Blob b -> b
  | Value.Str s -> s
  | v -> Fn_ctx.err "argument %d is not binary (%s)" (i + 1)
      (Value.ty_name (Value.type_of v))

let xml ctx args i =
  match Fn_ctx.cast_value ctx (value args i) Ast.T_xml with
  | Value.Xml nodes -> nodes
  | Value.Null -> Fn_ctx.err "argument %d is not XML" (i + 1)
  | v -> Fn_ctx.err "argument %d is not XML (%s)" (i + 1) (Value.ty_name (Value.type_of v))

let xpath ctx args i =
  let s = str ctx args i in
  match Xml_doc.parse_xpath s with
  | Ok p -> p
  | Error msg -> Fn_ctx.err "bad XPath %s: %s" (Value.quote s) msg

let small_int ctx args i =
  let v = int_ ctx args i in
  if v > Int64.of_int max_int || v < Int64.of_int min_int then
    Fn_ctx.err "argument %d out of range" (i + 1)
  else Int64.to_int v

(* ----- compact-preserving accessors -----

   These mirror {!str}/{!array} exactly — same errors, same coverage
   points — but keep a compact argument compact so the O(1) fast paths
   in the hot functions (LENGTH, ARRAY_LENGTH, REPEAT chains, slicing)
   never force a materialization. *)

let str_value ctx args i =
  match
    Fn_ctx.cast_value ctx (reject_containers "a string" (raw args i)) Ast.T_text
  with
  | Value.Null -> Fn_ctx.err "unexpected NULL argument %d" (i + 1)
  | Value.Str _ as v -> v
  | Value.Rope_str _ as v -> v  (* T_text is an identity cast on ropes *)
  | v -> Value.Str (Value.to_display v)

let str_byte_length ctx args i =
  match Value.str_bytes (str_value ctx args i) with
  | Some n -> n
  | None -> assert false (* str_value only returns string values *)

let array_length ctx args i =
  match raw args i with
  | Value.Range_arr r -> r.Value.rg_len
  | _ -> List.length (array ctx args i)

let array_value ctx args i =
  match raw args i with
  | (Value.Arr _ | Value.Range_arr _) as v -> v
  | _ -> Value.Arr (array ctx args i)
