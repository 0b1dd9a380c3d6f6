open Sqlfun_num
open Sqlfun_data
open Sqlfun_ast
module Coverage = Sqlfun_coverage.Coverage

type strictness = Strict | Lenient

type config = { strictness : strictness; json_max_depth : int option }

type error = Invalid of string | Unsupported of string | Depth_blown of int

let error_to_string = function
  | Invalid msg -> "invalid cast: " ^ msg
  | Unsupported msg -> "unsupported cast: " ^ msg
  | Depth_blown d -> Printf.sprintf "nesting exceeded %d during cast" d

let ty_of_type_name = function
  | Ast.T_bool -> Value.Ty_bool
  | Ast.T_smallint | Ast.T_int | Ast.T_bigint | Ast.T_unsigned -> Value.Ty_int
  | Ast.T_decimal _ -> Value.Ty_dec
  | Ast.T_float | Ast.T_double -> Value.Ty_float
  | Ast.T_char _ | Ast.T_varchar _ | Ast.T_text -> Value.Ty_str
  | Ast.T_blob -> Value.Ty_blob
  | Ast.T_date -> Value.Ty_date
  | Ast.T_time -> Value.Ty_time
  | Ast.T_datetime -> Value.Ty_datetime
  | Ast.T_interval_t -> Value.Ty_interval
  | Ast.T_json -> Value.Ty_json
  | Ast.T_array_t _ -> Value.Ty_array
  | Ast.T_map_t _ -> Value.Ty_map
  | Ast.T_inet -> Value.Ty_inet
  | Ast.T_uuid -> Value.Ty_uuid
  | Ast.T_geometry -> Value.Ty_geometry
  | Ast.T_xml -> Value.Ty_xml
  | Ast.T_row_t -> Value.Ty_row
  | Ast.T_named _ -> Value.Ty_dec

(* ----- integer targets ----- *)

let int_bounds = function
  | Ast.T_smallint -> (-32768L, 32767L)
  | Ast.T_int -> (-2147483648L, 2147483647L)
  | _ -> (Int64.min_int, Int64.max_int)

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

(* Parse the longest numeric prefix of a string, MySQL-style. *)
let lenient_numeric_prefix s =
  let n = String.length s in
  let i = ref 0 in
  if !i < n && (s.[!i] = '-' || s.[!i] = '+') then incr i;
  let start_digits = !i in
  while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
    incr i
  done;
  if !i < n && s.[!i] = '.' then begin
    incr i;
    while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
      incr i
    done
  end;
  if !i = start_digits then None else Some (String.sub s 0 !i)

let dec_of_string_lenient cfg s =
  match Decimal.of_string (String.trim s) with
  | Ok d -> Some d
  | Error _ ->
    (match cfg.strictness with
     | Strict -> None
     | Lenient ->
       (match lenient_numeric_prefix (String.trim s) with
        | Some prefix ->
          (match Decimal.of_string prefix with
           | Ok d -> Some d
           | Error _ -> Some Decimal.zero)
        | None -> Some Decimal.zero))

let rec to_int_target cfg target v =
  let lo, hi = int_bounds target in
  let from_dec d =
    match Decimal.to_int64 (Decimal.round ~scale:0 d) with
    | Some i ->
      if i >= lo && i <= hi then Ok (Value.Int i)
      else
        (match cfg.strictness with
         | Strict -> Error (Invalid "integer out of range")
         | Lenient -> Ok (Value.Int (clamp lo hi i)))
    | None ->
      (match cfg.strictness with
       | Strict -> Error (Invalid "integer out of range")
       | Lenient ->
         Ok (Value.Int (if Decimal.is_negative d then lo else hi)))
  in
  match v with
  | Value.Int i ->
    if i >= lo && i <= hi then Ok (Value.Int i)
    else
      (match cfg.strictness with
       | Strict -> Error (Invalid "integer out of range")
       | Lenient -> Ok (Value.Int (clamp lo hi i)))
  | Value.Bool b -> Ok (Value.Int (if b then 1L else 0L))
  | Value.Dec d -> from_dec d
  | Value.Float f ->
    if Float.is_nan f then
      (match cfg.strictness with
       | Strict -> Error (Invalid "cannot cast NaN to integer")
       | Lenient -> Ok (Value.Int 0L))
    else
      (match Checked_int.of_float (Float.round f) with
       | Some i ->
         if i >= lo && i <= hi then Ok (Value.Int i)
         else
           (match cfg.strictness with
            | Strict -> Error (Invalid "integer out of range")
            | Lenient -> Ok (Value.Int (clamp lo hi i)))
       | None ->
         (match cfg.strictness with
          | Strict -> Error (Invalid "integer out of range")
          | Lenient -> Ok (Value.Int (if f < 0.0 then lo else hi))))
  | Value.Str s ->
    (match dec_of_string_lenient cfg s with
     | Some d -> from_dec d
     | None -> Error (Invalid (Value.quote s ^ " is not an integer")))
  | Value.Date d ->
    (* MySQL renders dates as YYYYMMDD integers *)
    Ok
      (Value.Int
         (Int64.of_int
            ((d.Calendar.year * 10000) + (d.Calendar.month * 100) + d.Calendar.day)))
  | Value.Blob _ | Value.Time _ | Value.Datetime _ | Value.Interval _
  | Value.Json _ | Value.Arr _ | Value.Map _ | Value.Row _ | Value.Inet _
  | Value.Uuid _ | Value.Geom _ | Value.Xml _ ->
    Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to integer"))
  | Value.Range_arr _ | Value.Rope_str _ ->
    to_int_target cfg target (Value.view v)
  | Value.Null -> Ok Value.Null

let to_unsigned cfg v =
  match to_int_target cfg Ast.T_bigint v with
  | Ok (Value.Int i) when i < 0L ->
    (match cfg.strictness with
     | Strict -> Error (Invalid "negative value for UNSIGNED")
     | Lenient -> Ok (Value.Int 0L))
  | other -> other

(* ----- decimal target ----- *)

let max_decimal_precision = 65

let rec to_decimal ?(precision_cap = max_decimal_precision) cfg spec v =
  let fit d =
    match spec with
    | None -> Ok (Value.Dec d)
    | Some (p, s) ->
      if p <= 0 || s < 0 || s > p || p > precision_cap then
        Error (Invalid "bad DECIMAL precision/scale")
      else begin
        let d = Decimal.round ~scale:s d in
        if Decimal.int_digits d > p - s && not (Decimal.is_zero d) then
          match cfg.strictness with
          | Strict -> Error (Invalid "numeric value out of precision range")
          | Lenient ->
            (* saturate at the largest representable magnitude *)
            let digits = String.make p '9' in
            let sat =
              Decimal.make ~neg:(Decimal.is_negative d) ~digits ~scale:s
            in
            Ok (Value.Dec sat)
        else Ok (Value.Dec d)
      end
  in
  match v with
  | Value.Int i -> fit (Decimal.of_int64 i)
  | Value.Dec d -> fit d
  | Value.Bool b -> fit (if b then Decimal.one else Decimal.zero)
  | Value.Float f ->
    if Float.is_nan f || Float.abs f = Float.infinity then
      (match cfg.strictness with
       | Strict -> Error (Invalid "non-finite value for DECIMAL")
       | Lenient -> fit Decimal.zero)
    else
      (match Decimal.of_string (Printf.sprintf "%.17g" f) with
       | Ok d -> fit d
       | Error msg -> Error (Invalid msg))
  | Value.Str s ->
    (match dec_of_string_lenient cfg s with
     | Some d -> fit d
     | None -> Error (Invalid (Value.quote s ^ " is not a number")))
  | Value.Null -> Ok Value.Null
  | Value.Blob _ | Value.Date _ | Value.Time _ | Value.Datetime _
  | Value.Interval _ | Value.Json _ | Value.Arr _ | Value.Map _ | Value.Row _
  | Value.Inet _ | Value.Uuid _ | Value.Geom _ | Value.Xml _ ->
    Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to DECIMAL"))
  | Value.Range_arr _ | Value.Rope_str _ ->
    to_decimal ~precision_cap cfg spec (Value.view v)

(* ----- float target ----- *)

let rec to_float_target cfg v =
  match v with
  | Value.Float f -> Ok (Value.Float f)
  | Value.Int i -> Ok (Value.Float (Int64.to_float i))
  | Value.Dec d -> Ok (Value.Float (Decimal.to_float d))
  | Value.Bool b -> Ok (Value.Float (if b then 1.0 else 0.0))
  | Value.Str s ->
    (match float_of_string_opt (String.trim s) with
     | Some f -> Ok (Value.Float f)
     | None ->
       (match cfg.strictness with
        | Strict -> Error (Invalid (Value.quote s ^ " is not a float"))
        | Lenient ->
          (match lenient_numeric_prefix (String.trim s) with
           | Some p ->
             (match float_of_string_opt p with
              | Some f -> Ok (Value.Float f)
              | None -> Ok (Value.Float 0.0))
           | None -> Ok (Value.Float 0.0))))
  | Value.Null -> Ok Value.Null
  | Value.Blob _ | Value.Date _ | Value.Time _ | Value.Datetime _
  | Value.Interval _ | Value.Json _ | Value.Arr _ | Value.Map _ | Value.Row _
  | Value.Inet _ | Value.Uuid _ | Value.Geom _ | Value.Xml _ ->
    Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to DOUBLE"))
  | Value.Range_arr _ | Value.Rope_str _ -> to_float_target cfg (Value.view v)

(* ----- string targets ----- *)

let to_string_target cfg limit v =
  let s = Value.to_display v in
  match limit with
  | None -> Ok (Value.Str s)
  | Some n ->
    if n < 0 then Error (Invalid "negative length for string type")
    else if String.length s <= n then Ok (Value.Str s)
    else
      (match cfg.strictness with
       | Strict -> Error (Invalid (Printf.sprintf "value too long for CHAR(%d)" n))
       | Lenient -> Ok (Value.Str (String.sub s 0 n)))

(* ----- temporal targets ----- *)

let int_to_date i =
  (* MySQL-style YYYYMMDD integer dates *)
  if i < 101L || i > 99991231L then None
  else begin
    let i = Int64.to_int i in
    Calendar.make_date ~year:(i / 10000) ~month:(i mod 10000 / 100) ~day:(i mod 100)
  end

let rec to_date cfg v =
  match v with
  | Value.Date _ -> Ok v
  | Value.Datetime dt -> Ok (Value.Date dt.Calendar.date)
  | Value.Str s ->
    (match Calendar.date_of_string s with
     | Some d -> Ok (Value.Date d)
     | None ->
       (match cfg.strictness with
        | Strict -> Error (Invalid (Value.quote s ^ " is not a date"))
        | Lenient -> Ok Value.Null))
  | Value.Int i ->
    (match int_to_date i with
     | Some d -> Ok (Value.Date d)
     | None ->
       (match cfg.strictness with
        | Strict -> Error (Invalid "integer is not a date")
        | Lenient -> Ok Value.Null))
  | Value.Null -> Ok Value.Null
  | Value.Bool _ | Value.Dec _ | Value.Float _ | Value.Blob _ | Value.Time _
  | Value.Interval _ | Value.Json _ | Value.Arr _ | Value.Map _ | Value.Row _
  | Value.Inet _ | Value.Uuid _ | Value.Geom _ | Value.Xml _ ->
    Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to DATE"))
  | Value.Range_arr _ | Value.Rope_str _ -> to_date cfg (Value.view v)

let to_time cfg v =
  match v with
  | Value.Time _ -> Ok v
  | Value.Datetime dt -> Ok (Value.Time dt.Calendar.time)
  | Value.Str s ->
    (match Calendar.time_of_string s with
     | Some t -> Ok (Value.Time t)
     | None ->
       (match cfg.strictness with
        | Strict -> Error (Invalid (Value.quote s ^ " is not a time"))
        | Lenient -> Ok Value.Null))
  | Value.Null -> Ok Value.Null
  | _ -> Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to TIME"))

let to_datetime cfg v =
  match v with
  | Value.Datetime _ -> Ok v
  | Value.Date date ->
    Ok
      (Value.Datetime
         {
           Calendar.date;
           time =
             (match Calendar.make_time ~hour:0 ~minute:0 ~second:0 with
              | Some t -> t
              | None -> assert false);
         })
  | Value.Str s ->
    (match Calendar.datetime_of_string s with
     | Some dt -> Ok (Value.Datetime dt)
     | None ->
       (match cfg.strictness with
        | Strict -> Error (Invalid (Value.quote s ^ " is not a datetime"))
        | Lenient -> Ok Value.Null))
  | Value.Null -> Ok Value.Null
  | _ -> Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to DATETIME"))

(* ----- json target ----- *)

let rec json_of_value v =
  match v with
  | Value.Null -> Some Json.J_null
  | Value.Bool b -> Some (Json.J_bool b)
  | Value.Int i -> Some (Json.J_num (Int64.to_string i))
  | Value.Dec d -> Some (Json.J_num (Decimal.to_string d))
  | Value.Float f ->
    if Float.is_nan f || Float.abs f = Float.infinity then None
    else Some (Json.J_num (Printf.sprintf "%.17g" f))
  | Value.Json j -> Some j
  | Value.Arr vs | Value.Row vs ->
    let elems = List.filter_map json_of_value vs in
    if List.length elems = List.length vs then Some (Json.J_arr elems) else None
  | Value.Map kvs ->
    let pairs =
      List.filter_map
        (fun (k, v) ->
          match json_of_value v with
          | Some jv -> Some (Value.to_display k, jv)
          | None -> None)
        kvs
    in
    if List.length pairs = List.length kvs then Some (Json.J_obj pairs) else None
  | Value.Str _ | Value.Blob _ | Value.Date _ | Value.Time _
  | Value.Datetime _ | Value.Interval _ | Value.Inet _ | Value.Uuid _
  | Value.Geom _ | Value.Xml _ ->
    Some (Json.J_str (Value.to_display v))
  | Value.Range_arr _ | Value.Rope_str _ -> json_of_value (Value.view v)

let to_json cfg v =
  match v with
  | Value.Json _ -> Ok v
  | Value.Str s ->
    (* With the budget disabled the recursion is only bounded by the
       simulated process stack (~1k frames): exceeding it is a crash, not
       an error — the CVE-2015-5289 configuration. *)
    let max_depth = match cfg.json_max_depth with Some d -> d | None -> 1024 in
    (match Json.parse ~max_depth s with
     | Ok j -> Ok (Value.Json j)
     | Error (Json.Depth_exceeded d) ->
       if cfg.json_max_depth = None then Error (Depth_blown d)
       else Error (Invalid (Printf.sprintf "json nesting exceeds %d" d))
     | Error (Json.Syntax _ as e) ->
       (match cfg.strictness with
        | Strict -> Error (Invalid (Json.error_to_string e))
        | Lenient -> Ok (Value.Json (Json.J_str s))))
  | Value.Null -> Ok Value.Null
  | _ ->
    (match json_of_value v with
     | Some j -> Ok (Value.Json j)
     | None -> Error (Invalid "value has no JSON representation"))

(* ----- container / misc targets ----- *)

let to_inet cfg v =
  match v with
  | Value.Inet _ -> Ok v
  | Value.Str s ->
    (match Inet.of_string s with
     | Some a -> Ok (Value.Inet a)
     | None ->
       (match cfg.strictness with
        | Strict -> Error (Invalid (Value.quote s ^ " is not an address"))
        | Lenient -> Ok Value.Null))
  | Value.Blob b ->
    (match Inet.of_bytes b with
     | Some a -> Ok (Value.Inet a)
     | None -> Error (Invalid "blob is not a 4- or 16-byte address"))
  | Value.Null -> Ok Value.Null
  | _ -> Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to INET"))

let is_uuid_format s =
  String.length s = 36
  && (let ok = ref true in
      String.iteri
        (fun i c ->
          let expected_dash = i = 8 || i = 13 || i = 18 || i = 23 in
          if expected_dash then begin
            if c <> '-' then ok := false
          end
          else if
            not
              ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
               || (c >= 'A' && c <= 'F'))
          then ok := false)
        s;
      !ok)

let to_uuid cfg v =
  match v with
  | Value.Uuid _ -> Ok v
  | Value.Str s ->
    if is_uuid_format s then Ok (Value.Uuid (String.lowercase_ascii s))
    else
      (match cfg.strictness with
       | Strict -> Error (Invalid (Value.quote s ^ " is not a UUID"))
       | Lenient -> Ok Value.Null)
  | Value.Null -> Ok Value.Null
  | _ -> Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to UUID"))

let to_geometry _cfg v =
  match v with
  | Value.Geom _ -> Ok v
  | Value.Str s ->
    (match Geometry.of_wkt s with
     | Ok g -> Ok (Value.Geom g)
     | Error msg -> Error (Invalid msg))
  | Value.Blob b ->
    (match Geometry.of_wkb b with
     | Ok g -> Ok (Value.Geom g)
     | Error msg -> Error (Invalid msg))
  | Value.Null -> Ok Value.Null
  | _ -> Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to GEOMETRY"))

let to_xml _cfg v =
  match v with
  | Value.Xml _ -> Ok v
  | Value.Str s ->
    (match Xml_doc.parse s with
     | Ok nodes -> Ok (Value.Xml nodes)
     | Error msg -> Error (Invalid msg))
  | Value.Null -> Ok Value.Null
  | _ -> Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to XML"))

let to_interval cfg v =
  match v with
  | Value.Interval _ -> Ok v
  | Value.Str s ->
    (match String.split_on_char ' ' (String.trim s) with
     | [ amount; unit_str ] ->
       (match (Int64.of_string_opt amount, Calendar.unit_of_string unit_str) with
        | Some amount, Some unit_ -> Ok (Value.Interval { Calendar.amount; unit_ })
        | _, _ ->
          (match cfg.strictness with
           | Strict -> Error (Invalid (Value.quote s ^ " is not an interval"))
           | Lenient -> Ok Value.Null))
     | _ ->
       (match cfg.strictness with
        | Strict -> Error (Invalid (Value.quote s ^ " is not an interval"))
        | Lenient -> Ok Value.Null))
  | Value.Int i -> Ok (Value.Interval { Calendar.amount = i; unit_ = Calendar.Day })
  | Value.Null -> Ok Value.Null
  | _ -> Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to INTERVAL"))

let to_blob _cfg v =
  match v with
  | Value.Blob _ -> Ok v
  | Value.Str s -> Ok (Value.Blob s)
  | Value.Inet a -> Ok (Value.Blob (Inet.to_bytes a))
  | Value.Geom g -> Ok (Value.Blob (Geometry.to_wkb g))
  | Value.Null -> Ok Value.Null
  | Value.Int _ | Value.Bool _ | Value.Dec _ | Value.Float _ ->
    Ok (Value.Blob (Value.to_display v))
  | _ -> Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to BLOB"))

let to_bool cfg v =
  match v with
  | Value.Bool _ -> Ok v
  | Value.Int i -> Ok (Value.Bool (i <> 0L))
  | Value.Dec d -> Ok (Value.Bool (not (Decimal.is_zero d)))
  | Value.Float f -> Ok (Value.Bool (f <> 0.0))
  | Value.Str s ->
    (match String.lowercase_ascii (String.trim s) with
     | "t" | "true" | "1" | "yes" | "on" -> Ok (Value.Bool true)
     | "f" | "false" | "0" | "no" | "off" -> Ok (Value.Bool false)
     | _ ->
       (match cfg.strictness with
        | Strict -> Error (Invalid (Value.quote s ^ " is not a boolean"))
        | Lenient ->
          (match lenient_numeric_prefix (String.trim s) with
           | Some p ->
             (match float_of_string_opt p with
              | Some f -> Ok (Value.Bool (f <> 0.0))
              | None -> Ok (Value.Bool false))
           | None -> Ok (Value.Bool false))))
  | Value.Null -> Ok Value.Null
  | _ -> Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to BOOLEAN"))

(* Dialect-specific named types: the ClickHouse DecimalNN(scale) family and
   a few spelled-out aliases. Anything else is an unsupported cast, which
   the engine surfaces as a clean SQL error. *)
let named_type cfg name args v =
  match (name, args) with
  | ("DECIMAL32" | "DECIMAL64" | "DECIMAL128" | "DECIMAL256"), [ scale ] ->
    let precision =
      match name with
      | "DECIMAL32" -> 9
      | "DECIMAL64" -> 18
      | "DECIMAL128" -> 38
      | _ -> 76
    in
    if scale > precision then Error (Invalid "scale exceeds precision")
    else to_decimal ~precision_cap:76 cfg (Some (precision, scale)) v
  | "LONGTEXT", [] | "MEDIUMTEXT", [] | "TINYTEXT", [] ->
    to_string_target cfg None v
  | _ -> Error (Unsupported (Printf.sprintf "type %s" name))

let rec to_array cfg elt_ty v =
  match v with
  | Value.Arr vs ->
    let rec convert acc = function
      | [] -> Ok (Value.Arr (List.rev acc))
      | x :: rest ->
        (match dispatch cfg x elt_ty with
         | Ok x' -> convert (x' :: acc) rest
         | Error _ as e -> e)
    in
    convert [] vs
  | Value.Json (Json.J_arr elems) ->
    let vs =
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
    in
    to_array cfg elt_ty (Value.Arr vs)
  | Value.Null -> Ok Value.Null
  | _ -> Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to ARRAY"))

and dispatch cfg v target =
  (* Compact head: identity casts keep the compact representation (the
     boxed path would return the very same bytes/elements — a rope IS a
     TEXT value, a range IS an ARRAY of in-range BIGINTs). A range cast
     to a string type goes straight to [to_string_target]: that converter
     reads only [Value.to_display], which renders a range from
     first/step/len to the bytes of its spelled-out cells. Every other
     target sees the boxed spelling, so the remaining per-target
     converters never meet a compact value and their verdicts cannot
     depend on the representation. *)
  match v with
  | Value.Rope_str r ->
    (match target with
     | Ast.T_text | Ast.T_char None | Ast.T_varchar None -> Ok v
     | (Ast.T_char (Some n) | Ast.T_varchar (Some n))
       when n >= 0 && r.Value.rp_bytes <= n ->
       Ok v
     | _ -> dispatch cfg (Value.view v) target)
  | Value.Range_arr _ ->
    (match target with
     | Ast.T_array_t Ast.T_bigint -> Ok v
     | Ast.T_text -> to_string_target cfg None v
     | Ast.T_char limit | Ast.T_varchar limit -> to_string_target cfg limit v
     | _ -> dispatch cfg (Value.view v) target)
  | _ ->
  match target with
  | Ast.T_bool -> to_bool cfg v
  | Ast.T_smallint | Ast.T_int | Ast.T_bigint -> to_int_target cfg target v
  | Ast.T_unsigned -> to_unsigned cfg v
  | Ast.T_decimal spec -> to_decimal cfg spec v
  | Ast.T_float | Ast.T_double -> to_float_target cfg v
  | Ast.T_char limit | Ast.T_varchar limit -> to_string_target cfg limit v
  | Ast.T_text -> to_string_target cfg None v
  | Ast.T_blob -> to_blob cfg v
  | Ast.T_date -> to_date cfg v
  | Ast.T_time -> to_time cfg v
  | Ast.T_datetime -> to_datetime cfg v
  | Ast.T_interval_t -> to_interval cfg v
  | Ast.T_json -> to_json cfg v
  | Ast.T_array_t elt -> to_array cfg elt v
  | Ast.T_map_t _ ->
    (match v with
     | Value.Map _ | Value.Null -> Ok v
     | _ -> Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to MAP")))
  | Ast.T_inet -> to_inet cfg v
  | Ast.T_uuid -> to_uuid cfg v
  | Ast.T_geometry -> to_geometry cfg v
  | Ast.T_xml -> to_xml cfg v
  | Ast.T_row_t ->
    (match v with
     | Value.Row _ | Value.Null -> Ok v
     | _ -> Error (Unsupported (Value.ty_name (Value.type_of v) ^ " to ROW")))
  | Ast.T_named (name, args) -> named_type cfg name args v

(* ----- coverage points -----

   A cast records "cast/SOURCE->TARGET/ok|err". For the argument-free
   targets those names are built once, here, into a table indexed by
   (source tag, target, outcome); a cast then hits its entry by index.
   Parametric targets (VARCHAR(n), ARRAY(..), named types) still build
   their name per cast. *)

let plain_targets =
  [| Ast.T_bool; Ast.T_smallint; Ast.T_int; Ast.T_bigint; Ast.T_unsigned;
     Ast.T_decimal None; Ast.T_float; Ast.T_double; Ast.T_char None;
     Ast.T_varchar None; Ast.T_text; Ast.T_blob; Ast.T_date; Ast.T_time;
     Ast.T_datetime; Ast.T_interval_t; Ast.T_json; Ast.T_inet; Ast.T_uuid;
     Ast.T_geometry; Ast.T_xml; Ast.T_row_t |]

(* position in [plain_targets], or -1 for a parametric target *)
let target_index = function
  | Ast.T_bool -> 0
  | Ast.T_smallint -> 1
  | Ast.T_int -> 2
  | Ast.T_bigint -> 3
  | Ast.T_unsigned -> 4
  | Ast.T_decimal None -> 5
  | Ast.T_float -> 6
  | Ast.T_double -> 7
  | Ast.T_char None -> 8
  | Ast.T_varchar None -> 9
  | Ast.T_text -> 10
  | Ast.T_blob -> 11
  | Ast.T_date -> 12
  | Ast.T_time -> 13
  | Ast.T_datetime -> 14
  | Ast.T_interval_t -> 15
  | Ast.T_json -> 16
  | Ast.T_inet -> 17
  | Ast.T_uuid -> 18
  | Ast.T_geometry -> 19
  | Ast.T_xml -> 20
  | Ast.T_row_t -> 21
  | Ast.T_decimal (Some _) | Ast.T_char (Some _) | Ast.T_varchar (Some _)
  | Ast.T_array_t _ | Ast.T_map_t _ | Ast.T_named _ ->
    -1

let n_targets = Array.length plain_targets

let point_name ty target ~ok =
  String.concat ""
    [ "cast/"; Value.ty_name ty; "->"; Sql_pp.type_name target;
      (if ok then "/ok" else "/err") ]

let entry ty ti ~ok =
  (((Value.ty_index ty * n_targets) + ti) * 2) + if ok then 0 else 1

let points =
  Coverage.table
    (Array.init
       (Array.length Value.all_tys * n_targets * 2)
       (fun i ->
         point_name
           Value.all_tys.(i / (2 * n_targets))
           plain_targets.(i / 2 mod n_targets)
           ~ok:(i mod 2 = 0)))

let coverage_point ty target ~ok =
  let ti = target_index target in
  if ti < 0 then point_name ty target ~ok
  else Coverage.table_name points (entry ty ti ~ok)

let convert cfg v target =
  if Value.is_null v then Ok Value.Null else dispatch cfg v target

let cast ~cov cfg v target =
  let result = convert cfg v target in
  let ok = match result with Ok _ -> true | Error _ -> false in
  let ty = Value.type_of v in
  let ti = target_index target in
  if ti < 0 then Coverage.hit cov (point_name ty target ~ok)
  else Coverage.hit_entry cov points (entry ty ti ~ok);
  result
