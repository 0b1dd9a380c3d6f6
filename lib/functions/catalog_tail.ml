(** The long tail of the built-in catalog: functions real DBMSs carry that
    the core category modules don't cover. Grouped by category like the
    core modules; everything is instrumented and fault-aware through the
    same registry protocol. *)

open Sqlfun_value
open Sqlfun_num
open Sqlfun_data

(* ----- string ----- *)

let str_scalar = Func_sig.scalar ~category:"string"

let mid_fn =
  str_scalar "MID" ~min_args:3 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_int; Func_sig.H_int ]
    ~examples:[ "MID('hello', 2, 3)" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let start = Args.small_int ctx args 1 in
      let len = Args.small_int ctx args 2 in
      let n = String.length s in
      let begin_at = if start < 0 then n + start else start - 1 in
      if begin_at < 0 || begin_at >= n || len <= 0 then Value.Str ""
      else Value.Str (String.sub s begin_at (Stdlib.min len (n - begin_at))))

let ucase_fn =
  str_scalar "UCASE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "UCASE('abc')" ]
    (fun ctx args -> Value.Str (String.uppercase_ascii (Args.str ctx args 0)))

let lcase_fn =
  str_scalar "LCASE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "LCASE('ABC')" ]
    (fun ctx args -> Value.Str (String.lowercase_ascii (Args.str ctx args 0)))

let octet_length_fn =
  str_scalar "OCTET_LENGTH" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_str ] ~examples:[ "OCTET_LENGTH('ab')" ]
    (fun ctx args -> Value.Int (Int64.of_int (Args.str_byte_length ctx args 0)))

(* SUBSTRING_INDEX(s, delim, count): everything before the count-th
   occurrence of delim (negative count: from the right), MySQL. *)
let substring_index_fn =
  str_scalar "SUBSTRING_INDEX" ~min_args:3 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_sep; Func_sig.H_int ]
    ~examples:[ "SUBSTRING_INDEX('www.mysql.com', '.', 2)" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let delim = Args.str ctx args 1 in
      let count = Args.small_int ctx args 2 in
      if Fn_ctx.branch ctx "substring-index/empty-delim" (delim = "") then
        Value.Str ""
      else begin
        let occurrences =
          let rec go acc i =
            Fn_ctx.tick ctx;
            match Substring.find s delim i with
            | Some j -> go (j :: acc) (j + String.length delim)
            | None -> List.rev acc
          in
          go [] 0
        in
        let n_occ = List.length occurrences in
        if count = 0 then Value.Str ""
        else if count > 0 then
          if count > n_occ then Value.Str s
          else
            let cut = List.nth occurrences (count - 1) in
            Value.Str (String.sub s 0 cut)
        else begin
          let from_right = -count in
          if from_right > n_occ then Value.Str s
          else begin
            let cut = List.nth occurrences (n_occ - from_right) in
            let start = cut + String.length delim in
            Value.Str (String.sub s start (String.length s - start))
          end
        end
      end)

(* SOUNDEX — the classic 4-character phonetic code. *)
let soundex_code c =
  match Char.uppercase_ascii c with
  | 'B' | 'F' | 'P' | 'V' -> Some '1'
  | 'C' | 'G' | 'J' | 'K' | 'Q' | 'S' | 'X' | 'Z' -> Some '2'
  | 'D' | 'T' -> Some '3'
  | 'L' -> Some '4'
  | 'M' | 'N' -> Some '5'
  | 'R' -> Some '6'
  | _ -> None

let soundex_fn =
  str_scalar "SOUNDEX" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "SOUNDEX('Robert')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let n = String.length s in
      let buf = Buffer.create 4 in
      let prev = ref None in
      let add_letter c =
        if Buffer.length buf = 0 then begin
          Buffer.add_char buf (Char.uppercase_ascii c);
          prev := soundex_code c
        end
        else begin
          (* as in the classic code, a letter that adds a digit leaves
             [prev] alone; only an uncoded letter other than H or W
             resets it *)
          match (soundex_code c, !prev) with
          | Some code, Some p when code = p -> ()
          | Some code, _ -> Buffer.add_char buf code
          | None, _ -> (
            match Char.uppercase_ascii c with 'H' | 'W' -> () | _ -> prev := None)
        end
      in
      (* the code is complete after four characters: the rest of the
         argument cannot change it, so the scan stops there *)
      let i = ref 0 in
      while !i < n && Buffer.length buf < 4 do
        let c = String.unsafe_get s !i in
        if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') then add_letter c;
        incr i
      done;
      if Buffer.length buf = 0 then Value.Str ""
      else begin
        while Buffer.length buf < 4 do
          Buffer.add_char buf '0'
        done;
        Value.Str (Buffer.contents buf)
      end)

(* EXPORT_SET(bits, on, off [, sep [, n]]) — MySQL bit rendering. *)
let export_set_fn =
  str_scalar "EXPORT_SET" ~min_args:3 ~max_args:(Some 5)
    ~hints:
      [ Func_sig.H_int; Func_sig.H_str; Func_sig.H_str; Func_sig.H_sep;
        Func_sig.H_int ]
    ~examples:[ "EXPORT_SET(5, 'Y', 'N', ',', 4)" ]
    (fun ctx args ->
      let bits = Args.int_ ctx args 0 in
      let on = Args.str ctx args 1 in
      let off = Args.str ctx args 2 in
      let sep = match Args.value_opt args 3 with Some _ -> Args.str ctx args 3 | None -> "," in
      let n =
        match Args.int_opt ctx args 4 with
        | Some v -> Stdlib.min 64 (Stdlib.max 0 (Int64.to_int v))
        | None -> 64
      in
      Fn_ctx.alloc_check ctx (n * (String.length on + String.length off + String.length sep));
      let parts =
        List.init n (fun i ->
            if Int64.logand (Int64.shift_right_logical bits i) 1L = 1L then on
            else off)
      in
      Value.Str (String.concat sep parts))

(* MAKE_SET(bits, s1, s2, ...) *)
let make_set_fn =
  str_scalar "MAKE_SET" ~min_args:2 ~max_args:None
    ~hints:[ Func_sig.H_int; Func_sig.H_str ] ~null_propagates:false
    ~examples:[ "MAKE_SET(3, 'a', 'b', 'c')" ]
    (fun ctx args ->
      match Args.value args 0 with
      | Value.Null -> Value.Null
      | _ ->
        let bits = Args.int_ ctx args 0 in
        let parts = ref [] in
        List.iteri
          (fun i a ->
            if i > 0 && i <= 64 then
              if Int64.logand (Int64.shift_right_logical bits (i - 1)) 1L = 1L
              then
                match a.Sqlfun_fault.Fault.value with
                | Value.Null -> ()
                | v -> parts := Value.to_display v :: !parts)
          args;
        Value.Str (String.concat "," (List.rev !parts)))

let char_fn =
  (* CHAR(65, 66) -> 'AB' (MySQL renders code points as bytes) *)
  str_scalar "CHAR_FN" ~min_args:1 ~max_args:None ~hints:[ Func_sig.H_int ]
    ~examples:[ "CHAR_FN(65, 66)" ]
    (fun ctx args ->
      let buf = Buffer.create (List.length args) in
      List.iteri
        (fun i _ ->
          let v = Args.int_ ctx args i in
          if v >= 0L && v <= 255L then Buffer.add_char buf (Char.chr (Int64.to_int v))
          else Fn_ctx.point ctx "char/out-of-byte")
        args;
      Value.Str (Buffer.contents buf))

(* ----- math ----- *)

let math_scalar = Func_sig.scalar ~category:"math"

let float1 name f =
  math_scalar name ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ Printf.sprintf "%s(1)" name ]
    (fun ctx args ->
      let x = Args.float_ ctx args 0 in
      let r = f x in
      if Float.is_nan r && not (Float.is_nan x) then
        Fn_ctx.err "%s: argument out of domain" name
      else Value.Float r)

let cot_fn =
  math_scalar "COT" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "COT(1)" ]
    (fun ctx args ->
      let x = Args.float_ ctx args 0 in
      let t = tan x in
      if Fn_ctx.branch ctx "cot/zero" (t = 0.0) then
        Fn_ctx.err "COT: argument is a multiple of pi"
      else Value.Float (1.0 /. t))

let sinh_fn = float1 "SINH" sinh
let cosh_fn = float1 "COSH" cosh
let tanh_fn = float1 "TANH" tanh
let cbrt_fn = float1 "CBRT" Float.cbrt

let square_fn =
  math_scalar "SQUARE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "SQUARE(3)" ]
    (fun ctx args ->
      let d = Args.dec ctx args 0 in
      Value.Dec (Decimal.mul d d))

let log1p_fn =
  math_scalar "LOG1P" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "LOG1P(0)" ]
    (fun ctx args ->
      let x = Args.float_ ctx args 0 in
      if x <= -1.0 then Value.Null else Value.Float (Float.log1p x))

let lcm_fn =
  math_scalar "LCM" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_int; Func_sig.H_int ] ~examples:[ "LCM(4, 6)" ]
    (fun ctx args ->
      let a = Args.int_ ctx args 0 and b = Args.int_ ctx args 1 in
      if a = 0L || b = 0L then Value.Int 0L
      else begin
        let rec gcd a b = if b = 0L then a else gcd b (Int64.rem a b) in
        if a = Int64.min_int || b = Int64.min_int then Fn_ctx.err "LCM: overflow";
        let g = gcd (Int64.abs a) (Int64.abs b) in
        match Sqlfun_num.Checked_int.mul (Int64.div (Int64.abs a) g) (Int64.abs b) with
        | Some v -> Value.Int v
        | None -> Fn_ctx.err "LCM: result exceeds BIGINT"
      end)

(* ----- date ----- *)

let date_scalar = Func_sig.scalar ~category:"date"

let weekday_fn =
  date_scalar "WEEKDAY" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_date ]
    ~examples:[ "WEEKDAY('2023-01-02')" ]
    (fun ctx args ->
      (* MySQL WEEKDAY: 0 = Monday *)
      let d = Args.date ctx args 0 in
      Value.Int (Int64.of_int ((Calendar.day_of_week d + 6) mod 7)))

let yearweek_fn =
  date_scalar "YEARWEEK" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_date ]
    ~examples:[ "YEARWEEK('2023-05-17')" ]
    (fun ctx args ->
      let d = Args.date ctx args 0 in
      let week = (Calendar.day_of_year d + 6) / 7 in
      let dt = Args.datetime ctx args 0 in
      Value.Int (Int64.of_int ((dt.Calendar.date.Calendar.year * 100) + week)))

let addtime_shift sign ctx args =
  let dt = Args.datetime ctx args 0 in
  let t = Args.str ctx args 1 in
  match Calendar.time_of_string t with
  | None -> Fn_ctx.err "ADDTIME: bad time value %s" (Value.quote t)
  | Some time ->
    let seconds =
      (time.Calendar.hour * 3600) + (time.Calendar.minute * 60)
      + time.Calendar.second
    in
    (match
       Calendar.add_interval dt
         { Calendar.amount = Int64.of_int (sign * seconds); unit_ = Calendar.Second }
     with
     | Some r -> Value.Datetime r
     | None -> Value.Null)

let addtime_fn =
  date_scalar "ADDTIME" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_datetime; Func_sig.H_time ]
    ~examples:[ "ADDTIME('2023-05-17 10:00:00', '01:30:00')" ]
    (addtime_shift 1)

let subtime_fn =
  date_scalar "SUBTIME" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_datetime; Func_sig.H_time ]
    ~examples:[ "SUBTIME('2023-05-17 10:00:00', '01:30:00')" ]
    (addtime_shift (-1))

let timediff_fn =
  date_scalar "TIMEDIFF" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_datetime; Func_sig.H_datetime ]
    ~examples:[ "TIMEDIFF('2023-05-17 12:00:00', '2023-05-17 10:30:00')" ]
    (fun ctx args ->
      let a = Args.datetime ctx args 0 and b = Args.datetime ctx args 1 in
      let secs dt =
        (Calendar.to_julian_day dt.Calendar.date * 86400)
        + (dt.Calendar.time.Calendar.hour * 3600)
        + (dt.Calendar.time.Calendar.minute * 60)
        + dt.Calendar.time.Calendar.second
      in
      let d = secs a - secs b in
      let sign = if d < 0 then "-" else "" in
      let d = abs d in
      Value.Str (Printf.sprintf "%s%02d:%02d:%02d" sign (d / 3600) (d mod 3600 / 60) (d mod 60)))

let period_add_fn =
  date_scalar "PERIOD_ADD" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_int; Func_sig.H_int ]
    ~examples:[ "PERIOD_ADD(202305, 3)" ]
    (fun ctx args ->
      let p = Args.int_ ctx args 0 in
      let n = Args.small_int ctx args 1 in
      let year = Int64.to_int (Int64.div p 100L) in
      let month = Int64.to_int (Int64.rem p 100L) in
      if Fn_ctx.branch ctx "period-add/valid" (month < 1 || month > 12 || year < 1)
      then Fn_ctx.err "PERIOD_ADD: bad period %Ld" p
      else begin
        let total = (year * 12) + (month - 1) + n in
        if total < 0 then Fn_ctx.err "PERIOD_ADD: period underflow"
        else Value.Int (Int64.of_int (((total / 12) * 100) + (total mod 12) + 1))
      end)

(* ----- json ----- *)

let json_scalar = Func_sig.scalar ~category:"json"

(* Shared plumbing for JSON_SET / JSON_INSERT / JSON_REPLACE: rewrite the
   value at a parsed path, appending at the leaf when the path's last step
   is missing. *)
let rec json_set_path doc path v =
  match path with
  | [] -> v
  | Json.Key k :: rest ->
    (match doc with
     | Json.J_obj kvs ->
       if List.mem_assoc k kvs then
         Json.J_obj
           (List.map
              (fun (k', x) -> if k' = k then (k', json_set_path x rest v) else (k', x))
              kvs)
       else if rest = [] then Json.J_obj (kvs @ [ (k, v) ])
       else doc
     | _ -> doc)
  | Json.Index i :: rest ->
    (match doc with
     | Json.J_arr vs ->
       if i >= 0 && i < List.length vs then
         Json.J_arr
           (List.mapi (fun j x -> if j = i then json_set_path x rest v else x) vs)
       else if rest = [] then Json.J_arr (vs @ [ v ])
       else doc
     | _ -> doc)

let json_value_of ctx args i =
  match Args.value args i with
  | Value.Json j -> j
  | Value.Null -> Json.J_null
  | Value.Int v -> Json.J_num (Int64.to_string v)
  | Value.Dec d -> Json.J_num (Decimal.to_string d)
  | Value.Bool b -> Json.J_bool b
  | other ->
    ignore ctx;
    Json.J_str (Value.to_display other)

let json_modify name ~insert ~replace =
  json_scalar name ~min_args:3 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_json; Func_sig.H_json_path; Func_sig.H_any ]
    ~examples:[ Printf.sprintf "%s('{\"a\": 1}', '$.a', 2)" name ]
    (fun ctx args ->
      let doc = Args.json ctx args 0 in
      let path = Args.json_path ctx args 1 in
      let v = json_value_of ctx args 2 in
      let exists = Json.extract doc path <> None in
      if (exists && not replace) || ((not exists) && not insert) then
        Value.Json doc
      else Value.Json (json_set_path doc path v))

let json_set_fn = json_modify "JSON_SET" ~insert:true ~replace:true
let json_insert_fn = json_modify "JSON_INSERT" ~insert:true ~replace:false
let json_replace_fn = json_modify "JSON_REPLACE" ~insert:false ~replace:true

let json_remove_fn =
  json_scalar "JSON_REMOVE" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_json; Func_sig.H_json_path ]
    ~examples:[ "JSON_REMOVE('{\"a\": 1, \"b\": 2}', '$.b')" ]
    (fun ctx args ->
      let doc = Args.json ctx args 0 in
      let path = Args.json_path ctx args 1 in
      let rec remove doc path =
        match path with
        | [] -> doc
        | [ Json.Key k ] ->
          (match doc with
           | Json.J_obj kvs -> Json.J_obj (List.filter (fun (k', _) -> k' <> k) kvs)
           | _ -> doc)
        | [ Json.Index i ] ->
          (match doc with
           | Json.J_arr vs -> Json.J_arr (List.filteri (fun j _ -> j <> i) vs)
           | _ -> doc)
        | Json.Key k :: rest ->
          (match doc with
           | Json.J_obj kvs ->
             Json.J_obj
               (List.map (fun (k', v) -> if k' = k then (k', remove v rest) else (k', v)) kvs)
           | _ -> doc)
        | Json.Index i :: rest ->
          (match doc with
           | Json.J_arr vs ->
             Json.J_arr (List.mapi (fun j v -> if j = i then remove v rest else v) vs)
           | _ -> doc)
      in
      if path = [] then Fn_ctx.err "JSON_REMOVE: cannot remove the document root"
      else Value.Json (remove doc path))

let json_search_fn =
  json_scalar "JSON_SEARCH" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_json; Func_sig.H_str ]
    ~examples:[ "JSON_SEARCH('{\"a\": \"x\", \"b\": [\"y\", \"x\"]}', 'x')" ]
    (fun ctx args ->
      let doc = Args.json ctx args 0 in
      let needle = Args.str ctx args 1 in
      let rec search prefix = function
        | Json.J_str s when s = needle -> Some prefix
        | Json.J_obj kvs ->
          List.fold_left
            (fun acc (k, v) ->
              match acc with
              | Some _ -> acc
              | None -> search (prefix ^ "." ^ k) v)
            None kvs
        | Json.J_arr vs ->
          let rec go i = function
            | [] -> None
            | v :: rest ->
              (match search (Printf.sprintf "%s[%d]" prefix i) v with
               | Some p -> Some p
               | None -> go (i + 1) rest)
          in
          go 0 vs
        | Json.J_null | Json.J_bool _ | Json.J_num _ | Json.J_str _ -> None
      in
      match search "$" doc with
      | Some p -> Value.Str p
      | None ->
        Fn_ctx.point ctx "json-search/miss";
        Value.Null)

let json_pretty_fn =
  json_scalar "JSON_PRETTY" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_json ] ~examples:[ "JSON_PRETTY('{\"a\": 1}')" ]
    (fun ctx args ->
      let rec pretty indent j =
        let pad = String.make indent ' ' in
        let pad2 = String.make (indent + 2) ' ' in
        match j with
        | Json.J_arr (_ :: _ as vs) ->
          "[\n"
          ^ String.concat ",\n" (List.map (fun v -> pad2 ^ pretty (indent + 2) v) vs)
          ^ "\n" ^ pad ^ "]"
        | Json.J_obj (_ :: _ as kvs) ->
          "{\n"
          ^ String.concat ",\n"
              (List.map
                 (fun (k, v) ->
                   Printf.sprintf "%s\"%s\": %s" pad2 k (pretty (indent + 2) v))
                 kvs)
          ^ "\n" ^ pad ^ "}"
        | other -> Json.to_string other
      in
      Value.Str (pretty 0 (Args.json ctx args 0)))

(* ----- array ----- *)

let arr_scalar = Func_sig.scalar ~category:"array"

let numeric_fold name fold_final =
  arr_scalar name ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_array ]
    ~examples:[ Printf.sprintf "%s(ARRAY[1, 2, 3])" name ]
    (fun ctx args ->
      let vs = Args.array ctx args 0 in
      let total, count =
        List.fold_left
          (fun (acc, n) v ->
            match v with
            | Value.Null -> (acc, n)
            | Value.Int i -> (Decimal.add acc (Decimal.of_int64 i), n + 1)
            | Value.Dec d -> (Decimal.add acc d, n + 1)
            | Value.Float f ->
              (match Decimal.of_string (Printf.sprintf "%.17g" f) with
               | Ok d -> (Decimal.add acc d, n + 1)
               | Error _ -> (acc, n))
            | v -> Fn_ctx.err "%s: non-numeric element %s" name
                (Value.ty_name (Value.type_of v)))
          (Decimal.zero, 0) vs
      in
      fold_final total count)

let array_sum_fn =
  numeric_fold "ARRAY_SUM" (fun total _count -> Value.Dec total)

let array_avg_fn =
  numeric_fold "ARRAY_AVG" (fun total count ->
      if count = 0 then Value.Null
      else
        match Decimal.div ~scale:(Decimal.scale total + 4) total (Decimal.of_int count) with
        | Some q -> Value.Dec q
        | None -> Value.Null)

let array_union_fn =
  arr_scalar "ARRAY_UNION" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_array; Func_sig.H_array ]
    ~examples:[ "ARRAY_UNION(ARRAY[1, 2], ARRAY[2, 3])" ]
    (fun ctx args ->
      let a = Args.array ctx args 0 and b = Args.array ctx args 1 in
      let n = List.length a + List.length b in
      Fn_ctx.tick ~cost:(1 + (n * n / 64)) ctx;
      let out =
        List.fold_left
          (fun acc v ->
            if List.exists (fun u -> Value.equal u v) acc then acc else v :: acc)
          [] (a @ b)
      in
      Value.Arr (List.rev out))

let array_intersect_fn =
  arr_scalar "ARRAY_INTERSECT" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_array; Func_sig.H_array ]
    ~examples:[ "ARRAY_INTERSECT(ARRAY[1, 2], ARRAY[2, 3])" ]
    (fun ctx args ->
      let a = Args.array ctx args 0 and b = Args.array ctx args 1 in
      Fn_ctx.tick ~cost:(1 + (List.length a * List.length b / 64)) ctx;
      Value.Arr
        (List.filter (fun v -> List.exists (fun u -> Value.equal u v) b) a))

(* ----- casting ----- *)

let cast_scalar = Func_sig.scalar ~category:"casting"

let to_char_fn =
  cast_scalar "TO_CHAR" ~min_args:1 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_any; Func_sig.H_format ]
    ~examples:[ "TO_CHAR(1234.5)" ]
    (fun _ctx args ->
      ignore (Args.value_opt args 1);
      (* the raw value: [to_display] renders a range without spilling it *)
      Value.Str (Value.to_display (Args.raw args 0)))

let try_cast_fn =
  cast_scalar "TRY_CAST" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_any; Func_sig.H_str ] ~null_propagates:false
    ~examples:[ "TRY_CAST('12', 'SIGNED')" ]
    (fun ctx args ->
      let ty_name =
        match Args.value args 1 with
        | Value.Str s -> s
        | v -> Value.to_display v
      in
      match Conv_fns.type_of_string ty_name with
      | None -> Fn_ctx.err "TRY_CAST: unknown target type %s" ty_name
      | Some ty ->
        (try Fn_ctx.cast_value ctx (Args.value args 0) ty
         with Fn_ctx.Sql_error _ ->
           Fn_ctx.point ctx "try-cast/null";
           Value.Null))

(* ----- condition ----- *)

let cond_scalar = Func_sig.scalar ~category:"condition" ~null_propagates:false

let decode_fn =
  (* Oracle-style DECODE(expr, search1, result1, ..., [default]) *)
  cond_scalar "DECODE" ~min_args:3 ~max_args:None ~hints:[ Func_sig.H_any ]
    ~examples:[ "DECODE(2, 1, 'one', 2, 'two', 'other')" ]
    (fun _ctx args ->
      let v = Args.value args 0 in
      let n = List.length args in
      let rec go i =
        if i + 1 < n then
          if Value.equal v (Args.value args i) then Args.value args (i + 1)
          else go (i + 2)
        else if i < n then Args.value args i (* the default *)
        else Value.Null
      in
      go 1)

let iif_fn =
  cond_scalar "IIF" ~min_args:3 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_bool; Func_sig.H_any; Func_sig.H_any ]
    ~examples:[ "IIF(2 > 1, 'y', 'n')" ]
    (fun ctx args ->
      match Args.value args 0 with
      | Value.Bool true -> Args.value args 1
      | Value.Bool false | Value.Null -> Args.value args 2
      | _ -> if Args.bool_ ctx args 0 then Args.value args 1 else Args.value args 2)

(* ----- system ----- *)

let sys_scalar = Func_sig.scalar ~category:"system"

let coercibility_fn =
  sys_scalar "COERCIBILITY" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_any ] ~null_propagates:false
    ~examples:[ "COERCIBILITY('abc')" ]
    (fun _ctx args ->
      match Args.value args 0 with
      | Value.Null -> Value.Int 6L
      | Value.Str _ -> Value.Int 4L
      | _ -> Value.Int 5L)

let charset_fn =
  sys_scalar "CHARSET" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_any ]
    ~null_propagates:false ~examples:[ "CHARSET('abc')" ]
    (fun _ctx args ->
      match Args.value args 0 with
      | Value.Str _ -> Value.Str "utf8mb4"
      | Value.Blob _ -> Value.Str "binary"
      | _ -> Value.Str "binary")

let specs =
  [
    mid_fn; ucase_fn; lcase_fn; octet_length_fn; substring_index_fn;
    soundex_fn; export_set_fn; make_set_fn; char_fn; cot_fn; sinh_fn;
    cosh_fn; tanh_fn; cbrt_fn; square_fn; log1p_fn; lcm_fn; weekday_fn;
    yearweek_fn; addtime_fn; subtime_fn; timediff_fn; period_add_fn;
    json_set_fn; json_insert_fn; json_replace_fn; json_remove_fn;
    json_search_fn; json_pretty_fn; array_sum_fn; array_avg_fn;
    array_union_fn; array_intersect_fn; to_char_fn; try_cast_fn; decode_fn;
    iif_fn; coercibility_fn; charset_fn;
  ]
