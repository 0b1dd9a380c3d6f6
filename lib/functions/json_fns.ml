(** Built-in JSON functions, plus the MariaDB dynamic-column pair
    ([COLUMN_CREATE]/[COLUMN_JSON]) whose decimal-to-string conversion is
    the MDEV-8407 surface. *)

open Sqlfun_value
open Sqlfun_data
open Sqlfun_num

let cat = "json"
let scalar = Func_sig.scalar ~category:cat

let json_valid_fn =
  scalar "JSON_VALID" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_json ]
    ~examples:[ "JSON_VALID('{\"a\": 1}')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let max_depth =
        match ctx.Fn_ctx.cast_cfg.Cast.json_max_depth with
        | Some d -> d
        | None -> 1_000_000
      in
      match Json.parse ~max_depth s with
      | Ok _ -> Value.Bool true
      | Error _ -> Value.Bool false)

let json_arg ctx args i = Args.json ctx args i

let json_length_fn =
  scalar "JSON_LENGTH" ~min_args:1 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_json; Func_sig.H_json_path ]
    ~examples:[ "JSON_LENGTH('[1,2,3]')" ]
    (fun ctx args ->
      let j = json_arg ctx args 0 in
      match Args.value_opt args 1 with
      | None -> Value.Int (Int64.of_int (Json.length j))
      | Some _ ->
        let path = Args.json_path ctx args 1 in
        (match Json.extract j path with
         | Some sub -> Value.Int (Int64.of_int (Json.length sub))
         | None ->
           Fn_ctx.point ctx "json-length/path-miss";
           Value.Null))

let json_depth_fn =
  scalar "JSON_DEPTH" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_json ]
    ~examples:[ "JSON_DEPTH('[[1]]')" ]
    (fun ctx args -> Value.Int (Int64.of_int (Json.depth (json_arg ctx args 0))))

let json_type_fn =
  scalar "JSON_TYPE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_json ]
    ~examples:[ "JSON_TYPE('{}')" ]
    (fun ctx args -> Value.Str (Json.typ (json_arg ctx args 0)))

let json_extract_fn =
  scalar "JSON_EXTRACT" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_json; Func_sig.H_json_path ]
    ~examples:[ "JSON_EXTRACT('{\"a\": [1, 2]}', '$.a[1]')" ]
    (fun ctx args ->
      let j = json_arg ctx args 0 in
      let path = Args.json_path ctx args 1 in
      match Json.extract j path with
      | Some sub -> Value.Json sub
      | None -> Value.Null)

let json_keys_fn =
  scalar "JSON_KEYS" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_json ]
    ~examples:[ "JSON_KEYS('{\"a\": 1, \"b\": 2}')" ]
    (fun ctx args ->
      match json_arg ctx args 0 with
      | Json.J_obj kvs ->
        Value.Json (Json.J_arr (List.map (fun (k, _) -> Json.J_str k) kvs))
      | _ ->
        Fn_ctx.point ctx "json-keys/non-object";
        Value.Null)

let value_to_json ctx v =
  match v with
  | Value.Json j -> j
  | Value.Null -> Json.J_null
  | Value.Bool b -> Json.J_bool b
  | Value.Int i -> Json.J_num (Int64.to_string i)
  | Value.Dec d ->
    Fn_ctx.tick ctx;
    Json.J_num (Decimal.to_string d)
  | Value.Float f ->
    if Float.is_nan f || Float.abs f = Float.infinity then
      Fn_ctx.err "cannot represent non-finite float in JSON"
    else Json.J_num (Printf.sprintf "%.17g" f)
  | other -> Json.J_str (Value.to_display other)

let json_array_fn =
  scalar "JSON_ARRAY" ~min_args:0 ~max_args:None ~hints:[ Func_sig.H_any ]
    ~null_propagates:false ~examples:[ "JSON_ARRAY(1, 'a', NULL)" ]
    (fun ctx args ->
      Value.Json
        (Json.J_arr (List.mapi (fun i _ -> value_to_json ctx (Args.value args i)) args)))

let json_object_fn =
  scalar "JSON_OBJECT" ~min_args:0 ~max_args:None
    ~hints:[ Func_sig.H_str; Func_sig.H_any ] ~null_propagates:false
    ~examples:[ "JSON_OBJECT('k', 1)" ]
    (fun ctx args ->
      if List.length args mod 2 <> 0 then Fn_ctx.err "JSON_OBJECT: odd number of arguments";
      let rec pairs i acc =
        if i >= List.length args then List.rev acc
        else begin
          let k = Args.value args i in
          if Value.is_null k then Fn_ctx.err "JSON_OBJECT: null key";
          let key = Value.to_display k in
          pairs (i + 2) ((key, value_to_json ctx (Args.value args (i + 1))) :: acc)
        end
      in
      Value.Json (Json.J_obj (pairs 0 [])))

let json_quote_fn =
  scalar "JSON_QUOTE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "JSON_QUOTE('a\"b')" ]
    (fun ctx args ->
      Value.Str (Json.to_string (Json.J_str (Args.str ctx args 0))))

let json_unquote_fn =
  scalar "JSON_UNQUOTE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_json ]
    ~examples:[ "JSON_UNQUOTE('\"abc\"')" ]
    (fun ctx args ->
      match json_arg ctx args 0 with
      | Json.J_str s -> Value.Str s
      | other -> Value.Str (Json.to_string other))

let json_merge_fn =
  scalar "JSON_MERGE" ~min_args:2 ~max_args:None ~hints:[ Func_sig.H_json ]
    ~examples:[ "JSON_MERGE('[1]', '[2]')" ]
    (fun ctx args ->
      let docs = List.mapi (fun i _ -> json_arg ctx args i) args in
      let as_arr = function
        | Json.J_arr vs -> vs
        | other -> [ other ]
      in
      let merged = List.concat_map as_arr docs in
      if List.length merged > ctx.Fn_ctx.limits.max_collection then
        raise (Fn_ctx.Resource_limit "JSON_MERGE result too large");
      Value.Json (Json.J_arr merged))

let json_contains_fn =
  scalar "JSON_CONTAINS" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_json; Func_sig.H_json ]
    ~examples:[ "JSON_CONTAINS('[1,2]', '1')" ]
    (fun ctx args ->
      let doc = json_arg ctx args 0 in
      let needle = json_arg ctx args 1 in
      let rec contains v =
        v = needle
        ||
        match v with
        | Json.J_arr vs -> List.exists contains vs
        | Json.J_obj kvs -> List.exists (fun (_, v) -> contains v) kvs
        | Json.J_null | Json.J_bool _ | Json.J_num _ | Json.J_str _ -> false
      in
      Value.Bool (contains doc))

(* ----- MariaDB dynamic columns ----- *)

(* COLUMN_CREATE packs name/value pairs into a Map value (our stand-in for
   the dynamic-column blob); COLUMN_JSON renders it as JSON, converting
   decimals to strings — the exact decimal2string path of MDEV-8407. *)
let column_create_fn =
  scalar "COLUMN_CREATE" ~min_args:2 ~max_args:None
    ~hints:[ Func_sig.H_str; Func_sig.H_any ] ~examples:[ "COLUMN_CREATE('x', 1)" ]
    (fun _ctx args ->
      if List.length args mod 2 <> 0 then
        Fn_ctx.err "COLUMN_CREATE: odd number of arguments";
      let rec pairs i acc =
        if i >= List.length args then List.rev acc
        else
          pairs (i + 2)
          @@ ((Args.value args i, Args.value args (i + 1)) :: acc)
      in
      Value.Map (pairs 0 []))

let column_json_fn =
  scalar "COLUMN_JSON" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_map ]
    ~examples:[ "COLUMN_JSON(COLUMN_CREATE('x', 1))" ]
    (fun ctx args ->
      let kvs = Args.map ctx args 0 in
      let render (k, v) =
        let jv =
          match v with
          | Value.Dec d ->
            Fn_ctx.point ctx "column-json/decimal2string";
            Json.J_num (Decimal.to_string d)
          | other -> value_to_json ctx other
        in
        (Value.to_display k, jv)
      in
      Value.Json (Json.J_obj (List.map render kvs)))

let column_get_fn =
  scalar "COLUMN_GET" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_map; Func_sig.H_str ]
    ~examples:[ "COLUMN_GET(COLUMN_CREATE('x', 1), 'x')" ]
    (fun ctx args ->
      let kvs = Args.map ctx args 0 in
      let key = Args.str ctx args 1 in
      match
        List.find_opt (fun (k, _) -> Value.to_display k = key) kvs
      with
      | Some (_, v) -> v
      | None -> Value.Null)

let specs =
  [
    json_valid_fn; json_length_fn; json_depth_fn; json_type_fn;
    json_extract_fn; json_keys_fn; json_array_fn; json_object_fn;
    json_quote_fn; json_unquote_fn; json_merge_fn; json_contains_fn;
    column_create_fn; column_json_fn; column_get_fn;
  ]
