(** Casting/conversion functions: CONVERT, base conversion, the INET
    family, UUID packing, and ClickHouse's [toDecimalString] — the
    function whose null-pointer dereference opens the paper. *)

open Sqlfun_value
open Sqlfun_num
open Sqlfun_data
open Sqlfun_ast

let cat = "casting"
let scalar = Func_sig.scalar ~category:cat

(* CONVERT(value, TYPE) — the type arrives as a column-reference-looking
   identifier (the parser cannot know CONVERT's second argument is a type
   name), so we re-interpret it here. *)
let type_of_string name =
  match String.uppercase_ascii name with
  | "SIGNED" | "BIGINT" | "INT8" -> Some Ast.T_bigint
  | "INT" | "INTEGER" -> Some Ast.T_int
  | "SMALLINT" -> Some Ast.T_smallint
  | "UNSIGNED" -> Some Ast.T_unsigned
  | "DECIMAL" | "NUMERIC" -> Some (Ast.T_decimal None)
  | "FLOAT" | "REAL" -> Some Ast.T_float
  | "DOUBLE" -> Some Ast.T_double
  | "CHAR" | "VARCHAR" | "TEXT" | "STRING" -> Some Ast.T_text
  | "BINARY" | "BLOB" -> Some Ast.T_blob
  | "DATE" -> Some Ast.T_date
  | "TIME" -> Some Ast.T_time
  | "DATETIME" | "TIMESTAMP" -> Some Ast.T_datetime
  | "JSON" -> Some Ast.T_json
  | "INET" -> Some Ast.T_inet
  | "UUID" -> Some Ast.T_uuid
  | "GEOMETRY" -> Some Ast.T_geometry
  | "XML" -> Some Ast.T_xml
  | _ -> None

let convert_fn =
  scalar "CONVERT" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_any; Func_sig.H_any ] ~null_propagates:false
    ~examples:[ "CONVERT('12', SIGNED)" ]
    (fun ctx args ->
      let ty_name =
        match Args.value args 1 with
        | Value.Str s -> s
        | v -> Value.to_display v
      in
      match type_of_string ty_name with
      | Some ty -> Fn_ctx.cast_value ctx (Args.value args 0) ty
      | None -> Fn_ctx.err "CONVERT: unknown target type %s" ty_name)

let tostring_fn =
  scalar "TOSTRING" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_any ]
    ~examples:[ "TOSTRING(42)" ]
    (* the raw value: [to_display] renders a range without spilling it *)
    (fun _ctx args -> Value.Str (Value.to_display (Args.raw args 0)))

let tonumber_fn =
  scalar "TONUMBER" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "TONUMBER('1.5')" ]
    (fun ctx args ->
      Fn_ctx.cast_value ctx (Args.value args 0) (Ast.T_decimal None))

(* ClickHouse: toDecimalString(value, precision) — renders a decimal with
   the requested fractional digits. The correct implementation bounds the
   precision; ClickHouse 23.6 did not (issue #52407). Filed under the
   string category, as Table 4 does. *)
let todecimalstring_fn =
  Func_sig.scalar ~category:"string" "TODECIMALSTRING" ~min_args:2
    ~max_args:(Some 2)
    ~hints:[ Func_sig.H_num; Func_sig.H_int ]
    ~examples:[ "TODECIMALSTRING(3.14159, 2)" ]
    (fun ctx args ->
      let d = Args.dec ctx args 0 in
      let digits = Args.small_int ctx args 1 in
      if Fn_ctx.branch ctx "todecimalstring/range" (digits < 0 || digits > 77)
      then Fn_ctx.err "toDecimalString: requested precision out of range"
      else Value.Str (Decimal.to_string (Decimal.round ~scale:digits d)))

let bin_fn =
  scalar "BIN" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_int ]
    ~examples:[ "BIN(12)" ]
    (fun ctx args ->
      let v = Args.int_ ctx args 0 in
      if v = 0L then Value.Str "0"
      else begin
        let buf = Buffer.create 64 in
        let v = ref v and started = ref false in
        for i = 63 downto 0 do
          let bit = Int64.logand (Int64.shift_right_logical !v i) 1L in
          if bit = 1L then started := true;
          if !started then Buffer.add_char buf (if bit = 1L then '1' else '0')
        done;
        Value.Str (Buffer.contents buf)
      end)

let oct_fn =
  scalar "OCT" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_int ]
    ~examples:[ "OCT(8)" ]
    (fun ctx args -> Value.Str (Printf.sprintf "%Lo" (Args.int_ ctx args 0)))

let conv_fn =
  scalar "CONV" ~min_args:3 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_int; Func_sig.H_int ]
    ~examples:[ "CONV('ff', 16, 10)" ]
    (fun ctx args ->
      let s = String.lowercase_ascii (String.trim (Args.str ctx args 0)) in
      let from_base = Args.small_int ctx args 1 in
      let to_base = Args.small_int ctx args 2 in
      if from_base < 2 || from_base > 36 || to_base < 2 || to_base > 36 then
        Fn_ctx.err "CONV: base out of range 2..36";
      let digit c =
        if c >= '0' && c <= '9' then Char.code c - 48
        else if c >= 'a' && c <= 'z' then Char.code c - 87
        else 99
      in
      let neg = String.length s > 0 && s.[0] = '-' in
      let body = if neg then String.sub s 1 (String.length s - 1) else s in
      (* a loop, not [String.iter]: a ref no closure captures stays an
         unboxed [Int64], so no allocation per digit *)
      let value = ref 0L and valid = ref (body <> "") in
      for i = 0 to String.length body - 1 do
        let d = digit body.[i] in
        if d >= from_base then valid := false
        else value := Int64.add (Int64.mul !value (Int64.of_int from_base)) (Int64.of_int d)
      done;
      if not !valid then Value.Null
      else begin
        let v = !value in
        if v = 0L then Value.Str "0"
        else begin
          let buf = Buffer.create 64 in
          let rec go v =
            if v > 0L then begin
              go (Int64.div v (Int64.of_int to_base));
              let d = Int64.to_int (Int64.rem v (Int64.of_int to_base)) in
              Buffer.add_char buf "0123456789abcdefghijklmnopqrstuvwxyz".[d]
            end
          in
          go v;
          Value.Str ((if neg then "-" else "") ^ Buffer.contents buf)
        end
      end)

(* ----- INET family ----- *)

let inet_aton_fn =
  scalar "INET_ATON" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_inet ]
    ~examples:[ "INET_ATON('10.0.0.1')" ]
    (fun ctx args ->
      match Inet.of_string (Args.str ctx args 0) with
      | Some (Inet.V4 o) ->
        Value.Int
          (Int64.of_int ((o.(0) * 16777216) + (o.(1) * 65536) + (o.(2) * 256) + o.(3)))
      | Some (Inet.V6 _) ->
        Fn_ctx.point ctx "inet-aton/v6";
        Value.Null
      | None -> Value.Null)

let inet_ntoa_fn =
  scalar "INET_NTOA" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_int ]
    ~examples:[ "INET_NTOA(167772161)" ]
    (fun ctx args ->
      let v = Args.int_ ctx args 0 in
      if Fn_ctx.branch ctx "inet-ntoa/range" (v < 0L || v > 4294967295L) then
        Value.Null
      else begin
        let v = Int64.to_int v in
        Value.Str
          (Printf.sprintf "%d.%d.%d.%d" (v lsr 24) ((v lsr 16) land 255)
             ((v lsr 8) land 255) (v land 255))
      end)

let inet6_aton_fn =
  scalar "INET6_ATON" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_inet ]
    ~examples:[ "INET6_ATON('::1')"; "INET6_ATON('255.255.255.255')" ]
    (fun ctx args ->
      match Inet.of_string (Args.str ctx args 0) with
      | Some a -> Value.Blob (Inet.to_bytes a)
      | None -> Value.Null)

let inet6_ntoa_fn =
  scalar "INET6_NTOA" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_any ]
    ~examples:[ "INET6_NTOA(INET6_ATON('::1'))" ]
    (fun ctx args ->
      match Inet.of_bytes (Args.blob ctx args 0) with
      | Some a -> Value.Str (Inet.to_string a)
      | None ->
        Fn_ctx.point ctx "inet6-ntoa/bad-length";
        Value.Null)

let is_ipv4_fn =
  scalar "IS_IPV4" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_inet ]
    ~examples:[ "IS_IPV4('1.2.3.4')" ]
    (fun ctx args ->
      match Inet.of_string (Args.str ctx args 0) with
      | Some (Inet.V4 _) -> Value.Int 1L
      | Some (Inet.V6 _) | None -> Value.Int 0L)

let is_ipv6_fn =
  scalar "IS_IPV6" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_inet ]
    ~examples:[ "IS_IPV6('::1')" ]
    (fun ctx args ->
      match Inet.of_string (Args.str ctx args 0) with
      | Some (Inet.V6 _) -> Value.Int 1L
      | Some (Inet.V4 _) | None -> Value.Int 0L)

(* ----- UUID packing ----- *)

let uuid_to_bin_fn =
  scalar "UUID_TO_BIN" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "UUID_TO_BIN('6ccd780c-baba-1026-9564-5b8c656024db')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let hex =
        String.concat "" (String.split_on_char '-' (String.lowercase_ascii s))
      in
      if String.length hex <> 32 then Fn_ctx.err "UUID_TO_BIN: malformed UUID"
      else
        match Codec.hex_decode hex with
        | Some b -> Value.Blob b
        | None -> Fn_ctx.err "UUID_TO_BIN: malformed UUID")

let bin_to_uuid_fn =
  scalar "BIN_TO_UUID" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_any ]
    ~examples:[ "BIN_TO_UUID(UUID_TO_BIN('6ccd780c-baba-1026-9564-5b8c656024db'))" ]
    (fun ctx args ->
      let b = Args.blob ctx args 0 in
      if Fn_ctx.branch ctx "bin-to-uuid/length" (String.length b <> 16) then
        Fn_ctx.err "BIN_TO_UUID: need exactly 16 bytes"
      else begin
        let hex = String.lowercase_ascii (Codec.hex_encode b) in
        Value.Str
          (Printf.sprintf "%s-%s-%s-%s-%s" (String.sub hex 0 8)
             (String.sub hex 8 4) (String.sub hex 12 4) (String.sub hex 16 4)
             (String.sub hex 20 12))
      end)

let specs =
  [
    convert_fn; tostring_fn; tonumber_fn; todecimalstring_fn; bin_fn; oct_fn;
    conv_fn; inet_aton_fn; inet_ntoa_fn; inet6_aton_fn; inet6_ntoa_fn;
    is_ipv4_fn; is_ipv6_fn; uuid_to_bin_fn; bin_to_uuid_fn;
  ]
