(** Built-in string functions — the paper's most bug-prone category
    (57 distinct bug-inducing functions in the study). *)

open Sqlfun_value
open Sqlfun_data
open Sqlfun_num

let cat = "string"

let ret_str s = Value.Str s
let ret_int i = Value.Int i

let scalar = Func_sig.scalar ~category:cat

let length_fn =
  scalar "LENGTH" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "LENGTH('hello')" ]
    (fun ctx args -> ret_int (Int64.of_int (Args.str_byte_length ctx args 0)))

let char_length_fn =
  scalar "CHAR_LENGTH" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "CHAR_LENGTH('hello')" ]
    (fun ctx args ->
      (* count UTF-8 code points, not bytes — the count is additive
         across segment boundaries (a continuation byte classifies the
         same wherever the split falls), so ropes measure per segment *)
      let count_str s =
        let count = ref 0 in
        String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr count) s;
        !count
      in
      match Args.str_value ctx args 0 with
      | Value.Rope_str r -> ret_int (Int64.of_int (Value.rope_measure count_str r))
      | Value.Str s -> ret_int (Int64.of_int (count_str s))
      | _ -> assert false (* str_value returns Str or Rope_str *))

let upper_fn =
  scalar "UPPER" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "UPPER('abc')" ]
    (fun ctx args -> ret_str (String.uppercase_ascii (Args.str ctx args 0)))

let lower_fn =
  scalar "LOWER" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "LOWER('ABC')" ]
    (fun ctx args -> ret_str (String.lowercase_ascii (Args.str ctx args 0)))

let concat_fn =
  scalar "CONCAT" ~min_args:1 ~max_args:None ~hints:[ Func_sig.H_str ]
    ~examples:[ "CONCAT('a', 'b', 'c')" ]
    (fun ctx args ->
      let parts = List.mapi (fun i _ -> Args.str_value ctx args i) args in
      let total =
        List.fold_left
          (fun acc p ->
            match Value.str_bytes p with Some n -> acc + n | None -> acc)
          0 parts
      in
      Fn_ctx.alloc_check ctx total;
      if total >= Value.Compact.min_str_bytes then
        (* O(1) per part: chain the pieces as a rope; a rope part from
           an inner REPEAT stays unflattened *)
        List.fold_left
          (fun acc p ->
            match Value.rope_concat acc p with Some v -> v | None -> acc)
          (Value.Str "") parts
      else
        ret_str
          (String.concat ""
             (List.map
                (function
                  | Value.Str s -> s
                  | Value.Rope_str r -> Value.rope_flatten r
                  | _ -> assert false)
                parts)))

let concat_ws_fn =
  scalar "CONCAT_WS" ~min_args:2 ~max_args:None
    ~hints:[ Func_sig.H_sep; Func_sig.H_str ] ~null_propagates:false
    ~examples:[ "CONCAT_WS(',', 'a', 'b')" ]
    (fun ctx args ->
      match Args.value args 0 with
      | Value.Null -> Value.Null
      | _ ->
        let sep = Args.str ctx args 0 in
        (* NULL elements are skipped, like MySQL *)
        let parts =
          List.filteri (fun i _ -> i > 0) args
          |> List.mapi (fun i a ->
                 match a.Sqlfun_fault.Fault.value with
                 | Value.Null -> None
                 | _ -> Some (Args.str ctx args (i + 1)))
          |> List.filter_map Fun.id
        in
        let total =
          List.fold_left (fun acc s -> acc + String.length s + String.length sep) 0 parts
        in
        Fn_ctx.alloc_check ctx total;
        ret_str (String.concat sep parts))

let substring_impl ctx args =
  let s = Args.str ctx args 0 in
  let start = Args.small_int ctx args 1 in
  let len =
    match Args.int_opt ctx args 2 with
    | Some l -> Some (Int64.to_int l)
    | None -> None
  in
  let n = String.length s in
  (* SQL 1-based positions; negative counts from the end (MySQL) *)
  let begin_at =
    if Fn_ctx.branch ctx "substr/neg-start" (start < 0) then n + start
    else if start = 0 then 0
    else start - 1
  in
  if begin_at < 0 || begin_at >= n then ret_str ""
  else begin
    let avail = n - begin_at in
    let take =
      match len with
      | None -> avail
      | Some l when l <= 0 -> 0
      | Some l -> Stdlib.min l avail
    in
    ret_str (String.sub s begin_at take)
  end

let substring_fn =
  scalar "SUBSTRING" ~min_args:2 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_int; Func_sig.H_int ]
    ~examples:[ "SUBSTRING('hello', 2, 3)" ] substring_impl

let substr_fn =
  scalar "SUBSTR" ~min_args:2 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_int; Func_sig.H_int ]
    ~examples:[ "SUBSTR('hello', 2)" ] substring_impl

let left_fn =
  scalar "LEFT" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_int ] ~examples:[ "LEFT('hello', 2)" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let n = Args.small_int ctx args 1 in
      if n <= 0 then ret_str ""
      else ret_str (String.sub s 0 (Stdlib.min n (String.length s))))

let right_fn =
  scalar "RIGHT" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_int ] ~examples:[ "RIGHT('hello', 2)" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let n = Args.small_int ctx args 1 in
      let len = String.length s in
      if n <= 0 then ret_str ""
      else
        let take = Stdlib.min n len in
        ret_str (String.sub s (len - take) take))

let trim_chars which chars s =
  let in_set c = String.contains chars c in
  let n = String.length s in
  let start =
    if which = `Right then 0
    else begin
      let rec go i = if i < n && in_set s.[i] then go (i + 1) else i in
      go 0
    end
  in
  let stop =
    if which = `Left then n
    else begin
      let rec go i = if i > start && in_set s.[i - 1] then go (i - 1) else i in
      go n
    end
  in
  String.sub s start (stop - start)

let trim_fn =
  scalar "TRIM" ~min_args:1 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_str ] ~examples:[ "TRIM('  x  ')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let chars = match Args.value_opt args 1 with Some _ -> Args.str ctx args 1 | None -> " " in
      ret_str (trim_chars `Both chars s))

let ltrim_fn =
  scalar "LTRIM" ~min_args:1 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_str ] ~examples:[ "LTRIM('  x')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let chars = match Args.value_opt args 1 with Some _ -> Args.str ctx args 1 | None -> " " in
      ret_str (trim_chars `Left chars s))

let rtrim_fn =
  scalar "RTRIM" ~min_args:1 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_str ] ~examples:[ "RTRIM('x  ')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let chars = match Args.value_opt args 1 with Some _ -> Args.str ctx args 1 | None -> " " in
      ret_str (trim_chars `Right chars s))

let replace_fn =
  scalar "REPLACE" ~min_args:3 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_str; Func_sig.H_str ]
    ~examples:[ "REPLACE('aaa', 'a', 'bb')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let from_s = Args.str ctx args 1 in
      let to_s = Args.str ctx args 2 in
      if Fn_ctx.branch ctx "replace/empty-needle" (from_s = "") then ret_str s
      else begin
        let buf = Buffer.create (String.length s) in
        let rec go i =
          Fn_ctx.tick ctx;
          match Substring.find s from_s i with
          | Some j ->
            Buffer.add_substring buf s i (j - i);
            Buffer.add_string buf to_s;
            Fn_ctx.alloc_check ctx (Buffer.length buf);
            go (j + String.length from_s)
          | None -> Buffer.add_substring buf s i (String.length s - i)
        in
        go 0;
        ret_str (Buffer.contents buf)
      end)

let repeat_fn =
  scalar "REPEAT" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_int ] ~examples:[ "REPEAT('ab', 3)" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let n = Args.int_ ctx args 1 in
      if Fn_ctx.branch ctx "repeat/nonpos" (n <= 0L) then ret_str ""
      else begin
        let total = Int64.mul (Int64.of_int (String.length s)) n in
        if total > Int64.of_int ctx.Fn_ctx.limits.max_string_bytes then
          raise
            (Fn_ctx.Resource_limit
               (Printf.sprintf "REPEAT result of %Ld bytes exceeds cap" total));
        let n = Int64.to_int n in
        let slen = String.length s in
        if n <= 0 || slen = 0 then
          (* astronomic counts wrap in [Int64.to_int] (the 64-bit cap
             product wrapped too, skipping the limit above) — the
             repeat loop this replaces ran zero iterations there, so
             the result is the empty string, not an error *)
          ret_str ""
        else if slen * n >= Value.Compact.min_str_bytes then
          (* O(1): the result is (segment, count); bytes materialize
             only if a consumer genuinely reads them *)
          Value.str_rope_rep s n
        else begin
        let total = slen * n in
        (* doubling blit: one copy of [s], then the filled prefix copies
           onto itself — O(log n) blits instead of n buffer appends,
           which dominated campaign time for short [s] and large [n] *)
        let out = Bytes.create total in
        Bytes.blit_string s 0 out 0 slen;
        let filled = ref slen in
        while !filled < total do
          let k = Stdlib.min !filled (total - !filled) in
          Bytes.blit out 0 out !filled k;
          filled := !filled + k
        done;
        ret_str (Bytes.unsafe_to_string out)
        end
      end)

let reverse_fn =
  scalar "REVERSE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "REVERSE('abc')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let n = String.length s in
      ret_str (String.init n (fun i -> s.[n - 1 - i])))

let instr_fn =
  scalar "INSTR" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_str ]
    ~examples:[ "INSTR('hello', 'll')" ]
    (fun ctx args ->
      let hay = Args.str ctx args 0 and needle = Args.str ctx args 1 in
      match Substring.find hay needle 0 with
      | Some i -> ret_int (Int64.of_int (i + 1))
      | None -> ret_int 0L)

let position_fn =
  scalar "POSITION" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_str ]
    ~examples:[ "POSITION('ll', 'hello')" ]
    (fun ctx args ->
      (* POSITION(needle, hay) *)
      let needle = Args.str ctx args 0 and hay = Args.str ctx args 1 in
      match Substring.find hay needle 0 with
      | Some i -> ret_int (Int64.of_int (i + 1))
      | None -> ret_int 0L)

let pad_impl side ctx args =
  let s = Args.str ctx args 0 in
  let target = Args.small_int ctx args 1 in
  let pad = match Args.value_opt args 2 with Some _ -> Args.str ctx args 2 | None -> " " in
  if Fn_ctx.branch ctx "pad/short" (target <= String.length s) then
    if target < 0 then ret_str "" else ret_str (String.sub s 0 target)
  else if pad = "" then ret_str s
  else if target >= Value.Compact.min_str_bytes then begin
    (* O(1): filler = whole repetitions of [pad] plus a prefix remnant,
       chained around [s] as a rope — same bytes the blit path writes *)
    Fn_ctx.alloc_check ctx target;
    let need = target - String.length s in
    let plen = String.length pad in
    let k = need / plen and rem = need mod plen in
    let fill =
      let repv = if k > 0 then Value.str_rope_rep pad k else Value.Str "" in
      if rem = 0 then repv
      else
        match Value.rope_concat repv (Value.Str (String.sub pad 0 rem)) with
        | Some v -> v
        | None -> assert false (* rem > 0, so the result is nonempty *)
    in
    let sv = Value.Str s in
    let a, b = match side with `Left -> (fill, sv) | `Right -> (sv, fill) in
    match Value.rope_concat a b with
    | Some v -> v
    | None -> assert false (* target >= 1 byte total *)
  end
  else begin
    Fn_ctx.alloc_check ctx target;
    let slen = String.length s in
    let need = target - slen in
    let out = Bytes.create target in
    (* fill [off, off+need) with repetitions of [pad] by doubling: one
       copy of [pad], then the filled prefix blits onto itself —
       O(log(need/pad)) blits where the chunked Buffer loop did one
       append per pad length (one per BYTE for 1-char pads, the single
       hottest loop of a campaign) *)
    let fill off =
      let first = Stdlib.min need (String.length pad) in
      Bytes.blit_string pad 0 out off first;
      let filled = ref first in
      while !filled < need do
        let k = Stdlib.min !filled (need - !filled) in
        Bytes.blit out off out (off + !filled) k;
        filled := !filled + k
      done
    in
    (match side with
     | `Left ->
       fill 0;
       Bytes.blit_string s 0 out need slen
     | `Right ->
       Bytes.blit_string s 0 out 0 slen;
       fill slen);
    ret_str (Bytes.unsafe_to_string out)
  end

let lpad_fn =
  scalar "LPAD" ~min_args:2 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_int; Func_sig.H_str ]
    ~examples:[ "LPAD('5', 3, '0')" ] (pad_impl `Left)

let rpad_fn =
  scalar "RPAD" ~min_args:2 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_int; Func_sig.H_str ]
    ~examples:[ "RPAD('5', 3, 'x')" ] (pad_impl `Right)

let space_fn =
  scalar "SPACE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_int ]
    ~examples:[ "SPACE(4)" ]
    (fun ctx args ->
      let n = Args.int_ ctx args 0 in
      if n <= 0L then ret_str ""
      else begin
        if n > Int64.of_int ctx.Fn_ctx.limits.max_string_bytes then
          raise (Fn_ctx.Resource_limit "SPACE result exceeds cap");
        let n = Int64.to_int n in
        if n >= Value.Compact.min_str_bytes then
          Value.str_rope_rep " " n
        else ret_str (String.make n ' ')
      end)

let ascii_fn =
  scalar "ASCII" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "ASCII('A')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      if Fn_ctx.branch ctx "ascii/empty" (s = "") then ret_int 0L
      else ret_int (Int64.of_int (Char.code s.[0])))

let chr_fn =
  scalar "CHR" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_int ]
    ~examples:[ "CHR(65)" ]
    (fun ctx args ->
      let n = Args.int_ ctx args 0 in
      if n < 0L || n > 255L then Fn_ctx.err "CHR argument out of byte range"
      else ret_str (String.make 1 (Char.chr (Int64.to_int n))))

let hex_fn =
  scalar "HEX" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "HEX('ab')" ]
    (fun ctx args ->
      match Args.value args 0 with
      | Value.Int i -> ret_str (Printf.sprintf "%LX" i)
      | v ->
        let s = match v with Value.Blob b -> b | _ -> Args.str ctx args 0 in
        Fn_ctx.alloc_check ctx (2 * String.length s);
        ret_str (Codec.hex_encode s))

let unhex_fn =
  scalar "UNHEX" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "UNHEX('4142')" ]
    (fun ctx args ->
      match Codec.hex_decode (Args.str ctx args 0) with
      | Some b -> Value.Blob b
      | None -> Value.Null)

let md5_fn =
  scalar "MD5" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "MD5('abc')" ]
    (fun ctx args -> ret_str (Codec.digest_hex (Args.str ctx args 0)))

let sha1_fn =
  scalar "SHA1" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "SHA1('abc')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      ret_str (Codec.digest_hex (s ^ "\x01sha")))

let crc32_fn =
  scalar "CRC32" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "CRC32('abc')" ]
    (fun ctx args -> ret_int (Codec.crc32 (Args.str ctx args 0)))

let to_base64_fn =
  scalar "TO_BASE64" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "TO_BASE64('abc')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      Fn_ctx.alloc_check ctx (String.length s * 2);
      ret_str (Codec.base64_encode s))

let from_base64_fn =
  scalar "FROM_BASE64" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "FROM_BASE64('YWJj')" ]
    (fun ctx args ->
      match Codec.base64_decode (Args.str ctx args 0) with
      | Some b -> Value.Blob b
      | None -> Value.Null)

(* FORMAT(number, decimal_places [, locale]) — the MDEV-23415 surface:
   formats with thousands separators; the digit budget interacts with
   scientific-notation fallbacks in the faulty dialects. *)
let format_fn =
  scalar "FORMAT" ~min_args:2 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_num; Func_sig.H_int; Func_sig.H_locale ]
    ~examples:[ "FORMAT(1234.5678, 2)"; "FORMAT(1234.5678, 2, 'de_DE')" ]
    (fun ctx args ->
      let d = Args.dec ctx args 0 in
      let places = Args.small_int ctx args 1 in
      let locale =
        match Args.value_opt args 2 with Some _ -> Args.str ctx args 2 | None -> "en_US"
      in
      if places < 0 then Fn_ctx.err "FORMAT: negative decimal places";
      if places > 10_000 then raise (Fn_ctx.Resource_limit "FORMAT precision too large");
      let thousand_sep, decimal_sep =
        if Fn_ctx.branch ctx "format/locale-de"
             (String.length locale >= 2 && String.sub locale 0 2 = "de")
        then (".", ",")
        else (",", ".")
      in
      let rounded = Decimal.round ~scale:places d in
      let text = Decimal.to_string rounded in
      let neg = String.length text > 0 && text.[0] = '-' in
      let text = if neg then String.sub text 1 (String.length text - 1) else text in
      let int_part, frac_part =
        match String.index_opt text '.' with
        | Some i ->
          (String.sub text 0 i, String.sub text (i + 1) (String.length text - i - 1))
        | None -> (text, "")
      in
      let buf = Buffer.create (String.length text + 8) in
      if neg then Buffer.add_char buf '-';
      let n = String.length int_part in
      String.iteri
        (fun i c ->
          if i > 0 && (n - i) mod 3 = 0 then Buffer.add_string buf thousand_sep;
          Buffer.add_char buf c)
        int_part;
      if places > 0 then begin
        Buffer.add_string buf decimal_sep;
        Buffer.add_string buf frac_part;
        for _ = String.length frac_part + 1 to places do
          Buffer.add_char buf '0'
        done
      end;
      ret_str (Buffer.contents buf))

let strcmp_fn =
  scalar "STRCMP" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_str ] ~examples:[ "STRCMP('a', 'b')" ]
    (fun ctx args ->
      let c = String.compare (Args.str ctx args 0) (Args.str ctx args 1) in
      ret_int (Int64.of_int (Stdlib.compare c 0)))

let split_part_fn =
  scalar "SPLIT_PART" ~min_args:3 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_sep; Func_sig.H_int ]
    ~examples:[ "SPLIT_PART('a,b,c', ',', 2)" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let sep = Args.str ctx args 1 in
      let idx = Args.small_int ctx args 2 in
      if sep = "" then Fn_ctx.err "SPLIT_PART: empty separator";
      if idx <= 0 then Fn_ctx.err "SPLIT_PART: position must be positive";
      (* every part is still ticked, but only part [idx] is copied *)
      let rec split k i part =
        Fn_ctx.tick ctx;
        match Substring.find s sep i with
        | Some j ->
          let part = if k = idx then String.sub s i (j - i) else part in
          split (k + 1) (j + String.length sep) part
        | None -> if k = idx then String.sub s i (String.length s - i) else part
      in
      ret_str (split 1 0 ""))

let elt_fn =
  scalar "ELT" ~min_args:2 ~max_args:None
    ~hints:[ Func_sig.H_int; Func_sig.H_str ] ~examples:[ "ELT(2, 'a', 'b', 'c')" ]
    (fun ctx args ->
      let idx = Args.small_int ctx args 0 in
      let n = List.length args - 1 in
      if Fn_ctx.branch ctx "elt/range" (idx < 1 || idx > n) then Value.Null
      else ret_str (Args.str ctx args idx))

let field_fn =
  scalar "FIELD" ~min_args:2 ~max_args:None ~hints:[ Func_sig.H_str ]
    ~examples:[ "FIELD('b', 'a', 'b', 'c')" ]
    (fun ctx args ->
      let target = Args.str ctx args 0 in
      let rec go i =
        if i >= List.length args then 0L
        else if Args.str ctx args i = target then Int64.of_int i
        else go (i + 1)
      in
      ret_int (go 1))

let quote_fn =
  scalar "QUOTE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~null_propagates:false ~examples:[ "QUOTE('it''s')" ]
    (fun ctx args ->
      match Args.value args 0 with
      | Value.Null -> ret_str "NULL"
      | _ ->
        let s = Args.str ctx args 0 in
        let buf = Buffer.create (String.length s + 2) in
        Buffer.add_char buf '\'';
        String.iter
          (fun c ->
            match c with
            | '\'' -> Buffer.add_string buf "''"
            | '\\' -> Buffer.add_string buf "\\\\"
            | c -> Buffer.add_char buf c)
          s;
        Buffer.add_char buf '\'';
        ret_str (Buffer.contents buf))

let initcap_fn =
  scalar "INITCAP" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "INITCAP('hello world')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let prev_alpha = ref false in
      ret_str
        (String.map
           (fun c ->
             let is_alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
             let out =
               if is_alpha && not !prev_alpha then Char.uppercase_ascii c
               else Char.lowercase_ascii c
             in
             prev_alpha := is_alpha;
             out)
           s))

let translate_fn =
  scalar "TRANSLATE" ~min_args:3 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_str; Func_sig.H_str ]
    ~examples:[ "TRANSLATE('12345', '143', 'ax')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let from_set = Args.str ctx args 1 in
      let to_set = Args.str ctx args 2 in
      let buf = Buffer.create (String.length s) in
      String.iter
        (fun c ->
          match String.index_opt from_set c with
          | Some i -> if i < String.length to_set then Buffer.add_char buf to_set.[i]
          | None -> Buffer.add_char buf c)
        s;
      ret_str (Buffer.contents buf))

let insert_fn =
  scalar "INSERT" ~min_args:4 ~max_args:(Some 4)
    ~hints:[ Func_sig.H_str; Func_sig.H_int; Func_sig.H_int; Func_sig.H_str ]
    ~examples:[ "INSERT('Quadratic', 3, 4, 'What')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let pos = Args.small_int ctx args 1 in
      let len = Args.small_int ctx args 2 in
      let sub = Args.str ctx args 3 in
      let n = String.length s in
      if Fn_ctx.branch ctx "insert/range" (pos < 1 || pos > n) then ret_str s
      else begin
        let before = String.sub s 0 (pos - 1) in
        let after_start = Stdlib.min n (if len < 0 then n else pos - 1 + len) in
        let after = String.sub s after_start (n - after_start) in
        Fn_ctx.alloc_check ctx (String.length before + String.length sub + String.length after);
        ret_str (before ^ sub ^ after)
      end)

let regexp_compile ctx pattern =
  match Regex.compile pattern with
  | Ok re -> re
  | Error msg ->
    Fn_ctx.point ctx "regexp/bad-pattern";
    Fn_ctx.err "invalid regular expression: %s" msg

let regexp_run ctx f =
  match f () with
  | v ->
    Fn_ctx.tick ~cost:(Regex.steps_of_last_match () / 64) ctx;
    v
  | exception Regex.Step_limit ->
    raise (Fn_ctx.Resource_limit "regular expression too expensive")

let regexp_like_fn =
  scalar "REGEXP_LIKE" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_regex ]
    ~examples:[ "REGEXP_LIKE('abc', 'a.c')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let re = regexp_compile ctx (Args.str ctx args 1) in
      Value.Bool (regexp_run ctx (fun () -> Regex.matches re s)))

let regexp_instr_fn =
  scalar "REGEXP_INSTR" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_regex ]
    ~examples:[ "REGEXP_INSTR('abcd', 'c.')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let re = regexp_compile ctx (Args.str ctx args 1) in
      match regexp_run ctx (fun () -> Regex.find re s) with
      | Some (i, _) -> ret_int (Int64.of_int (i + 1))
      | None -> ret_int 0L)

let regexp_replace_fn =
  scalar "REGEXP_REPLACE" ~min_args:3 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_regex; Func_sig.H_str ]
    ~examples:[ "REGEXP_REPLACE('a1b2', '[0-9]', '#')" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let re = regexp_compile ctx (Args.str ctx args 1) in
      let repl = Args.str ctx args 2 in
      Fn_ctx.alloc_check ctx (String.length s * (1 + String.length repl));
      ret_str (regexp_run ctx (fun () -> Regex.replace_all re s repl)))

let regexp_substr_fn =
  scalar "REGEXP_SUBSTR" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_regex ]
    ~examples:[ "REGEXP_SUBSTR('abcd', 'b.'), " ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let re = regexp_compile ctx (Args.str ctx args 1) in
      match regexp_run ctx (fun () -> Regex.find re s) with
      | Some (i, len) -> ret_str (String.sub s i len)
      | None -> Value.Null)

(* Virtuoso-style full-text CONTAINS(column, query [, options]): the
   paper's case 2 crashes it with a bare '*' third argument. *)
let contains_fn =
  scalar "CONTAINS" ~min_args:2 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_str; Func_sig.H_any ]
    ~examples:[ "CONTAINS('haystack', 'hay')" ]
    (fun ctx args ->
      let hay = Args.str ctx args 0 in
      let needle = Args.str ctx args 1 in
      (match Args.value_opt args 2 with
       | Some (Value.Str _) | None -> ()
       | Some v ->
         Fn_ctx.err "CONTAINS: bad options argument (%s)"
             (Value.ty_name (Value.type_of v)));
      ret_int (if Substring.find hay needle 0 <> None then 1L else 0L))

let bit_length_fn =
  scalar "BIT_LENGTH" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "BIT_LENGTH('ab')" ]
    (fun ctx args -> ret_int (Int64.of_int (8 * Args.str_byte_length ctx args 0)))

let locate_fn =
  scalar "LOCATE" ~min_args:2 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_str; Func_sig.H_str; Func_sig.H_int ]
    ~examples:[ "LOCATE('b', 'abc')" ]
    (fun ctx args ->
      let needle = Args.str ctx args 0 and hay = Args.str ctx args 1 in
      let from =
        match Args.int_opt ctx args 2 with
        | Some p -> Stdlib.max 0 (Int64.to_int p - 1)
        | None -> 0
      in
      match Substring.find hay needle from with
      | Some i -> ret_int (Int64.of_int (i + 1))
      | None -> ret_int 0L)

let specs =
  [
    length_fn; char_length_fn; upper_fn; lower_fn; concat_fn; concat_ws_fn;
    substring_fn; substr_fn; left_fn; right_fn; trim_fn; ltrim_fn; rtrim_fn;
    replace_fn; repeat_fn; reverse_fn; instr_fn; position_fn; lpad_fn;
    rpad_fn; space_fn; ascii_fn; chr_fn; hex_fn; unhex_fn; md5_fn; sha1_fn;
    crc32_fn; to_base64_fn; from_base64_fn; format_fn; strcmp_fn;
    split_part_fn; elt_fn; field_fn; quote_fn; initcap_fn; translate_fn;
    insert_fn; regexp_like_fn; regexp_instr_fn; regexp_replace_fn;
    regexp_substr_fn; contains_fn; bit_length_fn; locate_fn;
  ]
