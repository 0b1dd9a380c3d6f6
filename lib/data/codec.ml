let hex_digits = "0123456789ABCDEF"

let hex_encode ?(prefix = "") s =
  let p = String.length prefix and n = String.length s in
  let b = Bytes.create (p + (2 * n)) in
  Bytes.blit_string prefix 0 b 0 p;
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (p + (2 * i)) hex_digits.[c lsr 4];
    Bytes.unsafe_set b (p + (2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string b

(* The digit decoders answer -1 for a non-digit instead of an option, so
   decoding allocates nothing per byte. *)
let hex_val c =
  if c >= '0' && c <= '9' then Char.code c - 48
  else if c >= 'a' && c <= 'f' then Char.code c - 87
  else if c >= 'A' && c <= 'F' then Char.code c - 55
  else -1

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else begin
    let buf = Buffer.create (n / 2) in
    let rec go i =
      if i >= n then Some (Buffer.contents buf)
      else
        let hi = hex_val s.[i] and lo = hex_val s.[i + 1] in
        if hi < 0 || lo < 0 then None
        else begin
          Buffer.add_char buf (Char.chr ((hi * 16) + lo));
          go (i + 2)
        end
    in
    go 0
  end

let b64_alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let base64_encode s =
  let n = String.length s in
  let buf = Buffer.create (((n + 2) / 3) * 4) in
  let rec go i =
    if i >= n then ()
    else begin
      let b0 = Char.code s.[i] in
      let b1 = if i + 1 < n then Char.code s.[i + 1] else 0 in
      let b2 = if i + 2 < n then Char.code s.[i + 2] else 0 in
      Buffer.add_char buf b64_alphabet.[b0 lsr 2];
      Buffer.add_char buf b64_alphabet.[((b0 land 3) lsl 4) lor (b1 lsr 4)];
      if i + 1 < n then
        Buffer.add_char buf b64_alphabet.[((b1 land 15) lsl 2) lor (b2 lsr 6)]
      else Buffer.add_char buf '=';
      if i + 2 < n then Buffer.add_char buf b64_alphabet.[b2 land 63]
      else Buffer.add_char buf '=';
      go (i + 3)
    end
  in
  go 0;
  Buffer.contents buf

let b64_val c =
  if c >= 'A' && c <= 'Z' then Char.code c - 65
  else if c >= 'a' && c <= 'z' then Char.code c - 71
  else if c >= '0' && c <= '9' then Char.code c + 4
  else if c = '+' then 62
  else if c = '/' then 63
  else -1

let base64_decode s =
  (* tolerate whitespace, require valid groups *)
  let cleaned = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' -> ()
      | c -> Buffer.add_char cleaned c)
    s;
  let s = Buffer.contents cleaned in
  let n = String.length s in
  if n mod 4 <> 0 then None
  else begin
    let buf = Buffer.create (n / 4 * 3) in
    let rec go i =
      if i >= n then Some (Buffer.contents buf)
      else begin
        let last = i + 4 = n in
        let v0 = b64_val s.[i] and v1 = b64_val s.[i + 1] in
        if v0 < 0 || v1 < 0 then None
        else begin
          Buffer.add_char buf (Char.chr ((v0 lsl 2) lor (v1 lsr 4)));
          let v2 = b64_val s.[i + 2] in
          if v2 < 0 then
            if last && s.[i + 2] = '=' && s.[i + 3] = '=' then
              Some (Buffer.contents buf)
            else None
          else begin
            Buffer.add_char buf (Char.chr (((v1 land 15) lsl 4) lor (v2 lsr 2)));
            let v3 = b64_val s.[i + 3] in
            if v3 < 0 then
              if last && s.[i + 3] = '=' then Some (Buffer.contents buf) else None
            else begin
              Buffer.add_char buf (Char.chr (((v2 land 3) lsl 6) lor v3));
              go (i + 4)
            end
          end
        end
      end
    in
    if n = 0 then Some "" else go 0
  end

(* The hash lives in a local ref that no closure captures, so the
   compiler keeps it unboxed: no [Int64] allocation per byte. *)
let fnv1a_64_from seed s =
  let prime = 0x100000001b3L in
  let hash = ref seed in
  for i = 0 to String.length s - 1 do
    hash := Int64.logxor !hash (Int64.of_int (Char.code (String.unsafe_get s i)));
    hash := Int64.mul !hash prime
  done;
  !hash

let fnv1a_64 s = fnv1a_64_from 0xcbf29ce484222325L s

(* FNV-1a is a left fold, so the second pass over [s ^ "\x00pass2"]
   resumes from the first pass's hash instead of rehashing a copy. *)
let digest_hex s =
  let h1 = fnv1a_64 s in
  let h2 = fnv1a_64_from h1 "\x00pass2" in
  Printf.sprintf "%016Lx%016Lx" h1 h2

(* Built eagerly: forcing a [lazy] concurrently from several domains is
   undefined (RacyLazy / torn results), and with sharded campaigns the
   first CRC32 call can happen on any worker domain. 256 words at
   startup is cheaper than a synchronised lazy. *)
let crc32_table =
  Array.init 256 (fun i ->
      let c = ref (Int64.of_int i) in
      for _ = 0 to 7 do
        if Int64.rem !c 2L = 1L then
          c := Int64.logxor 0xedb88320L (Int64.shift_right_logical !c 1)
        else c := Int64.shift_right_logical !c 1
      done;
      !c)

let crc32 s =
  let table = crc32_table in
  let c = ref 0xffffffffL in
  for i = 0 to String.length s - 1 do
    let idx =
      Int64.to_int
        (Int64.logand
           (Int64.logxor !c (Int64.of_int (Char.code (String.unsafe_get s i))))
           0xffL)
    in
    c := Int64.logxor table.(idx) (Int64.shift_right_logical !c 8)
  done;
  Int64.logand (Int64.logxor !c 0xffffffffL) 0xffffffffL
