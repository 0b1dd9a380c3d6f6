type t = { neg : bool; digits : string; scale : int }

let is_digit_string s =
  s <> ""
  && (let ok = ref true in
      String.iter (fun c -> if c < '0' || c > '9' then ok := false) s;
      !ok)

let strip_leading_zeros s =
  let n = String.length s in
  let rec first i = if i < n - 1 && s.[i] = '0' then first (i + 1) else i in
  let i = first 0 in
  if i = 0 then s else String.sub s i (n - i)

let all_zero s =
  let zero = ref true in
  String.iter (fun c -> if c <> '0' then zero := false) s;
  !zero

let make ~neg ~digits ~scale =
  if scale < 0 then invalid_arg "Decimal.make: negative scale";
  if not (is_digit_string digits) then invalid_arg "Decimal.make: bad digits";
  (* Keep at least [scale + 1] digits so the integer part is never empty. *)
  let digits =
    if String.length digits <= scale then
      String.make (scale + 1 - String.length digits) '0' ^ digits
    else digits
  in
  let int_len = String.length digits - scale in
  let int_part = strip_leading_zeros (String.sub digits 0 int_len) in
  let digits = int_part ^ String.sub digits int_len scale in
  let neg = if all_zero digits then false else neg in
  { neg; digits; scale }

let zero = make ~neg:false ~digits:"0" ~scale:0
let one = make ~neg:false ~digits:"1" ~scale:0

let of_int64 i =
  if i >= 0L then make ~neg:false ~digits:(Int64.to_string i) ~scale:0
  else
    (* Int64.min_int has no positive counterpart; print then drop the sign. *)
    let s = Int64.to_string i in
    make ~neg:true ~digits:(String.sub s 1 (String.length s - 1)) ~scale:0

let of_int i = of_int64 (Int64.of_int i)

let of_string s =
  let n = String.length s in
  if n = 0 then Error "empty decimal literal"
  else begin
    let pos = ref 0 in
    let neg =
      match s.[0] with
      | '-' -> incr pos; true
      | '+' -> incr pos; false
      | '0' .. '9' | '.' -> false
      | _ -> incr pos; false (* reported as malformed below *)
    in
    if !pos > 0 && s.[0] <> '-' && s.[0] <> '+' then Error ("bad decimal: " ^ s)
    else begin
      let buf_int = Buffer.create 16 and buf_frac = Buffer.create 16 in
      let in_frac = ref false and bad = ref false and exp = ref 0 in
      let i = ref !pos in
      (let continue = ref true in
       while !continue && !i < n do
         (match s.[!i] with
          | '0' .. '9' as c ->
            Buffer.add_char (if !in_frac then buf_frac else buf_int) c
          | '.' -> if !in_frac then bad := true else in_frac := true
          | 'e' | 'E' ->
            let rest = String.sub s (!i + 1) (n - !i - 1) in
            (match int_of_string_opt rest with
             | Some e -> exp := e; continue := false
             | None -> bad := true)
          | _ -> bad := true);
         incr i
       done);
      let int_part = Buffer.contents buf_int and frac = Buffer.contents buf_frac in
      if !bad || (int_part = "" && frac = "") then Error ("bad decimal: " ^ s)
      else if abs !exp > 1000 then
        (* exponents are folded into the digit string; an unbounded one
           would materialize gigabytes (real engines reject these too) *)
        Error ("decimal exponent out of range: " ^ s)
      else begin
        let digits = (if int_part = "" then "0" else int_part) ^ frac in
        let scale = String.length frac in
        (* Fold the exponent into the scale, extending digits as needed. *)
        let digits, scale =
          if !exp >= 0 then
            if !exp >= scale then (digits ^ String.make (!exp - scale) '0', 0)
            else (digits, scale - !exp)
          else (digits, scale - !exp)
        in
        Ok (make ~neg ~digits ~scale)
      end
    end
  end

let of_string_exn s =
  match of_string s with
  | Ok d -> d
  | Error msg -> invalid_arg ("Decimal.of_string_exn: " ^ msg)

let is_zero d = all_zero d.digits
let is_negative d = d.neg
let scale d = d.scale

let precision d =
  let s = strip_leading_zeros d.digits in
  String.length s

let int_digits d =
  let n = String.length d.digits - d.scale in
  if n <= 0 then 1 else n

let to_string d =
  let n = String.length d.digits in
  let int_len = n - d.scale in
  let body =
    if d.scale = 0 then d.digits
    else String.sub d.digits 0 int_len ^ "." ^ String.sub d.digits int_len d.scale
  in
  if d.neg then "-" ^ body else body

let to_scientific d =
  if is_zero d then "0e0"
  else begin
    let sig_digits = strip_leading_zeros d.digits in
    (* exponent of the leading significant digit *)
    let exp = String.length sig_digits - 1 - d.scale in
    let trimmed =
      let n = String.length sig_digits in
      let rec last i = if i > 0 && sig_digits.[i] = '0' then last (i - 1) else i in
      String.sub sig_digits 0 (last (n - 1) + 1)
    in
    let mantissa =
      if String.length trimmed = 1 then trimmed
      else String.sub trimmed 0 1 ^ "." ^ String.sub trimmed 1 (String.length trimmed - 1)
    in
    Printf.sprintf "%s%se%d" (if d.neg then "-" else "") mantissa exp
  end

let to_float d = float_of_string (to_string d)

(* ----- digit-string arithmetic (unsigned, most-significant first) ----- *)

let cmp_digits a b =
  let a = strip_leading_zeros a and b = strip_leading_zeros b in
  let la = String.length a and lb = String.length b in
  if la <> lb then compare la lb else String.compare a b

let add_digits a b =
  let la = String.length a and lb = String.length b in
  let n = (if la > lb then la else lb) + 1 in
  let out = Bytes.make n '0' in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let da = if i < la then Char.code a.[la - 1 - i] - 48 else 0 in
    let db = if i < lb then Char.code b.[lb - 1 - i] - 48 else 0 in
    let s = da + db + !carry in
    Bytes.set out (n - 1 - i) (Char.chr (48 + (s mod 10)));
    carry := s / 10
  done;
  strip_leading_zeros (Bytes.to_string out)

(* precondition: a >= b *)
let sub_digits a b =
  let la = String.length a and lb = String.length b in
  let out = Bytes.make la '0' in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let da = Char.code a.[la - 1 - i] - 48 in
    let db = if i < lb then Char.code b.[lb - 1 - i] - 48 else 0 in
    let s = da - db - !borrow in
    let s, br = if s < 0 then (s + 10, 1) else (s, 0) in
    Bytes.set out (la - 1 - i) (Char.chr (48 + s));
    borrow := br
  done;
  strip_leading_zeros (Bytes.to_string out)

let mul_digits a b =
  let a = strip_leading_zeros a and b = strip_leading_zeros b in
  if a = "0" || b = "0" then "0"
  else begin
    let la = String.length a and lb = String.length b in
    let out = Array.make (la + lb) 0 in
    for i = la - 1 downto 0 do
      let da = Char.code a.[i] - 48 in
      for j = lb - 1 downto 0 do
        let db = Char.code b.[j] - 48 in
        let k = i + j + 1 in
        let s = out.(k) + (da * db) in
        out.(k) <- s mod 10;
        out.(k - 1) <- out.(k - 1) + (s / 10)
      done
    done;
    (* propagate remaining carries *)
    for k = la + lb - 1 downto 1 do
      if out.(k) >= 10 then begin
        out.(k - 1) <- out.(k - 1) + (out.(k) / 10);
        out.(k) <- out.(k) mod 10
      end
    done;
    let buf = Bytes.create (la + lb) in
    Array.iteri (fun i d -> Bytes.set buf i (Char.chr (48 + d))) out;
    strip_leading_zeros (Bytes.to_string buf)
  end

(* Schoolbook long division: quotient of a / b, both digit strings, b <> 0. *)
let divmod_digits a b =
  let a = strip_leading_zeros a in
  if cmp_digits a b < 0 then ("0", a)
  else begin
    let q = Buffer.create (String.length a) in
    let rem = ref "0" in
    String.iter
      (fun c ->
        let cur = strip_leading_zeros (!rem ^ String.make 1 c) in
        (* largest d in 0..9 with d*b <= cur *)
        let rec fit d =
          if d = 0 then 0
          else if cmp_digits (mul_digits (string_of_int d) b) cur <= 0 then d
          else fit (d - 1)
        in
        let d = fit 9 in
        Buffer.add_char q (Char.chr (48 + d));
        rem := sub_digits cur (mul_digits (string_of_int d) b))
      a;
    (strip_leading_zeros (Buffer.contents q), !rem)
  end

(* ----- signed fixed-point operations ----- *)

let align a b =
  let s = if a.scale > b.scale then a.scale else b.scale in
  let pad d = d.digits ^ String.make (s - d.scale) '0' in
  (pad a, pad b, s)

let compare a b =
  match (is_zero a, is_zero b) with
  | true, true -> 0
  | true, false -> if b.neg then 1 else -1
  | false, true -> if a.neg then -1 else 1
  | false, false ->
    if a.neg && not b.neg then -1
    else if (not a.neg) && b.neg then 1
    else
      let da, db, _ = align a b in
      let c = cmp_digits da db in
      if a.neg then -c else c

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let add a b =
  let da, db, s = align a b in
  if a.neg = b.neg then make ~neg:a.neg ~digits:(add_digits da db) ~scale:s
  else begin
    let c = cmp_digits da db in
    if c = 0 then make ~neg:false ~digits:"0" ~scale:s
    else if c > 0 then make ~neg:a.neg ~digits:(sub_digits da db) ~scale:s
    else make ~neg:b.neg ~digits:(sub_digits db da) ~scale:s
  end

let neg d = if is_zero d then d else { d with neg = not d.neg }
let abs d = { d with neg = false }
let sub a b = add a (neg b)

let mul a b =
  make ~neg:(a.neg <> b.neg) ~digits:(mul_digits a.digits b.digits)
    ~scale:(a.scale + b.scale)

let round ~scale:s d =
  if s < 0 then invalid_arg "Decimal.round: negative scale";
  if s >= d.scale then
    make ~neg:d.neg ~digits:(d.digits ^ String.make (s - d.scale) '0') ~scale:s
  else begin
    let drop = d.scale - s in
    let keep = String.length d.digits - drop in
    let kept = String.sub d.digits 0 keep in
    let first_dropped = d.digits.[keep] in
    let kept = if first_dropped >= '5' then add_digits kept "1" else kept in
    make ~neg:d.neg ~digits:kept ~scale:s
  end

let rescale = round

let div ~scale:s a b =
  if s < 0 then invalid_arg "Decimal.div: negative scale";
  if is_zero b then None
  else if precision a + precision b > 10_000 then
    (* schoolbook long division is quadratic; oversized operands fail like
       a division error instead of stalling the evaluator *)
    None
  else begin
    (* Compute with one guard digit, then round half-up. *)
    let shift = s + 1 + b.scale - a.scale in
    let da = if shift >= 0 then a.digits ^ String.make shift '0' else a.digits in
    let db =
      if shift >= 0 then b.digits else b.digits ^ String.make (-shift) '0'
    in
    let q, _ = divmod_digits da db in
    Some (round ~scale:s (make ~neg:(a.neg <> b.neg) ~digits:q ~scale:(s + 1)))
  end

let to_int64 d =
  let int_len = String.length d.digits - d.scale in
  let int_part = strip_leading_zeros (String.sub d.digits 0 int_len) in
  (* Int64.of_string handles up to 19 digits; check range via string compare. *)
  if String.length int_part > 19 then None
  else
    let signed = (if d.neg then "-" else "") ^ int_part in
    Int64.of_string_opt signed

let pp fmt d = Format.pp_print_string fmt (to_string d)
