(** Built-in math functions. Numeric policy: integer inputs stay exact
    ([Int]/[Dec]) wherever the operation is closed; transcendental
    functions go through [float]. Overflow raises a clean SQL error in the
    unfaulted engine. *)

open Sqlfun_value
open Sqlfun_num

let cat = "math"
let scalar = Func_sig.scalar ~category:cat

(* the raw value: a compact one is never a number, so it answers [None]
   as its spelled-out view would, without spilling *)
let numeric args i =
  match Args.raw args i with
  | (Value.Int _ | Value.Dec _ | Value.Float _ | Value.Bool _) as v -> Some v
  | _ -> None

let abs_fn =
  scalar "ABS" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "ABS(-5)" ]
    (fun ctx args ->
      match numeric args 0 with
      | Some (Value.Int i) ->
        (match Checked_int.abs i with
         | Some v -> Value.Int v
         | None ->
           Fn_ctx.point ctx "abs/min-int";
           Fn_ctx.err "ABS: integer overflow")
      | Some (Value.Dec d) -> Value.Dec (Decimal.abs d)
      | Some (Value.Float f) -> Value.Float (Float.abs f)
      | Some (Value.Bool b) -> Value.Int (if b then 1L else 0L)
      | Some _ | None -> Value.Dec (Decimal.abs (Args.dec ctx args 0)))

let sign_fn =
  scalar "SIGN" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "SIGN(-2.5)" ]
    (fun ctx args ->
      let f = Args.float_ ctx args 0 in
      Value.Int (if f > 0.0 then 1L else if f < 0.0 then -1L else 0L))

let round_fn =
  scalar "ROUND" ~min_args:1 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_num; Func_sig.H_int ] ~examples:[ "ROUND(2.567, 2)" ]
    (fun ctx args ->
      let places =
        match Args.int_opt ctx args 1 with Some p -> Int64.to_int p | None -> 0
      in
      if places > 10_000 || places < -10_000 then Fn_ctx.err "ROUND: places out of range";
      match numeric args 0 with
      | Some (Value.Float f) ->
        let scale = 10.0 ** float_of_int places in
        Value.Float (Float.round (f *. scale) /. scale)
      | Some _ | None ->
        let d = Args.dec ctx args 0 in
        if Fn_ctx.branch ctx "round/neg-places" (places < 0) then begin
          (* round to tens/hundreds: scale up after zeroing *)
          let p = -places in
          match Decimal.div ~scale:0 d (Decimal.of_string_exn ("1" ^ String.make p '0')) with
          | Some q ->
            Value.Dec (Decimal.mul q (Decimal.of_string_exn ("1" ^ String.make p '0')))
          | None -> Fn_ctx.err "ROUND: internal scale error"
        end
        else Value.Dec (Decimal.round ~scale:places d))

let truncate_impl ctx args =
  let places =
    match Args.int_opt ctx args 1 with Some p -> Int64.to_int p | None -> 0
  in
  if places > 10_000 || places < -10_000 then Fn_ctx.err "TRUNCATE: places out of range";
  let d = Args.dec ctx args 0 in
  if places >= 0 then begin
    (* truncate toward zero: drop digits without rounding *)
    let s = Decimal.to_string (Decimal.abs d) in
    let cut =
      match String.index_opt s '.' with
      | None -> s
      | Some dot ->
        if places = 0 then String.sub s 0 dot
        else begin
          let want = dot + 1 + places in
          if want >= String.length s then s else String.sub s 0 want
        end
    in
    let v = Decimal.of_string_exn cut in
    Value.Dec (if Decimal.is_negative d then Decimal.neg v else v)
  end
  else begin
    let p = -places in
    let unit_v = Decimal.of_string_exn ("1" ^ String.make p '0') in
    match Decimal.div ~scale:p d unit_v with
    | Some q ->
      (* drop the fractional part of the quotient, then scale back *)
      (match Decimal.to_int64 q with
       | Some i -> Value.Dec (Decimal.mul (Decimal.of_int64 i) unit_v)
       | None -> Fn_ctx.err "TRUNCATE: overflow")
    | None -> Fn_ctx.err "TRUNCATE: internal scale error"
  end

let truncate_fn =
  scalar "TRUNCATE" ~min_args:1 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_num; Func_sig.H_int ] ~examples:[ "TRUNCATE(2.567, 1)" ]
    truncate_impl

let ceil_impl ctx args =
  match numeric args 0 with
  | Some (Value.Int i) -> Value.Int i
  | Some (Value.Float f) -> Value.Float (Float.ceil f)
  | Some _ | None ->
    let d = Args.dec ctx args 0 in
    let floor_d = Decimal.round ~scale:0 (Decimal.sub d (Decimal.of_string_exn "0.5")) in
    let candidate =
      if Decimal.compare floor_d d < 0 then Decimal.add floor_d Decimal.one
      else floor_d
    in
    Value.Dec candidate

let ceil_fn =
  scalar "CEIL" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "CEIL(1.2)" ] ceil_impl

let ceiling_fn =
  scalar "CEILING" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "CEILING(-1.2)" ] ceil_impl

let floor_fn =
  scalar "FLOOR" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "FLOOR(1.8)" ]
    (fun ctx args ->
      match numeric args 0 with
      | Some (Value.Int i) -> Value.Int i
      | Some (Value.Float f) -> Value.Float (Float.floor f)
      | Some _ | None ->
        let d = Args.dec ctx args 0 in
        let ceil_d = Decimal.round ~scale:0 (Decimal.add d (Decimal.of_string_exn "0.5")) in
        let candidate =
          if Decimal.compare ceil_d d > 0 then Decimal.sub ceil_d Decimal.one
          else ceil_d
        in
        Value.Dec candidate)

let float1 name f =
  scalar name ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ Printf.sprintf "%s(0.5)" name ]
    (fun ctx args ->
      let x = Args.float_ ctx args 0 in
      let r = f x in
      if Float.is_nan r && not (Float.is_nan x) then
        Fn_ctx.err "%s: argument out of domain" name
      else Value.Float r)

let sqrt_fn =
  scalar "SQRT" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "SQRT(9)" ]
    (fun ctx args ->
      let x = Args.float_ ctx args 0 in
      if Fn_ctx.branch ctx "sqrt/neg" (x < 0.0) then Value.Null
      else Value.Float (Float.sqrt x))

let exp_fn = float1 "EXP" Float.exp
let sin_fn = float1 "SIN" sin
let cos_fn = float1 "COS" cos
let tan_fn = float1 "TAN" tan
let asin_fn = float1 "ASIN" asin
let acos_fn = float1 "ACOS" acos
let atan_fn = float1 "ATAN" atan

let atan2_fn =
  scalar "ATAN2" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_num; Func_sig.H_num ] ~examples:[ "ATAN2(1, 1)" ]
    (fun ctx args ->
      Value.Float (Float.atan2 (Args.float_ ctx args 0) (Args.float_ ctx args 1)))

let ln_fn =
  scalar "LN" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "LN(2.718)" ]
    (fun ctx args ->
      let x = Args.float_ ctx args 0 in
      if Fn_ctx.branch ctx "ln/nonpos" (x <= 0.0) then Value.Null
      else Value.Float (Float.log x))

let log_fn =
  scalar "LOG" ~min_args:1 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_num; Func_sig.H_num ] ~examples:[ "LOG(2, 8)" ]
    (fun ctx args ->
      match Args.value_opt args 1 with
      | None ->
        let x = Args.float_ ctx args 0 in
        if x <= 0.0 then Value.Null else Value.Float (Float.log x)
      | Some _ ->
        let base = Args.float_ ctx args 0 in
        let x = Args.float_ ctx args 1 in
        if
          Fn_ctx.branch ctx "log/bad-base"
            (base <= 0.0 || base = 1.0 || x <= 0.0)
        then Value.Null
        else Value.Float (Float.log x /. Float.log base))

let log10_fn =
  scalar "LOG10" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "LOG10(100)" ]
    (fun ctx args ->
      let x = Args.float_ ctx args 0 in
      if x <= 0.0 then Value.Null else Value.Float (Float.log10 x))

let log2_fn =
  scalar "LOG2" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "LOG2(8)" ]
    (fun ctx args ->
      let x = Args.float_ ctx args 0 in
      if x <= 0.0 then Value.Null
      else Value.Float (Float.log x /. Float.log 2.0))

let pow_impl ctx args =
  match (numeric args 0, numeric args 1) with
  | Some (Value.Int b), Some (Value.Int e) when e >= 0L && e < 64L ->
    (match Checked_int.pow b e with
     | Some v -> Value.Int v
     | None ->
       Fn_ctx.point ctx "pow/int-overflow";
       Value.Float (Int64.to_float b ** Int64.to_float e))
  | _ ->
    let b = Args.float_ ctx args 0 and e = Args.float_ ctx args 1 in
    let r = b ** e in
    if Float.is_nan r && not (Float.is_nan b || Float.is_nan e) then
      Fn_ctx.err "POWER: argument out of domain"
    else Value.Float r

let pow_fn =
  scalar "POW" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_num; Func_sig.H_num ] ~examples:[ "POW(2, 10)" ] pow_impl

let power_fn =
  scalar "POWER" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_num; Func_sig.H_num ] ~examples:[ "POWER(2, 0.5)" ]
    pow_impl

let mod_fn =
  scalar "MOD" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_num; Func_sig.H_num ] ~examples:[ "MOD(10, 3)" ]
    (fun ctx args ->
      match (numeric args 0, numeric args 1) with
      | Some (Value.Int a), Some (Value.Int b) ->
        if Fn_ctx.branch ctx "mod/zero" (b = 0L) then Value.Null
        else
          (match Checked_int.rem a b with
           | Some r -> Value.Int r
           | None -> Value.Int 0L)
      | _ ->
        let a = Args.float_ ctx args 0 and b = Args.float_ ctx args 1 in
        if b = 0.0 then Value.Null else Value.Float (Float.rem a b))

let div_fn =
  scalar "DIV" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_num; Func_sig.H_num ] ~examples:[ "DIV(10, 3)" ]
    (fun ctx args ->
      let a = Args.int_ ctx args 0 and b = Args.int_ ctx args 1 in
      if Fn_ctx.branch ctx "div/zero" (b = 0L) then Value.Null
      else
        match Checked_int.div a b with
        | Some q -> Value.Int q
        | None -> Fn_ctx.err "DIV: integer overflow")

let pi_fn =
  scalar "PI" ~min_args:0 ~max_args:(Some 0) ~hints:[] ~examples:[ "PI()" ]
    (fun _ctx _args -> Value.Float (4.0 *. atan 1.0))

let degrees_fn = float1 "DEGREES" (fun x -> x *. 180.0 /. (4.0 *. atan 1.0))
let radians_fn = float1 "RADIANS" (fun x -> x *. (4.0 *. atan 1.0) /. 180.0)

let rand_fn =
  scalar "RAND" ~min_args:0 ~max_args:(Some 1) ~hints:[ Func_sig.H_int ]
    ~examples:[ "RAND(42)" ]
    (fun ctx args ->
      (* deterministic: a seedable LCG, seeded with 0 when absent *)
      let seed =
        match Args.int_opt ctx args 0 with Some s -> s | None -> 0L
      in
      let next = Int64.add (Int64.mul seed 6364136223846793005L) 1442695040888963407L in
      let bits = Int64.to_float (Int64.shift_right_logical next 11) in
      Value.Float (bits /. 9007199254740992.0))

let extremum name keep =
  Func_sig.scalar ~category:cat name ~min_args:2 ~max_args:None
    ~hints:[ Func_sig.H_any ]
    ~examples:[ Printf.sprintf "%s(1, 2, 3)" name ]
    (fun ctx args ->
      let values = List.mapi (fun i _ -> Args.value args i) args in
      match values with
      | [] -> Value.Null
      | first :: rest ->
        List.fold_left
          (fun best v ->
            match Value.compare_values v best with
            | Some c -> if keep c then v else best
            | None ->
              Fn_ctx.point ctx (String.lowercase_ascii name ^ "/incomparable");
              Fn_ctx.err "%s: incomparable argument types" name)
          first rest)

let greatest_fn = extremum "GREATEST" (fun c -> c > 0)
let least_fn = extremum "LEAST" (fun c -> c < 0)

let gcd_fn =
  scalar "GCD" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_int; Func_sig.H_int ] ~examples:[ "GCD(12, 18)" ]
    (fun ctx args ->
      let rec gcd a b = if b = 0L then a else gcd b (Int64.rem a b) in
      let a = Args.int_ ctx args 0 and b = Args.int_ ctx args 1 in
      if a = Int64.min_int || b = Int64.min_int then Fn_ctx.err "GCD: overflow";
      Value.Int (gcd (Int64.abs a) (Int64.abs b)))

let factorial_fn =
  scalar "FACTORIAL" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_int ]
    ~examples:[ "FACTORIAL(5)" ]
    (fun ctx args ->
      let n = Args.int_ ctx args 0 in
      if Fn_ctx.branch ctx "factorial/neg" (n < 0L) then
        Fn_ctx.err "FACTORIAL: negative argument"
      else if n > 20L then Fn_ctx.err "FACTORIAL: result exceeds BIGINT"
      else begin
        let rec go acc i =
          if i > n then acc else go (Int64.mul acc i) (Int64.add i 1L)
        in
        Value.Int (go 1L 1L)
      end)

let bit_count_fn =
  scalar "BIT_COUNT" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_int ]
    ~examples:[ "BIT_COUNT(7)" ]
    (fun ctx args ->
      let v = Args.int_ ctx args 0 in
      let count = ref 0 in
      for i = 0 to 63 do
        if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then incr count
      done;
      Value.Int (Int64.of_int !count))

let specs =
  [
    abs_fn; sign_fn; round_fn; truncate_fn; ceil_fn; ceiling_fn; floor_fn;
    sqrt_fn; exp_fn; sin_fn; cos_fn; tan_fn; asin_fn; acos_fn; atan_fn;
    atan2_fn; ln_fn; log_fn; log10_fn; log2_fn; pow_fn; power_fn; mod_fn;
    div_fn; pi_fn; degrees_fn; radians_fn; rand_fn; greatest_fn; least_fn;
    gcd_fn; factorial_fn; bit_count_fn;
  ]
