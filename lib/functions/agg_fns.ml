(** Built-in aggregate functions. These operate over whole columns, must
    accept every data type, and interact with DISTINCT/GROUP BY — which is
    why the study ranks them second among bug-inducing function types. *)

open Sqlfun_value
open Sqlfun_num
open Sqlfun_fault

let cat = "aggregate"
let aggregate = Func_sig.aggregate ~category:cat

(* DISTINCT filtering keyed on the display rendering of the argument
   tuple; returns true when the row should be processed. *)
let distinct_filter enabled =
  let seen = Hashtbl.create 16 in
  fun (args : Fault.arg list) ->
    if not enabled then true
    else begin
      let key =
        String.concat "\x00"
          (List.map (fun a -> Value.to_display a.Fault.value) args)
      in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end
    end

let first_value (args : Fault.arg list) =
  match args with
  | [] -> Value.Null
  | a :: _ -> a.Fault.value

let is_star (args : Fault.arg list) =
  match args with
  | [ a ] -> a.Fault.prov = Fault.Prov.Star
  | _ -> false

let count_fn =
  aggregate "COUNT" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_any ]
    ~examples:[ "COUNT(1)" ]
    (fun ctx ~distinct ->
      let n = ref 0L in
      let fresh = distinct_filter distinct in
      {
        Func_sig.step =
          (fun args ->
            if is_star args then begin
              Fn_ctx.point ctx "count/star";
              n := Int64.add !n 1L
            end
            else if not (Value.is_null (first_value args)) && fresh args then
              n := Int64.add !n 1L);
        final = (fun () -> Value.Int !n);
      })

(* Shared accumulator for SUM/AVG: exact decimal arithmetic unless a float
   appears, in which case the whole aggregate degrades to float (the
   MySQL/MariaDB behaviour whose precision edge AVG bugs live on). *)
type numeric_acc = {
  mutable dec_sum : Decimal.t;
  mutable float_sum : float;
  mutable use_float : bool;
  mutable rows : int64;
}

let numeric_step ctx name acc v =
  match v with
  | Value.Null -> ()
  | Value.Int i ->
    acc.rows <- Int64.add acc.rows 1L;
    if acc.use_float then acc.float_sum <- acc.float_sum +. Int64.to_float i
    else acc.dec_sum <- Decimal.add acc.dec_sum (Decimal.of_int64 i)
  | Value.Dec d ->
    acc.rows <- Int64.add acc.rows 1L;
    if acc.use_float then acc.float_sum <- acc.float_sum +. Decimal.to_float d
    else acc.dec_sum <- Decimal.add acc.dec_sum d
  | Value.Float f ->
    acc.rows <- Int64.add acc.rows 1L;
    if Fn_ctx.branch ctx (name ^ "/degrade-float") (not acc.use_float) then begin
      acc.use_float <- true;
      acc.float_sum <- Decimal.to_float acc.dec_sum +. f
    end
    else acc.float_sum <- acc.float_sum +. f
  | Value.Bool b ->
    acc.rows <- Int64.add acc.rows 1L;
    if acc.use_float then
      acc.float_sum <- acc.float_sum +. (if b then 1.0 else 0.0)
    else if b then acc.dec_sum <- Decimal.add acc.dec_sum Decimal.one
  | Value.Str s ->
    (* lenient dialects coerce; strict ones reject *)
    (match ctx.Fn_ctx.cast_cfg.Cast.strictness with
     | Cast.Strict -> Fn_ctx.err "%s: string argument in numeric aggregate" name
     | Cast.Lenient ->
       acc.rows <- Int64.add acc.rows 1L;
       let f = match float_of_string_opt s with Some f -> f | None -> 0.0 in
       acc.use_float <- true;
       acc.float_sum <- Decimal.to_float acc.dec_sum +. acc.float_sum +. f;
       acc.dec_sum <- Decimal.zero)
  | v -> Fn_ctx.err "%s: cannot aggregate %s" name (Value.ty_name (Value.type_of v))

let fresh_acc () =
  { dec_sum = Decimal.zero; float_sum = 0.0; use_float = false; rows = 0L }

let sum_fn =
  aggregate "SUM" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "SUM(2.5)" ]
    (fun ctx ~distinct ->
      let acc = fresh_acc () in
      let fresh = distinct_filter distinct in
      {
        Func_sig.step =
          (fun args -> if fresh args then numeric_step ctx "sum" acc (first_value args));
        final =
          (fun () ->
            if acc.rows = 0L then Value.Null
            else if acc.use_float then Value.Float acc.float_sum
            else Value.Dec acc.dec_sum);
      })

let avg_fn =
  aggregate "AVG" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "AVG(1.5)" ]
    (fun ctx ~distinct ->
      let acc = fresh_acc () in
      let fresh = distinct_filter distinct in
      {
        Func_sig.step =
          (fun args -> if fresh args then numeric_step ctx "avg" acc (first_value args));
        final =
          (fun () ->
            if acc.rows = 0L then Value.Null
            else if acc.use_float then
              Value.Float (acc.float_sum /. Int64.to_float acc.rows)
            else begin
              let scale = Stdlib.min 30 (Decimal.scale acc.dec_sum + 4) in
              match Decimal.div ~scale acc.dec_sum (Decimal.of_int64 acc.rows) with
              | Some q -> Value.Dec q
              | None -> Value.Null
            end);
      })

let extremum_agg name keep =
  aggregate name ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_any ]
    ~examples:[ Printf.sprintf "%s(3)" name ]
    (fun _ctx ~distinct ->
      ignore distinct;
      let best = ref Value.Null in
      {
        Func_sig.step =
          (fun args ->
            let v = first_value args in
            if not (Value.is_null v) then
              match !best with
              | Value.Null -> best := v
              | b ->
                (match Value.compare_values v b with
                 | Some c -> if keep c then best := v
                 | None -> Fn_ctx.err "%s: incomparable values in aggregate" name));
        final = (fun () -> !best);
      })

let min_fn = extremum_agg "MIN" (fun c -> c < 0)
let max_fn = extremum_agg "MAX" (fun c -> c > 0)

let concat_agg name default_sep =
  aggregate name ~min_args:1 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_sep ]
    ~examples:[ Printf.sprintf "%s('x')" name ]
    (fun ctx ~distinct ->
      let parts = ref [] in
      let fresh = distinct_filter distinct in
      let sep = ref default_sep in
      {
        Func_sig.step =
          (fun args ->
            (match args with
             | [ _; s ] when not (Value.is_null s.Fault.value) ->
               sep := Value.to_display s.Fault.value
             | _ -> ());
            let v = first_value args in
            if (not (Value.is_null v)) && fresh args then begin
              let rendered = Value.to_display v in
              Fn_ctx.alloc_check ctx
                (String.length rendered
                + List.fold_left (fun a s -> a + String.length s) 0 !parts);
              parts := rendered :: !parts
            end);
        final =
          (fun () ->
            match !parts with
            | [] -> Value.Null
            | ps -> Value.Str (String.concat !sep (List.rev ps)));
      })

let group_concat_fn = concat_agg "GROUP_CONCAT" ","
let string_agg_fn = concat_agg "STRING_AGG" ""

(* Welford-style single-pass variance. *)
let variance_core ctx name final_of =
  let n = ref 0L and mean = ref 0.0 and m2 = ref 0.0 in
  {
    Func_sig.step =
      (fun (args : Fault.arg list) ->
        let v = first_value args in
        match v with
        | Value.Null -> ()
        | Value.Int _ | Value.Dec _ | Value.Float _ | Value.Bool _ ->
          let x =
            match v with
            | Value.Int i -> Int64.to_float i
            | Value.Dec d -> Decimal.to_float d
            | Value.Float f -> f
            | Value.Bool b -> if b then 1.0 else 0.0
            | _ -> 0.0
          in
          n := Int64.add !n 1L;
          let delta = x -. !mean in
          mean := !mean +. (delta /. Int64.to_float !n);
          m2 := !m2 +. (delta *. (x -. !mean))
        | v ->
          Fn_ctx.point ctx (name ^ "/non-numeric");
          Fn_ctx.err "%s: cannot aggregate %s" name (Value.ty_name (Value.type_of v)));
    final = (fun () -> final_of !n !m2);
  }

let var_pop_fn =
  aggregate "VARIANCE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "VARIANCE(2)" ]
    (fun ctx ~distinct ->
      ignore distinct;
      variance_core ctx "variance" (fun n m2 ->
          if n = 0L then Value.Null else Value.Float (m2 /. Int64.to_float n)))

let stddev_fn =
  aggregate "STDDEV" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "STDDEV(2)" ]
    (fun ctx ~distinct ->
      ignore distinct;
      variance_core ctx "stddev" (fun n m2 ->
          if n = 0L then Value.Null
          else Value.Float (Float.sqrt (m2 /. Int64.to_float n))))

let array_agg_fn =
  aggregate "ARRAY_AGG" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_any ]
    ~examples:[ "ARRAY_AGG(1)" ]
    (fun ctx ~distinct ->
      let items = ref [] and count = ref 0 in
      let fresh = distinct_filter distinct in
      {
        Func_sig.step =
          (fun args ->
            if fresh args then begin
              incr count;
              if !count > ctx.Fn_ctx.limits.max_collection then
                raise (Fn_ctx.Resource_limit "ARRAY_AGG result too large");
              items := first_value args :: !items
            end);
        final = (fun () -> Value.Arr (List.rev !items));
      })

let jsonb_object_agg_fn =
  aggregate "JSONB_OBJECT_AGG" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_any ]
    ~examples:[ "JSONB_OBJECT_AGG('k', 1)" ]
    (fun ctx ~distinct ->
      let pairs = ref [] in
      let fresh = distinct_filter distinct in
      {
        Func_sig.step =
          (fun args ->
            match args with
            | [ k; v ] when fresh args ->
              if Value.is_null k.Fault.value then
                Fn_ctx.err "JSONB_OBJECT_AGG: null key"
              else begin
                let key = Value.to_display k.Fault.value in
                let jv =
                  match v.Fault.value with
                  | Value.Json j -> j
                  | Value.Null -> Sqlfun_data.Json.J_null
                  | Value.Int i -> Sqlfun_data.Json.J_num (Int64.to_string i)
                  | Value.Dec d -> Sqlfun_data.Json.J_num (Decimal.to_string d)
                  | Value.Bool b -> Sqlfun_data.Json.J_bool b
                  | other -> Sqlfun_data.Json.J_str (Value.to_display other)
                in
                Fn_ctx.tick ctx;
                pairs := (key, jv) :: !pairs
              end
            | [ _; _ ] -> ()
            | _ -> Fn_ctx.err "JSONB_OBJECT_AGG takes 2 arguments");
        final = (fun () -> Value.Json (Sqlfun_data.Json.J_obj (List.rev !pairs)));
      })

let median_fn =
  aggregate "MEDIAN" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "MEDIAN(5)" ]
    (fun _ctx ~distinct ->
      ignore distinct;
      let xs = ref [] in
      {
        Func_sig.step =
          (fun args ->
            match first_value args with
            | Value.Null -> ()
            | Value.Int i -> xs := Int64.to_float i :: !xs
            | Value.Dec d -> xs := Decimal.to_float d :: !xs
            | Value.Float f -> xs := f :: !xs
            | Value.Bool b -> xs := (if b then 1.0 else 0.0) :: !xs
            | v -> Fn_ctx.err "MEDIAN: cannot aggregate %s"
                (Value.ty_name (Value.type_of v)));
        final =
          (fun () ->
            match List.sort Float.compare !xs with
            | [] -> Value.Null
            | sorted ->
              let n = List.length sorted in
              if n mod 2 = 1 then Value.Float (List.nth sorted (n / 2))
              else
                Value.Float
                  ((List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0));
      })

let bit_agg name op init =
  aggregate name ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_int ]
    ~examples:[ Printf.sprintf "%s(7)" name ]
    (fun _ctx ~distinct ->
      ignore distinct;
      let acc = ref init and any = ref false in
      {
        Func_sig.step =
          (fun args ->
            match first_value args with
            | Value.Null -> ()
            | Value.Int i ->
              any := true;
              acc := op !acc i
            | Value.Bool b ->
              any := true;
              acc := op !acc (if b then 1L else 0L)
            | v -> Fn_ctx.err "%s: cannot aggregate %s" name
                (Value.ty_name (Value.type_of v)));
        final = (fun () -> if !any then Value.Int !acc else Value.Null);
      })

let bit_and_fn = bit_agg "BIT_AND" Int64.logand (-1L)
let bit_or_fn = bit_agg "BIT_OR" Int64.logor 0L
let bit_xor_fn = bit_agg "BIT_XOR" Int64.logxor 0L

let specs =
  [
    count_fn; sum_fn; avg_fn; min_fn; max_fn; group_concat_fn; string_agg_fn;
    var_pop_fn; stddev_fn; array_agg_fn; jsonb_object_agg_fn; median_fn;
    bit_and_fn; bit_or_fn; bit_xor_fn;
  ]
