(** Conditional functions, including [INTERVAL] — the comparison function
    whose missing ROW-type validation is MDEV-14596. *)

open Sqlfun_value

let cat = "condition"
let scalar = Func_sig.scalar ~category:cat ~null_propagates:false

let if_fn =
  scalar "IF" ~min_args:3 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_bool; Func_sig.H_any; Func_sig.H_any ]
    ~examples:[ "IF(1 < 2, 'yes', 'no')" ]
    (fun ctx args ->
      let cond =
        match Args.value args 0 with
        | Value.Null -> false
        | Value.Bool b -> b
        | Value.Int i -> i <> 0L
        | Value.Float f -> f <> 0.0
        | Value.Dec d -> not (Sqlfun_num.Decimal.is_zero d)
        | _ -> Args.bool_ ctx args 0
      in
      if Fn_ctx.branch ctx "if/cond" cond then Args.value args 1
      else Args.value args 2)

let ifnull_fn =
  scalar "IFNULL" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_any; Func_sig.H_any ] ~examples:[ "IFNULL(NULL, 'x')" ]
    (fun ctx args ->
      match Args.value args 0 with
      | Value.Null ->
        Fn_ctx.point ctx "ifnull/null";
        Args.value args 1
      | v -> v)

let nvl_fn =
  scalar "NVL" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_any; Func_sig.H_any ] ~examples:[ "NVL(NULL, 0)" ]
    (fun _ctx args ->
      match Args.value args 0 with Value.Null -> Args.value args 1 | v -> v)

let nullif_fn =
  scalar "NULLIF" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_any; Func_sig.H_any ] ~examples:[ "NULLIF(1, 1)" ]
    (fun ctx args ->
      let a = Args.value args 0 and b = Args.value args 1 in
      if Fn_ctx.branch ctx "nullif/eq" (Value.equal a b) then Value.Null else a)

let coalesce_fn =
  scalar "COALESCE" ~min_args:1 ~max_args:None ~hints:[ Func_sig.H_any ]
    ~examples:[ "COALESCE(NULL, NULL, 3)" ]
    (fun _ctx args ->
      let rec go i =
        if i >= List.length args then Value.Null
        else
          match Args.value args i with
          | Value.Null -> go (i + 1)
          | v -> v
      in
      go 0)

let isnull_fn =
  scalar "ISNULL" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_any ]
    ~examples:[ "ISNULL(NULL)" ]
    (fun _ctx args ->
      Value.Int (if Value.is_null (Args.value args 0) then 1L else 0L))

(* INTERVAL(N, N1, N2, ...) compares N against each subsequent argument
   and returns the index of the last Ni <= N (MySQL semantics). Arguments
   must be comparable scalars: ROW values are rejected by the correct
   implementation (MariaDB's missing check is the injected MDEV-14596). *)
let interval_fn =
  Func_sig.scalar ~category:cat "INTERVAL" ~min_args:2 ~max_args:None
    ~hints:[ Func_sig.H_num ] ~null_propagates:false
    ~examples:[ "INTERVAL(23, 1, 15, 17, 30)" ]
    (fun ctx args ->
      let n = Args.value args 0 in
      (match n with
       | Value.Row _ | Value.Arr _ | Value.Map _ ->
         Fn_ctx.point ctx "interval/row-rejected";
         Fn_ctx.err "INTERVAL: arguments must be comparable scalars"
       | _ -> ());
      if Value.is_null n then Value.Int (-1L)
      else begin
        let rec go i count =
          if i >= List.length args then count
          else begin
            let v = Args.value args i in
            (match v with
             | Value.Row _ | Value.Arr _ | Value.Map _ ->
               Fn_ctx.err "INTERVAL: arguments must be comparable scalars"
             | _ -> ());
            match Value.compare_values v n with
            | Some c when c <= 0 -> go (i + 1) (count + 1)
            | Some _ -> count
            | None ->
              Fn_ctx.point ctx "interval/incomparable";
              Fn_ctx.err "INTERVAL: incomparable argument types"
          end
        in
        Value.Int (Int64.of_int (go 1 0))
      end)

let choose_fn =
  scalar "CHOOSE" ~min_args:2 ~max_args:None
    ~hints:[ Func_sig.H_int; Func_sig.H_any ] ~examples:[ "CHOOSE(2, 'a', 'b')" ]
    (fun ctx args ->
      match Args.value args 0 with
      | Value.Null -> Value.Null
      | _ ->
        let idx = Args.small_int ctx args 0 in
        if idx < 1 || idx >= List.length args then Value.Null
        else Args.value args idx)

let specs =
  [ if_fn; ifnull_fn; nvl_fn; nullif_fn; coalesce_fn; isnull_fn; interval_fn; choose_fn ]
