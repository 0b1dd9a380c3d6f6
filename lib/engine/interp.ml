open Sqlfun_num
open Sqlfun_data
open Sqlfun_value
open Sqlfun_fault
open Sqlfun_functions
open Sqlfun_ast

module Profile = Sqlfun_telemetry.Profile

type env = {
  ctx : Fn_ctx.t;
  registry : Registry.t;
  catalog : Storage.catalog;
  profile : Profile.t;
}

type result_set = { columns : string list; rows : Value.t list list }
type outcome = Rows of result_set | Affected of int

let err fmt = Printf.ksprintf (fun msg -> raise (Fn_ctx.Sql_error msg)) fmt

(* ----- LIKE ----- *)

let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* memoized backtracking over (pattern index, string index) *)
  let seen = Hashtbl.create 16 in
  let rec go pi si =
    match Hashtbl.find_opt seen (pi, si) with
    | Some r -> r
    | None ->
      let r =
        if pi >= np then si >= ns
        else
          match pattern.[pi] with
          | '%' -> go (pi + 1) si || (si < ns && go pi (si + 1))
          | '_' -> si < ns && go (pi + 1) (si + 1)
          | '\\' when pi + 1 < np ->
            si < ns && s.[si] = pattern.[pi + 1] && go (pi + 2) (si + 1)
          | c ->
            si < ns
            && Char.lowercase_ascii s.[si] = Char.lowercase_ascii c
            && go (pi + 1) (si + 1)
      in
      Hashtbl.add seen (pi, si) r;
      r
  in
  go 0 0

(* ----- numeric literals ----- *)

let value_of_int_lit s =
  match Int64.of_string_opt s with
  | Some i -> Value.Int i
  | None ->
    (* a literal too large for BIGINT becomes an exact decimal *)
    (match Decimal.of_string s with
     | Ok d -> Value.Dec d
     | Error msg -> err "bad numeric literal: %s" msg)

let value_of_dec_lit s =
  match Decimal.of_string s with
  | Ok d -> Value.Dec d
  | Error msg -> err "bad numeric literal: %s" msg

(* ----- arithmetic ----- *)

let strictness ctx = ctx.Fn_ctx.cast_cfg.Cast.strictness

let rec num_coerce ctx v =
  (* coerce a scalar to the numeric tower for arithmetic *)
  match v with
  | Value.Int _ | Value.Dec _ | Value.Float _ -> v
  (* a rope is a string: parse its flat spelling (a range falls through
     to the catch-all and errors as ARRAY, exactly like a boxed array) *)
  | Value.Rope_str _ -> num_coerce ctx (Value.view v)
  | Value.Bool b -> Value.Int (if b then 1L else 0L)
  | Value.Str s ->
    (match strictness ctx with
     | Cast.Strict ->
       (match Decimal.of_string (String.trim s) with
        | Ok d -> Value.Dec d
        | Error _ -> err "invalid input %S for numeric operation" s)
     | Cast.Lenient ->
       (match Fn_ctx.cast_value ctx v (Ast.T_decimal None) with
        | Value.Dec d -> Value.Dec d
        | _ -> Value.Dec Decimal.zero))
  | v -> err "cannot use %s in numeric operation" (Value.ty_name (Value.type_of v))

let arith ctx op a b =
  Fn_ctx.tick ~cost:(1 + ((Value.size_of a + Value.size_of b) / 8)) ctx;
  let fail_overflow () =
    match strictness ctx with
    | Cast.Strict -> err "BIGINT value is out of range"
    | Cast.Lenient -> Value.Null
  in
  match (num_coerce ctx a, num_coerce ctx b) with
  | Value.Float x, v | v, Value.Float x ->
    let y =
      match v with
      | Value.Float f -> f
      | Value.Int i -> Int64.to_float i
      | Value.Dec d -> Decimal.to_float d
      | _ -> 0.0
    in
    let x', y' = (match (a, b) with
      | Value.Float _, _ -> (x, y)
      | _, _ -> (y, x))
    in
    (match op with
     | Ast.Add -> Value.Float (x' +. y')
     | Ast.Sub -> Value.Float (x' -. y')
     | Ast.Mul -> Value.Float (x' *. y')
     | Ast.Div ->
       if y' = 0.0 then
         (match strictness ctx with
          | Cast.Strict -> err "division by zero"
          | Cast.Lenient -> Value.Null)
       else Value.Float (x' /. y')
     | Ast.Mod ->
       if y' = 0.0 then Value.Null else Value.Float (Float.rem x' y')
     | _ -> err "bad float arithmetic operator")
  | Value.Int x, Value.Int y ->
    (match op with
     | Ast.Add ->
       (match Checked_int.add x y with
        | Some r -> Value.Int r
        | None ->
          (match strictness ctx with
           | Cast.Strict -> err "BIGINT value is out of range"
           | Cast.Lenient ->
             Value.Dec (Decimal.add (Decimal.of_int64 x) (Decimal.of_int64 y))))
     | Ast.Sub ->
       (match Checked_int.sub x y with
        | Some r -> Value.Int r
        | None ->
          (match strictness ctx with
           | Cast.Strict -> err "BIGINT value is out of range"
           | Cast.Lenient ->
             Value.Dec (Decimal.sub (Decimal.of_int64 x) (Decimal.of_int64 y))))
     | Ast.Mul ->
       (match Checked_int.mul x y with
        | Some r -> Value.Int r
        | None ->
          (match strictness ctx with
           | Cast.Strict -> err "BIGINT value is out of range"
           | Cast.Lenient ->
             Value.Dec (Decimal.mul (Decimal.of_int64 x) (Decimal.of_int64 y))))
     | Ast.Div ->
       if y = 0L then
         (match strictness ctx with
          | Cast.Strict -> err "division by zero"
          | Cast.Lenient -> Value.Null)
       else
         (match Decimal.div ~scale:4 (Decimal.of_int64 x) (Decimal.of_int64 y) with
          | Some q -> Value.Dec q
          | None -> fail_overflow ())
     | Ast.Mod ->
       if y = 0L then
         (match strictness ctx with
          | Cast.Strict -> err "division by zero"
          | Cast.Lenient -> Value.Null)
       else
         (match Checked_int.rem x y with
          | Some r -> Value.Int r
          | None -> Value.Int 0L)
     | _ -> err "bad integer arithmetic operator")
  | (Value.Dec _ | Value.Int _), (Value.Dec _ | Value.Int _) ->
    let dec_of = function
      | Value.Dec d -> d
      | Value.Int i -> Decimal.of_int64 i
      | _ -> Decimal.zero
    in
    let x = dec_of (num_coerce ctx a) and y = dec_of (num_coerce ctx b) in
    if Decimal.precision x + Decimal.precision y > 20_000 then
      err "numeric value too large for arithmetic";
    (match op with
     | Ast.Add -> Value.Dec (Decimal.add x y)
     | Ast.Sub -> Value.Dec (Decimal.sub x y)
     | Ast.Mul -> Value.Dec (Decimal.mul x y)
     | Ast.Div ->
       let scale = Stdlib.min 30 (Decimal.scale x + 4) in
       (match Decimal.div ~scale x y with
        | Some q -> Value.Dec q
        | None ->
          (match strictness ctx with
           | Cast.Strict -> err "division by zero"
           | Cast.Lenient -> Value.Null))
     | Ast.Mod ->
       if Decimal.is_zero y then
         (match strictness ctx with
          | Cast.Strict -> err "division by zero"
          | Cast.Lenient -> Value.Null)
       else
         (* x - trunc(x/y)*y *)
         (match Decimal.div ~scale:0 x y with
          | Some q -> Value.Dec (Decimal.sub x (Decimal.mul q y))
          | None -> Value.Null)
     | _ -> err "bad decimal arithmetic operator")
  | _, _ -> err "invalid operands for arithmetic"

let temporal_shift ctx dt iv sign =
  let iv = { iv with Calendar.amount = Int64.mul (Int64.of_int sign) iv.Calendar.amount } in
  match Calendar.add_interval dt iv with
  | Some r -> Value.Datetime r
  | None ->
    (match strictness ctx with
     | Cast.Strict -> err "datetime out of range"
     | Cast.Lenient -> Value.Null)

let datetime_of_value v =
  match v with
  | Value.Datetime dt -> Some dt
  | Value.Date date ->
    (match Calendar.make_time ~hour:0 ~minute:0 ~second:0 with
     | Some time -> Some { Calendar.date; time }
     | None -> None)
  | _ -> None

let bitop op a b =
  match op with
  | Ast.Bit_and -> Int64.logand a b
  | Ast.Bit_or -> Int64.logor a b
  | Ast.Bit_xor -> Int64.logxor a b
  | Ast.Shift_l -> if b < 0L || b > 63L then 0L else Int64.shift_left a (Int64.to_int b)
  | Ast.Shift_r ->
    if b < 0L || b > 63L then 0L
    else Int64.shift_right_logical a (Int64.to_int b)
  | _ -> 0L

(* three-valued logic *)
let truthiness = function
  | Value.Null -> None
  | Value.Bool b -> Some b
  | Value.Int i -> Some (i <> 0L)
  | Value.Float f -> Some (f <> 0.0)
  | Value.Dec d -> Some (not (Decimal.is_zero d))
  | Value.Str s -> Some (s <> "" && s <> "0")
  (* a multi-byte rope can neither be "" nor "0": no flatten needed *)
  | Value.Rope_str r ->
    Some (r.Value.rp_bytes > 1 || Value.rope_flatten r <> "0")
  | _ -> Some true

(* ----- node kernels: each expression node's rule over evaluated
   operands; [eval_expr] below owns evaluation order, ticks,
   provenance and profile frames ----- *)

let column_arg row qual name =
  match row with
  | None -> err "no FROM clause: unknown column %s" name
  | Some bindings ->
    let key =
      String.lowercase_ascii
        (match qual with Some q -> q ^ "." ^ name | None -> name)
    in
    (match
       List.find_opt (fun (n, _) -> String.lowercase_ascii n = key) bindings
     with
     | Some (_, v) -> { Fault.value = v; prov = Fault.Prov.Column }
     | None -> err "unknown column %s" name)

let cast_arg ctx (inner : Fault.arg) ty =
  if inner.Fault.prov = Fault.Prov.Star then err "cannot cast '*'";
  { Fault.value = Fn_ctx.cast_value ctx inner.Fault.value ty;
    prov = Fault.Prov.Cast }

let unop ctx op v =
  match op with
  | Ast.Neg ->
    (match v with
     | Value.Null -> Value.Null
     | Value.Int i ->
       (match Checked_int.neg i with
        | Some r -> Value.Int r
        | None -> Value.Dec (Decimal.neg (Decimal.of_int64 i)))
     | Value.Dec d -> Value.Dec (Decimal.neg d)
     | Value.Float f -> Value.Float (-.f)
     | v -> arith ctx Ast.Sub (Value.Int 0L) v)
  | Ast.Not ->
    (match truthiness v with
     | None -> Value.Null
     | Some b -> Value.Bool (not b))
  | Ast.Bit_not ->
    (match v with
     | Value.Null -> Value.Null
     | Value.Int i -> Value.Int (Int64.lognot i)
     | _ ->
       (match Fn_ctx.cast_value ctx v Ast.T_bigint with
        | Value.Int i -> Value.Int (Int64.lognot i)
        | _ -> err "bad operand for ~"))

let short_circuit op va =
  match op with
  | Ast.And -> truthiness va = Some false
  | Ast.Or -> truthiness va = Some true
  | _ -> false

let binop ctx op va vb =
  match op with
  | Ast.And ->
    (match (truthiness va, truthiness vb) with
     | Some x, Some y -> Value.Bool (x && y)
     | None, Some false | Some false, None -> Value.Bool false
     | _, _ -> Value.Null)
  | Ast.Or ->
    (match (truthiness va, truthiness vb) with
     | Some x, Some y -> Value.Bool (x || y)
     | None, Some true | Some true, None -> Value.Bool true
     | _, _ -> Value.Null)
  | _ when Value.is_null va || Value.is_null vb -> Value.Null
  | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    (match Value.compare_values va vb with
     | Some c ->
       Value.Bool
         (match op with
          | Ast.Eq -> c = 0
          | Ast.Neq -> c <> 0
          | Ast.Lt -> c < 0
          | Ast.Le -> c <= 0
          | Ast.Gt -> c > 0
          | _ -> c >= 0)
     | None ->
       err "cannot compare %s with %s"
         (Value.ty_name (Value.type_of va))
         (Value.ty_name (Value.type_of vb)))
  | Ast.Like ->
    Value.Bool (like_match ~pattern:(Value.to_display vb) (Value.to_display va))
  | Ast.Concat ->
    (match (Value.str_bytes va, Value.str_bytes vb) with
     | Some la, Some lb
       when ctx.Fn_ctx.compact && la + lb >= Value.Compact.min_str_bytes ->
       (* both operands are strings, so the byte total — and the cap
          check it feeds — is exactly the flat concatenation's; the
          result stays compact *)
       Fn_ctx.alloc_check ctx (la + lb);
       (match Value.rope_concat va vb with
        | Some v -> v
        | None -> assert false (* both operands are strings *))
     | _ ->
       let sa = Value.to_display va and sb = Value.to_display vb in
       Fn_ctx.alloc_check ctx (String.length sa + String.length sb);
       Value.Str (sa ^ sb))
  | Ast.Bit_and | Ast.Bit_or | Ast.Bit_xor | Ast.Shift_l | Ast.Shift_r ->
    let as_i v =
      match Fn_ctx.cast_value ctx v Ast.T_bigint with
      | Value.Int i -> i
      | _ -> err "bad operand for bit operation"
    in
    (* OCaml evaluates application arguments right to left: [vb] is cast
       first, which fixes the order of cast errors and coverage hits *)
    Value.Int (bitop op (as_i va) (as_i vb))
  | Ast.Add | Ast.Sub ->
    (* date/interval arithmetic first, then numerics *)
    (match (datetime_of_value va, vb, va, datetime_of_value vb) with
     | Some dt, Value.Interval iv, _, _ ->
       temporal_shift ctx dt iv (if op = Ast.Add then 1 else -1)
     | _, _, Value.Interval iv, Some dt when op = Ast.Add ->
       temporal_shift ctx dt iv 1
     | _ -> arith ctx op va vb)
  | Ast.Mul | Ast.Div | Ast.Mod -> arith ctx op va vb

let is_null ~negated v =
  let isnull = Value.is_null v in
  Value.Bool (if negated then not isnull else isnull)

let case_hit operand w =
  match operand with
  | Some v -> Value.equal v w
  | None -> truthiness w = Some true

let in_values v vals =
  let any_null = List.exists Value.is_null vals in
  if List.exists (fun u -> Value.equal u v) vals then Value.Bool true
  else if any_null then Value.Null
  else Value.Bool false

let between v lo hi =
  if Value.is_null v || Value.is_null lo || Value.is_null hi then Value.Null
  else
    match (Value.compare_values v lo, Value.compare_values v hi) with
    | Some c1, Some c2 -> Value.Bool (c1 >= 0 && c2 <= 0)
    | _, _ -> err "BETWEEN: incomparable types"

let scalar_of_rows rows =
  match rows with
  | [] -> Value.Null
  | [ v ] :: _ -> v
  | (_ :: _ :: _) :: _ -> err "scalar subquery returned more than one column"
  | [] :: _ -> err "scalar subquery returned no columns"

(* The first sixteen positional column names, built once: naming an
   unaliased projection allocates nothing below seventeen columns. *)
let positional_names = Array.init 16 (fun i -> Printf.sprintf "col%d" (i + 1))

let projection_name i = function
  | Ast.Proj_star -> "*"
  | Ast.Proj_expr (_, Some alias) -> alias
  | Ast.Proj_expr (Ast.Column (_, n), None) -> n
  | Ast.Proj_expr (_, None) ->
    if i < Array.length positional_names then positional_names.(i)
    else Printf.sprintf "col%d" (i + 1)

(* every function dispatch is an [eval] scope on its own spelling;
   nested calls in the argument list open their own scopes, so self-time
   pins to the function actually running. The one cached resolution
   carries the scope's stats record, the coverage cell and the fault
   specs, so a call hashes nothing past the resolve probe. *)
let enter_call profile fname resolved =
  match resolved with
  | Some r -> Registry.enter profile r
  | None -> Profile.enter_fn profile fname Profile.Eval

let apply_call ctx fname resolved distinct args =
  match resolved with
  | None ->
    (* DISTINCT on a non-aggregate (known or not) rejects first *)
    if distinct then err "%s does not accept DISTINCT" fname
    else err "unknown function %s" (String.uppercase_ascii fname)
  | Some r ->
    (match (Registry.spec r).Func_sig.kind with
     | Func_sig.Aggregate _ ->
       (* An aggregate without GROUP BY context: aggregate over a single
          conceptual row (SELECT COUNT(1) with no table). The executor
          handles grouped evaluation; reaching here means a bare SELECT.
          [aggregate] records the coverage point itself. *)
       let inst = Registry.aggregate ctx r ~distinct in
       inst.Func_sig.step args;
       { Fault.value = inst.Func_sig.final (); prov = Registry.prov r }
     | Func_sig.Scalar _ ->
       if distinct then err "%s does not accept DISTINCT" fname;
       { Fault.value = Registry.invoke ctx r args; prov = Registry.prov r })

(* ----- evaluation ----- *)

let rec eval_expr env ~row e : Fault.arg =
  Fn_ctx.tick env.ctx;
  let ret ?(prov = Fault.Prov.Operator) value = { Fault.value; prov } in
  match e with
  | Ast.Null -> ret ~prov:Fault.Prov.Literal Value.Null
  | Ast.Bool_lit b -> ret ~prov:Fault.Prov.Literal (Value.Bool b)
  | Ast.Int_lit s -> ret ~prov:Fault.Prov.Literal (value_of_int_lit s)
  | Ast.Dec_lit s -> ret ~prov:Fault.Prov.Literal (value_of_dec_lit s)
  | Ast.Str_lit s -> ret ~prov:Fault.Prov.Literal (Value.Str s)
  | Ast.Hex_lit b -> ret ~prov:Fault.Prov.Literal (Value.Blob b)
  | Ast.Star -> { Fault.value = Value.Null; prov = Fault.Prov.Star }
  | Ast.Column (qual, name) -> column_arg row qual name
  | Ast.Call { fname = "CONVERT"; args = [ e1; Ast.Column (None, ty) ]; distinct } ->
    (* CONVERT's second argument is a type keyword, not a column *)
    eval_call env ~row "CONVERT" [ e1; Ast.Str_lit ty ] distinct
  | Ast.Call { fname; args; distinct } -> eval_call env ~row fname args distinct
  | Ast.Cast (e1, ty) -> cast_arg env.ctx (eval_expr env ~row e1) ty
  | Ast.Unop (op, e1) -> ret (unop env.ctx op (eval_expr env ~row e1).Fault.value)
  | Ast.Binop (((Ast.And | Ast.Or) as op), a, b) ->
    let va = (eval_expr env ~row a).Fault.value in
    (* short-circuit where 3VL allows: the skipped side reads as NULL *)
    let vb =
      if short_circuit op va then Value.Null else (eval_expr env ~row b).Fault.value
    in
    ret (binop env.ctx op va vb)
  | Ast.Binop (op, a, b) ->
    let va = (eval_expr env ~row a).Fault.value in
    let vb = (eval_expr env ~row b).Fault.value in
    ret (binop env.ctx op va vb)
  | Ast.Row es ->
    ret (Value.Row (List.map (fun e -> (eval_expr env ~row e).Fault.value) es))
  | Ast.Array_lit es ->
    ret (Value.Arr (List.map (fun e -> (eval_expr env ~row e).Fault.value) es))
  | Ast.Case { operand; branches; else_ } ->
    let operand = Option.map (fun e -> (eval_expr env ~row e).Fault.value) operand in
    (* WHEN arms evaluate lazily, up to the first hit *)
    let rec pick = function
      | (w, t) :: rest ->
        if case_hit operand (eval_expr env ~row w).Fault.value then
          (eval_expr env ~row t).Fault.value
        else pick rest
      | [] ->
        (match else_ with
         | Some e1 -> (eval_expr env ~row e1).Fault.value
         | None -> Value.Null)
    in
    ret (pick branches)
  | Ast.In_list (e1, items) ->
    let v = (eval_expr env ~row e1).Fault.value in
    (* a NULL left side leaves the list unevaluated *)
    if Value.is_null v then ret Value.Null
    else
      ret
        (in_values v
           (List.concat_map
              (fun item ->
                match item with
                | Ast.Subquery q -> List.concat (exec_query env q).rows
                | _ -> [ (eval_expr env ~row item).Fault.value ])
              items))
  | Ast.Is_null (e1, negated) ->
    ret (is_null ~negated (eval_expr env ~row e1).Fault.value)
  | Ast.Between (e1, lo, hi) ->
    let v = (eval_expr env ~row e1).Fault.value in
    let lo_v = (eval_expr env ~row lo).Fault.value in
    let hi_v = (eval_expr env ~row hi).Fault.value in
    ret (between v lo_v hi_v)
  | Ast.Subquery q ->
    ret ~prov:Fault.Prov.Subquery (scalar_of_rows (exec_query env q).rows)
  | Ast.Exists q -> ret (Value.Bool ((exec_query env q).rows <> []))

(* match-with-exception instead of a [with_*] wrapper keeps the per-call
   path closure-free *)
and eval_call env ~row fname arg_exprs distinct =
  let resolved = Registry.resolve env.registry fname in
  enter_call env.profile fname resolved;
  match apply_call env.ctx fname resolved distinct (eval_args env ~row arg_exprs) with
  | v ->
    Profile.exit env.profile;
    v
  | exception e ->
    Profile.exit env.profile;
    raise e

(* left to right, as [List.map] does, without its closure *)
and eval_args env ~row = function
  | [] -> []
  | e :: rest ->
    let a = eval_expr env ~row e in
    a :: eval_args env ~row rest

(* ----- query execution ----- *)

(* A FROM source yields its binding keys (plain column names plus
   alias-qualified duplicates) and its rows. Keys are returned even for
   empty sources so LEFT JOINs can NULL-pad correctly. *)
and rows_of_from env (f : Ast.from) :
    string list * (string * Value.t) list list =
  let qualify alias cols =
    cols @ List.map (fun c -> alias ^ "." ^ c) cols
  in
  let bind keys row = List.combine keys (row @ row) in
  match f with
  | Ast.From_table (name, alias) ->
    (* table lookup + row materialization is storage work, once per
       FROM source *)
    Profile.with_phase env.profile Profile.Storage (fun () ->
        match Storage.find_table env.catalog name with
        | None -> err "no such table: %s" name
        | Some t ->
          let cols = List.map (fun c -> c.Storage.col_name) t.Storage.columns in
          let keys =
            qualify (match alias with Some a -> a | None -> name) cols
          in
          (keys, List.map (fun r -> bind keys r) t.Storage.rows))
  | Ast.From_subquery (q, alias) ->
    let rs = exec_query env q in
    let keys = qualify alias rs.columns in
    (keys, List.map (fun r -> bind keys r) rs.rows)
  | Ast.From_join { left; right; kind; on } ->
    let lkeys, lrows = rows_of_from env left in
    let rkeys, rrows = rows_of_from env right in
    let on_holds bindings =
      match on with
      | None -> true
      | Some cond ->
        truthiness (eval_expr env ~row:(Some bindings) cond).Fault.value
        = Some true
    in
    let keys = lkeys @ rkeys in
    let rows =
      match kind with
      | Ast.Cross ->
        List.concat_map
          (fun l ->
            List.map (fun r -> l @ r) rrows)
          lrows
      | Ast.Inner ->
        List.concat_map
          (fun l ->
            List.filter_map
              (fun r ->
                Fn_ctx.tick env.ctx;
                let combined = l @ r in
                if on_holds combined then Some combined else None)
              rrows)
          lrows
      | Ast.Left_outer ->
        let null_right = List.map (fun k -> (k, Value.Null)) rkeys in
        List.concat_map
          (fun l ->
            let matches =
              List.filter_map
                (fun r ->
                  Fn_ctx.tick env.ctx;
                  let combined = l @ r in
                  if on_holds combined then Some combined else None)
                rrows
            in
            if matches = [] then [ l @ null_right ] else matches)
          lrows
    in
    (keys, rows)

and source_rows env (sel : Ast.select) :
    (string * Value.t) list list option =
  (* None = no FROM clause (a single conceptual row with no bindings) *)
  match sel.Ast.from with
  | None -> None
  | Some f ->
    let _keys, rows = rows_of_from env f in
    Some rows

(* Collect top-level function calls without descending into subqueries:
   aggregates inside a scalar subquery belong to that subquery's own
   SELECT, not to the enclosing one. *)
and top_level_calls e : Ast.call list =
  let rec go acc e =
    match e with
    | Ast.Call c -> List.fold_left go (c :: acc) c.Ast.args
    | Ast.Cast (e1, _) | Ast.Unop (_, e1) | Ast.Is_null (e1, _) -> go acc e1
    | Ast.Binop (_, a, b) -> go (go acc a) b
    | Ast.Row es | Ast.Array_lit es -> List.fold_left go acc es
    | Ast.In_list (e1, es) -> List.fold_left go (go acc e1) es
    | Ast.Between (e1, lo, hi) -> go (go (go acc e1) lo) hi
    | Ast.Case { operand; branches; else_ } ->
      let acc = match operand with Some e1 -> go acc e1 | None -> acc in
      let acc = List.fold_left (fun acc (w, t) -> go (go acc w) t) acc branches in
      (match else_ with Some e1 -> go acc e1 | None -> acc)
    | Ast.Subquery _ | Ast.Exists _ -> acc
    | Ast.Null | Ast.Bool_lit _ | Ast.Int_lit _ | Ast.Dec_lit _ | Ast.Str_lit _
    | Ast.Hex_lit _ | Ast.Star | Ast.Column _ ->
      acc
  in
  List.rev (go [] e)

and contains_aggregate env e =
  List.exists
    (fun (c : Ast.call) -> Registry.is_aggregate env.registry c.Ast.fname)
    (top_level_calls e)

and select_exprs (sel : Ast.select) =
  List.filter_map
    (function Ast.Proj_star -> None | Ast.Proj_expr (e, _) -> Some e)
    sel.Ast.projection
  @ (match sel.Ast.having with Some e -> [ e ] | None -> [])

and exec_select env (sel : Ast.select) : result_set =
  Fn_ctx.tick env.ctx;
  let rows = source_rows env sel in
  (* WHERE filter *)
  let filtered =
    match rows with
    | None -> None
    | Some rs ->
      (match sel.Ast.where with
       | None -> Some rs
       | Some cond ->
         Some
           (List.filter
              (fun r ->
                truthiness (eval_expr env ~row:(Some r) cond).Fault.value
                = Some true)
              rs))
  in
  let needs_aggregation =
    sel.Ast.group_by <> [] || List.exists (contains_aggregate env) (select_exprs sel)
  in
  let proj_names = List.mapi projection_name sel.Ast.projection in
  let plain bindings =
    List.filter (fun (k, _) -> not (String.contains k '.')) bindings
  in
  let expand_star r =
    match r with
    | Some bindings -> List.map snd (plain bindings)
    | None -> err "SELECT * with no FROM clause"
  in
  let project_plain row =
    List.concat_map
      (fun item ->
        match item with
        | Ast.Proj_star -> expand_star row
        | Ast.Proj_expr (e, _) -> [ (eval_expr env ~row e).Fault.value ])
      sel.Ast.projection
  in
  let columns =
    List.concat_map
      (fun (item, name) ->
        match item with
        | Ast.Proj_star ->
          (match filtered with
           | Some (first :: _) -> List.map fst (plain first)
           | Some [] | None ->
             (* need source columns even when empty *)
             (match sel.Ast.from with
              | Some f ->
                let keys, _ = rows_of_from env f in
                List.filter (fun k -> not (String.contains k '.')) keys
              | None -> [ name ]))
        | Ast.Proj_expr _ -> [ name ])
      (List.combine sel.Ast.projection proj_names)
  in
  let result_rows =
    if not needs_aggregation then begin
      match filtered with
      | None -> [ project_plain None ]
      | Some rs -> List.map (fun r -> project_plain (Some r)) rs
    end
    else begin
      (* Aggregation path *)
      let rs = match filtered with None -> [ [] ] | Some rs -> rs in
      (* group rows *)
      let groups : ((string * Value.t) list list) list =
        if sel.Ast.group_by = [] then [ rs ]
        else begin
          let tbl = Hashtbl.create 16 in
          let order = ref [] in
          List.iter
            (fun r ->
              let key =
                String.concat "\x00"
                  (List.map
                     (fun e ->
                       Value.to_display (eval_expr env ~row:(Some r) e).Fault.value)
                     sel.Ast.group_by)
              in
              (match Hashtbl.find_opt tbl key with
               | Some rows_ref -> rows_ref := r :: !rows_ref
               | None ->
                 let rows_ref = ref [ r ] in
                 Hashtbl.add tbl key rows_ref;
                 order := key :: !order))
            rs;
          List.rev_map
            (fun key ->
              match Hashtbl.find_opt tbl key with
              | Some rows_ref -> List.rev !rows_ref
              | None -> [])
            !order
        end
      in
      (* For each group, compute each aggregate call's value, then evaluate
         projection/having with those calls bound. *)
      let agg_calls : Ast.call list =
        List.concat_map
          (fun e ->
            List.filter
              (fun (c : Ast.call) -> Registry.is_aggregate env.registry c.Ast.fname)
              (top_level_calls e))
          (select_exprs sel)
      in
      let eval_group group_rows =
        let bindings =
          List.map
            (fun (call : Ast.call) ->
              let inst =
                Registry.make_aggregate env.ctx env.registry call.Ast.fname
                  ~distinct:call.Ast.distinct
              in
              let step_row r =
                let args =
                  List.map (fun e -> eval_expr env ~row:r e) call.Ast.args
                in
                inst.Func_sig.step args
              in
              (match group_rows with
               | [] -> ()
               | rows ->
                 List.iter
                   (fun r ->
                     step_row (if r = [] then None else Some r))
                   rows);
              (call, inst.Func_sig.final ()))
            agg_calls
        in
        let rep_row =
          match group_rows with
          | r :: _ when r <> [] -> Some r
          | _ -> None
        in
        (bindings, rep_row)
      in
      (* substitute aggregate call results during evaluation via a rewritten
         expression: replace each aggregate Call node (by physical identity)
         with a precomputed literal-carrying node. We encode the computed
         value through a closure map checked in a custom traversal. *)
      let eval_with_aggs bindings rep_row e =
        let rec subst e =
          match e with
          | Ast.Call c when List.exists (fun (c', _) -> c' == c) bindings ->
            let _, v = List.find (fun (c', _) -> c' == c) bindings in
            value_to_literal v
          | Ast.Call c -> Ast.Call { c with args = List.map subst c.Ast.args }
          | Ast.Cast (e1, t) -> Ast.Cast (subst e1, t)
          | Ast.Unop (op, e1) -> Ast.Unop (op, subst e1)
          | Ast.Binop (op, x, y) -> Ast.Binop (op, subst x, subst y)
          | Ast.Row es -> Ast.Row (List.map subst es)
          | Ast.Array_lit es -> Ast.Array_lit (List.map subst es)
          | Ast.Case { operand; branches; else_ } ->
            Ast.Case
              {
                operand = Option.map subst operand;
                branches = List.map (fun (w, t) -> (subst w, subst t)) branches;
                else_ = Option.map subst else_;
              }
          | Ast.In_list (e1, es) -> Ast.In_list (subst e1, List.map subst es)
          | Ast.Is_null (e1, n) -> Ast.Is_null (subst e1, n)
          | Ast.Between (e1, lo, hi) -> Ast.Between (subst e1, subst lo, subst hi)
          | Ast.Null | Ast.Bool_lit _ | Ast.Int_lit _ | Ast.Dec_lit _
          | Ast.Str_lit _ | Ast.Hex_lit _ | Ast.Star | Ast.Column _
          | Ast.Subquery _ | Ast.Exists _ ->
            e
        in
        (eval_expr env ~row:rep_row (subst e)).Fault.value
      in
      List.filter_map
        (fun group_rows ->
          let bindings, rep_row = eval_group group_rows in
          (* HAVING *)
          let keep =
            match sel.Ast.having with
            | None -> true
            | Some h -> truthiness (eval_with_aggs bindings rep_row h) = Some true
          in
          if not keep then None
          else
            Some
              (List.concat_map
                 (fun item ->
                   match item with
                   | Ast.Proj_star -> expand_star rep_row
                   | Ast.Proj_expr (e, _) ->
                     [ eval_with_aggs bindings rep_row e ])
                 sel.Ast.projection))
        groups
    end
  in
  let result_rows =
    if sel.Ast.sel_distinct then begin
      let seen = Hashtbl.create 16 in
      List.filter
        (fun r ->
          let key = String.concat "\x00" (List.map Value.to_display r) in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        result_rows
    end
    else result_rows
  in
  { columns; rows = result_rows }

(* Re-encode a computed value as a literal expression for substitution in
   the aggregation path. Values without a literal form ride through an
   internal wrapper handled in eval (we use a Str_lit escape for display
   types; containers are rebuilt element-wise). *)
and value_to_literal (v : Value.t) : Ast.expr =
  match v with
  | Value.Null -> Ast.Null
  | Value.Bool b -> Ast.Bool_lit b
  | Value.Int i -> Ast.Int_lit (Int64.to_string i)
  | Value.Dec d -> Ast.Dec_lit (Decimal.to_string d)
  | Value.Float f -> Ast.Dec_lit (Printf.sprintf "%.17g" f)
  | Value.Str s -> Ast.Str_lit s
  | Value.Blob b -> Ast.Hex_lit b
  | Value.Arr vs -> Ast.Array_lit (List.map value_to_literal vs)
  | Value.Row vs -> Ast.Row (List.map value_to_literal vs)
  | Value.Json j -> Ast.Cast (Ast.Str_lit (Json.to_string j), Ast.T_json)
  | Value.Date d -> Ast.Cast (Ast.Str_lit (Calendar.date_to_string d), Ast.T_date)
  | Value.Time t -> Ast.Cast (Ast.Str_lit (Calendar.time_to_string t), Ast.T_time)
  | Value.Datetime dt ->
    Ast.Cast (Ast.Str_lit (Calendar.datetime_to_string dt), Ast.T_datetime)
  | Value.Interval { Calendar.amount; unit_ } ->
    Ast.call "INTERVAL_LIT"
      [ Ast.Int_lit (Int64.to_string amount);
        Ast.Str_lit (Calendar.unit_to_string unit_) ]
  | Value.Inet a -> Ast.Cast (Ast.Str_lit (Inet.to_string a), Ast.T_inet)
  | Value.Uuid u -> Ast.Cast (Ast.Str_lit u, Ast.T_uuid)
  | Value.Geom g -> Ast.Cast (Ast.Str_lit (Geometry.to_wkt g), Ast.T_geometry)
  | Value.Xml nodes -> Ast.Cast (Ast.Str_lit (Xml_doc.to_string nodes), Ast.T_xml)
  | Value.Map kvs ->
    (* rebuild through MAP_FROM_ARRAYS to preserve structure *)
    Ast.call "MAP_FROM_ARRAYS"
      [ Ast.Array_lit (List.map (fun (k, _) -> value_to_literal k) kvs);
        Ast.Array_lit (List.map (fun (_, v) -> value_to_literal v) kvs) ]
  | Value.Range_arr _ | Value.Rope_str _ -> value_to_literal (Value.view v)

and exec_body env (body : Ast.body) : result_set =
  match body with
  | Ast.Body_select sel -> exec_select env sel
  | Ast.Body_union { all; left; right } ->
    let l = exec_body env left in
    let r = exec_body env right in
    if List.length l.columns <> List.length r.columns then
      err "UNION operands have different column counts";
    (* UNION's implicit cast: the right side is coerced to the left side's
       value types (the paper's P2.2 source). *)
    let target_types =
      match l.rows with
      | first :: _ -> List.map Value.type_of first
      | [] ->
        (match r.rows with
         | first :: _ -> List.map Value.type_of first
         | [] -> [])
    in
    let coerce_row row =
      if target_types = [] then row
      else
        List.map2
          (fun v target ->
            if Value.is_null v || Value.type_of v = target then v
            else begin
              let ty =
                match target with
                | Value.Ty_bool -> Some Ast.T_bool
                | Value.Ty_int -> Some Ast.T_bigint
                | Value.Ty_dec -> Some (Ast.T_decimal None)
                | Value.Ty_float -> Some Ast.T_double
                | Value.Ty_str -> Some Ast.T_text
                | Value.Ty_blob -> Some Ast.T_blob
                | Value.Ty_date -> Some Ast.T_date
                | Value.Ty_time -> Some Ast.T_time
                | Value.Ty_datetime -> Some Ast.T_datetime
                | Value.Ty_json -> Some Ast.T_json
                | Value.Ty_array -> Some (Ast.T_array_t Ast.T_text)
                | Value.Ty_inet -> Some Ast.T_inet
                | Value.Ty_uuid -> Some Ast.T_uuid
                | Value.Ty_geometry -> Some Ast.T_geometry
                | Value.Ty_xml -> Some Ast.T_xml
                | Value.Ty_null | Value.Ty_interval | Value.Ty_map
                | Value.Ty_row ->
                  None
              in
              match ty with
              | Some t ->
                (match Cast.cast ~cov:env.ctx.Fn_ctx.cov env.ctx.Fn_ctx.cast_cfg v t with
                 | Ok v' -> v'
                 | Error (Cast.Depth_blown _) -> raise Stack_overflow
                 | Error _ -> v)
              | None -> v
            end)
          row target_types
    in
    let merged = l.rows @ List.map coerce_row r.rows in
    let final_rows =
      if all then merged
      else begin
        let seen = Hashtbl.create 16 in
        List.filter
          (fun row ->
            let key = String.concat "\x00" (List.map Value.to_display row) in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              true
            end)
          merged
      end
    in
    { columns = l.columns; rows = final_rows }

and exec_query env (q : Ast.query) : result_set =
  let rs = exec_body env q.Ast.body in
  let rs =
    match q.Ast.order_by with
    | [] -> rs
    | items ->
      let key_index { Ast.ord_expr; _ } =
        match ord_expr with
        | Ast.Int_lit s ->
          (match int_of_string_opt s with
           | Some i when i >= 1 && i <= List.length rs.columns -> i - 1
           | Some _ | None -> err "ORDER BY position out of range")
        | Ast.Column (_, name) ->
          let key = String.lowercase_ascii name in
          let rec find i = function
            | [] -> err "ORDER BY: unknown column %s" name
            | c :: rest ->
              if String.lowercase_ascii c = key then i else find (i + 1) rest
          in
          find 0 rs.columns
        | _ -> err "ORDER BY supports column names and positions"
      in
      let keys = List.map (fun item -> (key_index item, item.Ast.asc)) items in
      let cmp r1 r2 =
        let rec go = function
          | [] -> 0
          | (idx, asc) :: rest ->
            let v1 = List.nth r1 idx and v2 = List.nth r2 idx in
            let c =
              match (Value.is_null v1, Value.is_null v2) with
              | true, true -> 0
              | true, false -> -1
              | false, true -> 1
              | false, false ->
                (match Value.compare_values v1 v2 with
                 | Some c -> c
                 | None ->
                   String.compare (Value.to_display v1) (Value.to_display v2))
            in
            if c <> 0 then if asc then c else -c else go rest
        in
        go keys
      in
      { rs with rows = List.stable_sort cmp rs.rows }
  in
  match q.Ast.limit with
  | None -> rs
  | Some n ->
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    { rs with rows = take (Stdlib.max 0 n) rs.rows }

(* ----- logical plan rendering for EXPLAIN ----- *)

let rec plan_of_from pad (f : Ast.from) =
  match f with
  | Ast.From_table (t, alias) ->
    [ Printf.sprintf "%sScan %s%s" pad t
        (match alias with Some a -> " AS " ^ a | None -> "") ]
  | Ast.From_subquery (q, alias) ->
    (Printf.sprintf "%sSubquery AS %s" pad alias) :: plan_of_query (pad ^ "  ") q
  | Ast.From_join { left; right; kind; on } ->
    let kind_str =
      match kind with
      | Ast.Inner -> "inner"
      | Ast.Left_outer -> "left outer"
      | Ast.Cross -> "cross"
    in
    (Printf.sprintf "%sJoin (%s)%s" pad kind_str
       (match on with Some e -> " on " ^ Sql_pp.expr e | None -> ""))
    :: (plan_of_from (pad ^ "  ") left @ plan_of_from (pad ^ "  ") right)

and plan_of_select pad (sel : Ast.select) =
  let projection =
    String.concat ", " (List.map Sql_pp.proj_item sel.Ast.projection)
  in
  [ Printf.sprintf "%sProject %s%s" pad projection
      (if sel.Ast.sel_distinct then " (distinct)" else "") ]
  @ (match sel.Ast.having with
     | Some e -> [ Printf.sprintf "%s  Having %s" pad (Sql_pp.expr e) ]
     | None -> [])
  @ (match sel.Ast.group_by with
     | [] -> []
     | es ->
       [ Printf.sprintf "%s  Aggregate by %s" pad
           (String.concat ", " (List.map Sql_pp.expr es)) ])
  @ (match sel.Ast.where with
     | Some e -> [ Printf.sprintf "%s  Filter %s" pad (Sql_pp.expr e) ]
     | None -> [])
  @ (match sel.Ast.from with
     | Some f -> plan_of_from (pad ^ "  ") f
     | None -> [ pad ^ "  (no input)" ])

and plan_of_body pad = function
  | Ast.Body_select sel -> plan_of_select pad sel
  | Ast.Body_union { all; left; right } ->
    (Printf.sprintf "%sUnion%s" pad (if all then " all" else " distinct"))
    :: (plan_of_body (pad ^ "  ") left @ plan_of_body (pad ^ "  ") right)

and plan_of_query pad (q : Ast.query) =
  plan_of_body pad q.Ast.body
  @ (match q.Ast.order_by with
     | [] -> []
     | items ->
       [ Printf.sprintf "%sSort %s" pad
           (String.concat ", "
              (List.map
                 (fun { Ast.ord_expr; asc } ->
                   Sql_pp.expr ord_expr ^ if asc then "" else " DESC")
                 items)) ])
  @ (match q.Ast.limit with
     | Some n -> [ Printf.sprintf "%sLimit %d" pad n ]
     | None -> [])

let rec plan_of_stmt (stmt : Ast.stmt) : string list =
  match stmt with
  | Ast.Select_stmt q -> plan_of_query "" q
  | Ast.Create_table { tbl_name; columns; _ } ->
    [ Printf.sprintf "CreateTable %s (%d columns)" tbl_name (List.length columns) ]
  | Ast.Insert { ins_table; rows; _ } ->
    [ Printf.sprintf "Insert %d row(s) into %s" (List.length rows) ins_table ]
  | Ast.Drop_table { drop_name; _ } -> [ "DropTable " ^ drop_name ]
  | Ast.Explain inner -> "Explain" :: List.map (fun l -> "  " ^ l) (plan_of_stmt inner)

(* ----- occurrence-stage fault sites ----- *)

(* Parse-stage analysis of a DDL/DML statement. The fault arguments are
   what the scanner/analyzer of a real server works on before any
   evaluation: the statement's literal tokens (their spelling, [Literal]
   provenance) and its declared decimal precisions ([Cast] provenance).
   SELECT and EXPLAIN never reach this — their injected faults live at
   the execute stage inside function implementations, which keeps the
   historical stateless stream byte-identical. *)
let parse_stage_args stmt =
  let args =
    Ast_util.fold_stmt_exprs
      (fun acc e ->
        match e with
        | Ast.Int_lit s | Ast.Dec_lit s | Ast.Str_lit s ->
          { Fault.value = Value.Str s; prov = Fault.Prov.Literal } :: acc
        | _ -> acc)
      [] stmt
  in
  match stmt with
  | Ast.Create_table { columns; _ } ->
    List.fold_left
      (fun acc (c : Ast.column_def) ->
        match c.Ast.col_type with
        | Ast.T_decimal (Some (p, _)) ->
          { Fault.value = Value.Int (Int64.of_int p); prov = Fault.Prov.Cast }
          :: acc
        | _ -> acc)
      args columns
  | _ -> args

let parse_stage_check env stmt =
  match stmt with
  | Ast.Select_stmt _ | Ast.Explain _ -> ()
  | Ast.Create_table _ | Ast.Insert _ | Ast.Drop_table _ ->
    Profile.enter env.profile Profile.Parse;
    (match
       Fault.check_at env.ctx.Fn_ctx.fault ~stage:Fault.Parse ~func:"@PARSE"
         (parse_stage_args stmt)
     with
     | () -> Profile.exit env.profile
     | exception e ->
       Profile.exit env.profile;
       raise e)

(* Storage-stage check on a fully cast row, at the moment it is handed
   to the storage layer — the simulated row serializer / page writer. *)
let storage_stage_check env cast_row =
  Fault.check_at env.ctx.Fn_ctx.fault ~stage:Fault.Storage ~func:"@INSERT"
    (List.map (fun v -> { Fault.value = v; prov = Fault.Prov.Column }) cast_row)

(* INSERT: evaluate, default and cast each row, then hand it to storage *)
let exec_insert env ins_table ins_columns rows =
  match Storage.find_table env.catalog ins_table with
  | None -> err "no such table: %s" ins_table
  | Some t ->
    let ncols = List.length t.Storage.columns in
    let insert_one row_exprs =
      Fn_ctx.tick env.ctx;
      let provided =
        List.map (fun e -> (eval_expr env ~row:None e).Fault.value) row_exprs
      in
      let full_row =
        if ins_columns = [] then begin
          if List.length provided <> ncols then
            err "INSERT has %d values but table %s has %d columns"
              (List.length provided) ins_table ncols;
          provided
        end
        else begin
          if List.length provided <> List.length ins_columns then
            err "INSERT column/value count mismatch";
          List.map
            (fun col ->
              let rec find cs vs =
                match (cs, vs) with
                | c :: _, v :: _
                  when String.lowercase_ascii c
                       = String.lowercase_ascii col.Storage.col_name ->
                  Some v
                | _ :: cs', _ :: vs' -> find cs' vs'
                | _, _ -> None
              in
              match find ins_columns provided with
              | Some v -> v
              | None ->
                (match col.Storage.col_default with
                 | Some e -> (eval_expr env ~row:None e).Fault.value
                 | None -> Value.Null))
            t.Storage.columns
        end
      in
      (* cast every value to its column type (the engine's own implicit
         casting — this is where INSERT-time boundary castings land) *)
      let cast_row =
        List.map2
          (fun col v ->
            if Value.is_null v then begin
              if col.Storage.col_not_null then
                err "column %s cannot be NULL" col.Storage.col_name;
              v
            end
            else Fn_ctx.cast_value env.ctx v col.Storage.col_type)
          t.Storage.columns full_row
      in
      storage_stage_check env cast_row;
      Storage.append_row t cast_row
    in
    List.iter insert_one rows;
    env.ctx.Fn_ctx.row_count <- List.length rows;
    env.ctx.Fn_ctx.last_insert_id <-
      Int64.add env.ctx.Fn_ctx.last_insert_id (Int64.of_int (List.length rows));
    Affected (List.length rows)

let exec_stmt env (stmt : Ast.stmt) : outcome =
  parse_stage_check env stmt;
  match stmt with
  | Ast.Explain inner ->
    (* EXPLAIN renders the plan without executing: pure [plan] time *)
    Profile.enter env.profile Profile.Plan;
    (match plan_of_stmt inner with
     | lines ->
       Profile.exit env.profile;
       Rows
         { columns = [ "plan" ];
           rows = List.map (fun line -> [ Value.Str line ]) lines }
     | exception e ->
       Profile.exit env.profile;
       raise e)
  | Ast.Select_stmt q ->
    (* the whole query round-trip is [eval]; storage scans and function
       dispatches inside open their own scopes and take their share *)
    Profile.enter env.profile Profile.Eval;
    (match exec_query env q with
     | rs ->
       Profile.exit env.profile;
       Rows rs
     | exception e ->
       Profile.exit env.profile;
       raise e)
  | Ast.Create_table { tbl_name; columns; if_not_exists } ->
    let cols =
      List.map
        (fun (c : Ast.column_def) ->
          {
            Storage.col_name = c.Ast.col_name;
            col_type = c.Ast.col_type;
            col_not_null = c.Ast.col_not_null;
            col_default = c.Ast.col_default;
          })
        columns
    in
    (match Storage.create_table env.catalog ~name:tbl_name ~columns:cols ~if_not_exists with
     | Ok () -> Affected 0
     | Error msg -> err "%s" msg)
  | Ast.Insert { ins_table; ins_columns; rows } ->
    Profile.enter env.profile Profile.Storage;
    (match exec_insert env ins_table ins_columns rows with
     | v ->
       Profile.exit env.profile;
       v
     | exception e ->
       Profile.exit env.profile;
       raise e)
  | Ast.Drop_table { drop_name; if_exists } ->
    (match Storage.drop_table env.catalog ~name:drop_name ~if_exists with
     | Ok () -> Affected 0
     | Error msg -> err "%s" msg)
