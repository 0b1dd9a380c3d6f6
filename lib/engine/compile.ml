(* Closure compilation of SOFT case statements.

   A SOFT case family shares one statement skeleton and varies only the
   boundary-literal leaves (Patterns.with_arg / literal_arg_variants).
   [compile] lowers a family's skeleton once, at the start of its
   batch, into a tree of closures with *argument slots* at those
   literal positions; per case the detector then fills a reused slot
   buffer (Ast_util.fold_slots) and runs the closure — no AST re-walk,
   no per-node dispatch. The plan dies with its batch.

   A slot holds the literal AST node itself (one of the six literal
   constructors), not just a payload string: boundary-argument sets mix
   NULL, integers, strings and hex blobs at one position, and carrying
   the node lets all of them share a single compiled plan — the slot
   closure dispatches on the constructor at run time, which is one
   match against six immediate tags.

   Soundness contract: a compiled node must be observably identical to
   Interp.eval_expr on the same node — same value, same provenance, same
   Fn_ctx.tick count and costs, same Coverage points/branches, same
   fault checks, same Profile frames, and the same exceptions in the
   same order. Slot payloads are parsed at *execution* time (exactly
   where the interpreter parses them), so a malformed literal raises at
   the same point in the same order. Anything outside the supported
   shape — FROM clauses, WHERE, grouping, DISTINCT, ORDER BY/LIMIT,
   star projections, aggregates — compiles to [Fallback] and keeps
   going through the interpreter. *)

open Sqlfun_value
open Sqlfun_fault
open Sqlfun_functions
open Sqlfun_ast
module Profile = Sqlfun_telemetry.Profile

type cexpr = Interp.env -> Ast.expr array -> Fault.arg

type plan = {
  n_slots : int;
  columns : string list;
  projs : cexpr array;
}

type compiled = Plan of plan | Fallback

let n_slots plan = plan.n_slots

let err fmt = Printf.ksprintf (fun msg -> raise (Fn_ctx.Sql_error msg)) fmt

(* In_list items: subquery items run the interpreter's exec_query (the
   interpreter does not tick them as expressions); value items are
   compiled closures. *)
type citem = CQuery of Ast.query | CVal of cexpr

let rec compile_expr ~registry ~slot (e : Ast.expr) : cexpr =
  match e with
  | Ast.Null | Ast.Bool_lit _ | Ast.Int_lit _ | Ast.Dec_lit _ | Ast.Str_lit _
  | Ast.Hex_lit _ ->
    (* a slot: the case's literal node is dispatched at execution time,
       parsing payloads exactly where the interpreter would *)
    let i = take_slot slot in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let value =
        match Array.unsafe_get slots i with
        | Ast.Null -> Value.Null
        | Ast.Bool_lit b -> Value.Bool b
        | Ast.Int_lit s -> Interp.value_of_int_lit s
        | Ast.Dec_lit s -> Interp.value_of_dec_lit s
        | Ast.Str_lit s -> Value.Str s
        | Ast.Hex_lit b -> Value.Blob b
        | _ -> assert false (* fold_slots only yields literal leaves *)
      in
      { Fault.value; prov = Fault.Prov.Literal }
  | Ast.Star ->
    let r = { Fault.value = Value.Null; prov = Fault.Prov.Star } in
    fun env _ ->
      Fn_ctx.tick env.Interp.ctx;
      r
  | Ast.Column (_, name) ->
    (* supported shapes have no FROM clause, so row is always absent *)
    fun env _ ->
      Fn_ctx.tick env.Interp.ctx;
      err "no FROM clause: unknown column %s" name
  | Ast.Call { fname = "CONVERT"; args = [ e1; Ast.Column (None, ty) ]; distinct }
    ->
    (* CONVERT's second argument is a type keyword, not a column; the
       keyword is part of the skeleton, so it compiles to a constant
       literal node (mirroring the interpreter's Str_lit rewrite). *)
    let ca = compile_expr ~registry ~slot e1 in
    let ty_const =
      let r = { Fault.value = Value.Str ty; prov = Fault.Prov.Literal } in
      fun env _ ->
        Fn_ctx.tick env.Interp.ctx;
        r
    in
    compile_call ~registry "CONVERT" [| ca; ty_const |] distinct
  | Ast.Call { fname; args; distinct } ->
    let cargs =
      Array.of_list (List.map (compile_expr ~registry ~slot) args)
    in
    compile_call ~registry fname cargs distinct
  | Ast.Cast (e1, ty) ->
    let ce = compile_expr ~registry ~slot e1 in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let inner = ce env slots in
      if inner.Fault.prov = Fault.Prov.Star then err "cannot cast '*'";
      { Fault.value = Fn_ctx.cast_value env.Interp.ctx inner.Fault.value ty;
        prov = Fault.Prov.Cast }
  | Ast.Unop (Ast.Neg, e1) ->
    let ce = compile_expr ~registry ~slot e1 in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      (match (ce env slots).Fault.value with
       | Value.Null -> ret Value.Null
       | Value.Int i ->
         (match Sqlfun_num.Checked_int.neg i with
          | Some r -> ret (Value.Int r)
          | None ->
            ret
              (Value.Dec
                 (Sqlfun_num.Decimal.neg (Sqlfun_num.Decimal.of_int64 i))))
       | Value.Dec d -> ret (Value.Dec (Sqlfun_num.Decimal.neg d))
       | Value.Float f -> ret (Value.Float (-.f))
       | v -> ret (Interp.arith env.Interp.ctx Ast.Sub (Value.Int 0L) v))
  | Ast.Unop (Ast.Not, e1) ->
    let ce = compile_expr ~registry ~slot e1 in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      (match Interp.truthiness (ce env slots).Fault.value with
       | None -> ret Value.Null
       | Some b -> ret (Value.Bool (not b)))
  | Ast.Unop (Ast.Bit_not, e1) ->
    let ce = compile_expr ~registry ~slot e1 in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      (match (ce env slots).Fault.value with
       | Value.Null -> ret Value.Null
       | Value.Int i -> ret (Value.Int (Int64.lognot i))
       | v ->
         (match Fn_ctx.cast_value env.Interp.ctx v Ast.T_bigint with
          | Value.Int i -> ret (Value.Int (Int64.lognot i))
          | _ -> err "bad operand for ~"))
  | Ast.Binop (op, a, b) ->
    let ca = compile_expr ~registry ~slot a in
    let cb = compile_expr ~registry ~slot b in
    compile_binop op ca cb
  | Ast.Row es ->
    let ces =
      Array.of_list (List.map (compile_expr ~registry ~slot) es)
    in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      ret (Value.Row (eval_values ces env slots 0))
  | Ast.Array_lit es ->
    let ces =
      Array.of_list (List.map (compile_expr ~registry ~slot) es)
    in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      ret (Value.Arr (eval_values ces env slots 0))
  | Ast.Case { operand; branches; else_ } ->
    let coperand = Option.map (compile_expr ~registry ~slot) operand in
    let cbranches =
      Array.of_list
        (List.map
           (fun (w, t) ->
             let cw = compile_expr ~registry ~slot w in
             (cw, compile_expr ~registry ~slot t))
           branches)
    in
    let celse = Option.map (compile_expr ~registry ~slot) else_ in
    let nb = Array.length cbranches in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let rec first_match pred i =
        if i >= nb then None
        else begin
          let cw, ct = Array.unsafe_get cbranches i in
          if pred (cw env slots).Fault.value then Some ct
          else first_match pred (i + 1)
        end
      in
      let matched =
        match coperand with
        | Some cop ->
          let v = (cop env slots).Fault.value in
          first_match (fun w -> Value.equal v w) 0
        | None ->
          first_match (fun w -> Interp.truthiness w = Some true) 0
      in
      (match matched with
       | Some ct -> ret (ct env slots).Fault.value
       | None ->
         (match celse with
          | Some ce -> ret (ce env slots).Fault.value
          | None -> ret Value.Null))
  | Ast.In_list (e1, items) ->
    let ce = compile_expr ~registry ~slot e1 in
    let citems =
      List.map
        (fun item ->
          match item with
          | Ast.Subquery q -> CQuery q
          | _ -> CVal (compile_expr ~registry ~slot item))
        items
    in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let v = (ce env slots).Fault.value in
      if Value.is_null v then ret Value.Null
      else begin
        let vals =
          List.concat_map
            (fun item ->
              match item with
              | CQuery q ->
                let rs = Interp.exec_query env q in
                List.concat_map (fun r -> r) rs.Interp.rows
              | CVal ci -> [ (ci env slots).Fault.value ])
            citems
        in
        let any_null = List.exists Value.is_null vals in
        if List.exists (fun u -> Value.equal u v) vals then
          ret (Value.Bool true)
        else if any_null then ret Value.Null
        else ret (Value.Bool false)
      end
  | Ast.Is_null (e1, negated) ->
    let ce = compile_expr ~registry ~slot e1 in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let isnull = Value.is_null (ce env slots).Fault.value in
      ret (Value.Bool (if negated then not isnull else isnull))
  | Ast.Between (e1, lo, hi) ->
    let ce = compile_expr ~registry ~slot e1 in
    let clo = compile_expr ~registry ~slot lo in
    let chi = compile_expr ~registry ~slot hi in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let v = (ce env slots).Fault.value in
      let lo_v = (clo env slots).Fault.value in
      let hi_v = (chi env slots).Fault.value in
      if Value.is_null v || Value.is_null lo_v || Value.is_null hi_v then
        ret Value.Null
      else
        (match (Value.compare_values v lo_v, Value.compare_values v hi_v) with
         | Some c1, Some c2 -> ret (Value.Bool (c1 >= 0 && c2 <= 0))
         | _, _ -> err "BETWEEN: incomparable types")
  | Ast.Subquery q ->
    fun env _ ->
      Fn_ctx.tick env.Interp.ctx;
      let rs = Interp.exec_query env q in
      (match rs.Interp.rows with
       | [] -> { Fault.value = Value.Null; prov = Fault.Prov.Subquery }
       | [ v ] :: _ -> { Fault.value = v; prov = Fault.Prov.Subquery }
       | (_ :: _ :: _) :: _ -> err "scalar subquery returned more than one column"
       | [] :: _ -> err "scalar subquery returned no columns")
  | Ast.Exists q ->
    fun env _ ->
      Fn_ctx.tick env.Interp.ctx;
      let rs = Interp.exec_query env q in
      ret (Value.Bool (rs.Interp.rows <> []))

and take_slot slot =
  let i = !slot in
  slot := i + 1;
  i

and ret value = { Fault.value; prov = Fault.Prov.Operator }

(* Left-to-right argument evaluation into a list, from index [i], without
   the List.map closure of the interpreter's hot path. *)
and eval_args (cargs : cexpr array) env slots i =
  if i = Array.length cargs then []
  else begin
    let a = (Array.unsafe_get cargs i) env slots in
    let rest = eval_args cargs env slots (i + 1) in
    a :: rest
  end

and eval_values (ces : cexpr array) env slots i =
  if i = Array.length ces then []
  else begin
    let v = ((Array.unsafe_get ces i) env slots).Fault.value in
    let rest = eval_values ces env slots (i + 1) in
    v :: rest
  end

and compile_call ~registry fname (cargs : cexpr array) distinct : cexpr =
  (* the registry mapping is per dialect profile and identical across
     engine restarts, so the function is resolved at compile time; the
     resolution carries the per-call constants and the engine's
     instrumentation handles, so the per-call path allocates none of
     them and hashes nothing *)
  let resolved = Registry.resolve registry fname in
  let body : Interp.env -> Ast.expr array -> Fault.arg =
    match resolved with
    | Some r ->
      let prov = Registry.prov r in
      (match (Registry.spec r).Func_sig.kind with
       | Func_sig.Scalar _ when not distinct ->
         fun env slots ->
           let args = eval_args cargs env slots 0 in
           { Fault.value = Registry.invoke env.Interp.ctx r args; prov }
       | Func_sig.Aggregate _ ->
         (* bare-SELECT aggregate over one conceptual row, as in the
            interpreter *)
         fun env slots ->
           let args = eval_args cargs env slots 0 in
           let inst = Registry.aggregate env.Interp.ctx r ~distinct in
           inst.Func_sig.step args;
           { Fault.value = inst.Func_sig.final (); prov }
       | Func_sig.Scalar _ ->
         (* DISTINCT on a scalar errors at runtime *after* argument
            evaluation, in interpreter order *)
         fun env slots ->
           ignore (eval_args cargs env slots 0);
           err "%s does not accept DISTINCT" fname)
    | None ->
      fun env slots ->
        ignore (eval_args cargs env slots 0);
        if distinct then err "%s does not accept DISTINCT" fname
        else err "unknown function %s" (String.uppercase_ascii fname)
  in
  fun env slots ->
    Fn_ctx.tick env.Interp.ctx;
    (match resolved with
     | Some r -> Registry.enter env.Interp.profile r
     | None -> Profile.enter_fn env.Interp.profile fname Profile.Eval);
    (match body env slots with
     | r ->
       Profile.exit env.Interp.profile;
       r
     | exception e ->
       Profile.exit env.Interp.profile;
       raise e)

and compile_binop op (ca : cexpr) (cb : cexpr) : cexpr =
  match op with
  | Ast.And ->
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      (match Interp.truthiness (ca env slots).Fault.value with
       | Some false -> ret (Value.Bool false)
       | va ->
         (match (va, Interp.truthiness (cb env slots).Fault.value) with
          | Some x, Some y -> ret (Value.Bool (x && y))
          | None, Some false | Some false, None -> ret (Value.Bool false)
          | _, _ -> ret Value.Null))
  | Ast.Or ->
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      (match Interp.truthiness (ca env slots).Fault.value with
       | Some true -> ret (Value.Bool true)
       | va ->
         (match (va, Interp.truthiness (cb env slots).Fault.value) with
          | Some x, Some y -> ret (Value.Bool (x || y))
          | None, Some true | Some true, None -> ret (Value.Bool true)
          | _, _ -> ret Value.Null))
  | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    let decide =
      match op with
      | Ast.Eq -> fun c -> c = 0
      | Ast.Neq -> fun c -> c <> 0
      | Ast.Lt -> fun c -> c < 0
      | Ast.Le -> fun c -> c <= 0
      | Ast.Gt -> fun c -> c > 0
      | _ -> fun c -> c >= 0
    in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let va = (ca env slots).Fault.value in
      let vb = (cb env slots).Fault.value in
      if Value.is_null va || Value.is_null vb then ret Value.Null
      else
        (match Value.compare_values va vb with
         | Some c -> ret (Value.Bool (decide c))
         | None ->
           err "cannot compare %s with %s"
             (Value.ty_name (Value.type_of va))
             (Value.ty_name (Value.type_of vb)))
  | Ast.Like ->
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let va = (ca env slots).Fault.value in
      let vb = (cb env slots).Fault.value in
      if Value.is_null va || Value.is_null vb then ret Value.Null
      else
        ret
          (Value.Bool
             (Interp.like_match ~pattern:(Value.to_display vb)
                (Value.to_display va)))
  | Ast.Concat ->
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let va = (ca env slots).Fault.value in
      let vb = (cb env slots).Fault.value in
      if Value.is_null va || Value.is_null vb then ret Value.Null
      else begin
        (* mirror of the interpreter's Concat, compact fast path included *)
        match (Value.str_bytes va, Value.str_bytes vb) with
        | Some la, Some lb
          when env.Interp.ctx.Fn_ctx.compact
               && la + lb >= Value.Compact.min_str_bytes ->
          Fn_ctx.alloc_check env.Interp.ctx (la + lb);
          (match Value.rope_concat va vb with
           | Some v -> ret v
           | None -> assert false (* both operands are strings *))
        | _ ->
          let sa = Value.to_display va and sb = Value.to_display vb in
          Fn_ctx.alloc_check env.Interp.ctx (String.length sa + String.length sb);
          ret (Value.Str (sa ^ sb))
      end
  | Ast.Bit_and | Ast.Bit_or | Ast.Bit_xor | Ast.Shift_l | Ast.Shift_r ->
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let va = (ca env slots).Fault.value in
      let vb = (cb env slots).Fault.value in
      if Value.is_null va || Value.is_null vb then ret Value.Null
      else begin
        let as_i v =
          match Fn_ctx.cast_value env.Interp.ctx v Ast.T_bigint with
          | Value.Int i -> i
          | _ -> err "bad operand for bit operation"
        in
        ret (Value.Int (Interp.bitop op (as_i va) (as_i vb)))
      end
  | Ast.Add | Ast.Sub ->
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let va = (ca env slots).Fault.value in
      let vb = (cb env slots).Fault.value in
      if Value.is_null va || Value.is_null vb then ret Value.Null
      else begin
        match (Interp.datetime_of_value va, vb, va, Interp.datetime_of_value vb)
        with
        | Some dt, Value.Interval iv, _, _ ->
          ret
            (Interp.temporal_shift env.Interp.ctx dt iv
               (if op = Ast.Add then 1 else -1))
        | _, _, Value.Interval iv, Some dt when op = Ast.Add ->
          ret (Interp.temporal_shift env.Interp.ctx dt iv 1)
        | _ -> ret (Interp.arith env.Interp.ctx op va vb)
      end
  | Ast.Mul | Ast.Div | Ast.Mod ->
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let va = (ca env slots).Fault.value in
      let vb = (cb env slots).Fault.value in
      if Value.is_null va || Value.is_null vb then ret Value.Null
      else ret (Interp.arith env.Interp.ctx op va vb)

(* ----- statement compilation ----- *)

let has_aggregate ~registry e =
  List.exists
    (fun (c : Ast.call) -> Registry.is_aggregate registry c.Ast.fname)
    (Interp.top_level_calls e)

let compile ~registry (stmt : Ast.stmt) : compiled =
  match stmt with
  | Ast.Select_stmt
      { Ast.body =
          Ast.Body_select
            ({ Ast.sel_distinct = false;
               from = None;
               where = None;
               group_by = [];
               having = None;
               _ } as sel);
        order_by = [];
        limit = None }
    when List.for_all
           (function Ast.Proj_star -> false | Ast.Proj_expr _ -> true)
           sel.Ast.projection ->
    let exprs =
      List.filter_map
        (function Ast.Proj_expr (e, _) -> Some e | Ast.Proj_star -> None)
        sel.Ast.projection
    in
    if List.exists (has_aggregate ~registry) exprs then Fallback
    else begin
      let slot = ref 0 in
      let projs =
        Array.of_list (List.map (compile_expr ~registry ~slot) exprs)
      in
      let columns =
        List.mapi
          (fun i item ->
            match item with
            | Ast.Proj_expr (_, Some alias) -> alias
            | Ast.Proj_expr (e, None) ->
              (match e with
               | Ast.Column (_, n) -> n
               | _ -> Printf.sprintf "col%d" (i + 1))
            | Ast.Proj_star -> assert false)
          sel.Ast.projection
      in
      Plan { n_slots = !slot; columns; projs }
    end
  | _ -> Fallback

let exec plan (env : Interp.env) (slots : Ast.expr array) : Interp.outcome =
  Profile.enter env.Interp.profile Profile.Eval;
  match
    (* mirrors exec_select's entry tick for the plain no-FROM path *)
    Fn_ctx.tick env.Interp.ctx;
    eval_values plan.projs env slots 0
  with
  | row ->
    Profile.exit env.Interp.profile;
    Interp.Rows { Interp.columns = plan.columns; rows = [ row ] }
  | exception e ->
    Profile.exit env.Interp.profile;
    raise e
