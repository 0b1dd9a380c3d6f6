(* Closure compilation of SOFT case statements.

   The members of one run of a Patterns position family share one
   statement skeleton and vary only its boundary-literal leaves.
   [compile] lowers the run's skeleton (the family's builder applied to
   its first member) once, at the start of its batch, into a tree of
   closures with *argument slots* at those literal positions
   (Ast_util.fold_slots order); per member the detector then writes the
   member's leaves (Ast_util.expr_slots) into the slot window of a
   reused buffer and runs the closure — no AST re-walk, no per-node
   dispatch. The plan dies with its batch.

   A slot holds the literal AST node itself (one of the six literal
   constructors), not just a payload string: boundary-argument sets mix
   NULL, integers, strings and hex blobs at one position, and carrying
   the node lets all of them share a single compiled plan — the slot
   closure dispatches on the constructor at run time, which is one
   match against six immediate tags.

   The compiler is a second driver over the interpreter's node kernels
   (Interp.literal_value, unop, binop, apply_call, ...): every value,
   cost, coverage hit, fault check and error comes from the same code
   as in Interp.eval_expr. What this file states, and must keep equal to
   the tree walk, is only the driver's part: operand evaluation order
   (AND/OR short-circuit, lazy CASE arms, the unevaluated IN list under
   a NULL left side), one Fn_ctx.tick per node, provenance tags, slot
   dispatch and the call's profile frame. Slot payloads are parsed at
   *execution* time (exactly where the interpreter parses them), so a
   malformed literal raises at the same point in the same order.
   Anything outside the supported shape — FROM clauses, WHERE, grouping,
   DISTINCT, ORDER BY/LIMIT, star projections, aggregates — compiles to
   [Fallback] and keeps going through the interpreter. *)

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

(* In_list items: subquery items run the interpreter's exec_query (the
   interpreter does not tick them as expressions); value items are
   compiled closures. *)
type citem = CQuery of Ast.query | CVal of cexpr

let rec compile_expr ~registry ~slot (e : Ast.expr) : cexpr =
  match e with
  | Ast.Null | Ast.Bool_lit _ | Ast.Int_lit _ | Ast.Dec_lit _ | Ast.Str_lit _
  | Ast.Hex_lit _ ->
    (* a slot: the case's literal node is dispatched at execution time *)
    let i = take_slot slot in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      { Fault.value = Interp.literal_value (Array.unsafe_get slots i);
        prov = Fault.Prov.Literal }
  | Ast.Star ->
    let r = { Fault.value = Value.Null; prov = Fault.Prov.Star } in
    fun env _ ->
      Fn_ctx.tick env.Interp.ctx;
      r
  | Ast.Column (qual, name) ->
    (* supported shapes have no FROM clause, so row is always absent *)
    fun env _ ->
      Fn_ctx.tick env.Interp.ctx;
      Interp.column_arg None qual name
  | Ast.Call { fname = "CONVERT"; args = [ e1; Ast.Column (None, ty) ]; distinct }
    ->
    (* CONVERT's second argument is a type keyword, not a column; the
       keyword is part of the skeleton, so it compiles to a constant
       literal node, as the interpreter rewrites it to one *)
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
      Interp.cast_arg env.Interp.ctx (ce env slots) ty
  | Ast.Unop (op, e1) ->
    let ce = compile_expr ~registry ~slot e1 in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      ret (Interp.unop env.Interp.ctx op (ce env slots).Fault.value)
  | Ast.Binop (((Ast.And | Ast.Or) as op), a, b) ->
    let ca = compile_expr ~registry ~slot a in
    let cb = compile_expr ~registry ~slot b in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let va = (ca env slots).Fault.value in
      let vb =
        if Interp.short_circuit op va then Value.Null
        else (cb env slots).Fault.value
      in
      ret (Interp.binop env.Interp.ctx op va vb)
  | Ast.Binop (op, a, b) ->
    let ca = compile_expr ~registry ~slot a in
    let cb = compile_expr ~registry ~slot b in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let va = (ca env slots).Fault.value in
      let vb = (cb env slots).Fault.value in
      ret (Interp.binop env.Interp.ctx op va vb)
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
      let operand =
        match coperand with
        | Some cop -> Some (cop env slots).Fault.value
        | None -> None
      in
      let rec pick i =
        if i >= nb then
          match celse with
          | Some ce -> (ce env slots).Fault.value
          | None -> Value.Null
        else begin
          let cw, ct = Array.unsafe_get cbranches i in
          if Interp.case_hit operand (cw env slots).Fault.value then
            (ct env slots).Fault.value
          else pick (i + 1)
        end
      in
      ret (pick 0)
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
      else
        ret
          (Interp.in_values v
             (List.concat_map
                (fun item ->
                  match item with
                  | CQuery q -> List.concat (Interp.exec_query env q).Interp.rows
                  | CVal ci -> [ (ci env slots).Fault.value ])
                citems))
  | Ast.Is_null (e1, negated) ->
    let ce = compile_expr ~registry ~slot e1 in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      ret (Interp.is_null ~negated (ce env slots).Fault.value)
  | Ast.Between (e1, lo, hi) ->
    let ce = compile_expr ~registry ~slot e1 in
    let clo = compile_expr ~registry ~slot lo in
    let chi = compile_expr ~registry ~slot hi in
    fun env slots ->
      Fn_ctx.tick env.Interp.ctx;
      let v = (ce env slots).Fault.value in
      let lo_v = (clo env slots).Fault.value in
      let hi_v = (chi env slots).Fault.value in
      ret (Interp.between v lo_v hi_v)
  | Ast.Subquery q ->
    fun env _ ->
      Fn_ctx.tick env.Interp.ctx;
      { Fault.value = Interp.scalar_of_rows (Interp.exec_query env q).Interp.rows;
        prov = Fault.Prov.Subquery }
  | Ast.Exists q ->
    fun env _ ->
      Fn_ctx.tick env.Interp.ctx;
      ret (Value.Bool ((Interp.exec_query env q).Interp.rows <> []))

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
     resolution carries the engine's instrumentation handles, so the
     per-call path hashes nothing *)
  let resolved = Registry.resolve registry fname in
  fun env slots ->
    Fn_ctx.tick env.Interp.ctx;
    Interp.enter_call env.Interp.profile fname resolved;
    match
      Interp.apply_call env.Interp.ctx fname resolved distinct
        (eval_args cargs env slots 0)
    with
    | r ->
      Profile.exit env.Interp.profile;
      r
    | exception e ->
      Profile.exit env.Interp.profile;
      raise e

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
      let columns = List.mapi Interp.projection_name sel.Ast.projection in
      Plan { n_slots = !slot; columns; projs }
    end
  | _ -> Fallback

let exec plan (env : Interp.env) (slots : Ast.expr array) : Interp.outcome =
  Profile.enter env.Interp.profile Profile.Eval;
  match
    (* exec_select's entry tick on the plain no-FROM path *)
    Fn_ctx.tick env.Interp.ctx;
    eval_values plan.projs env slots 0
  with
  | row ->
    Profile.exit env.Interp.profile;
    Interp.Rows { Interp.columns = plan.columns; rows = [ row ] }
  | exception e ->
    Profile.exit env.Interp.profile;
    raise e
