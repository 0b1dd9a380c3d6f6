(** Expression evaluation and query execution.

    Evaluation threads {!Sqlfun_fault.Fault.Prov} provenance through every
    value so the fault layer can distinguish the paper's three boundary
    sources (literal / cast / nested function) at the moment an argument
    reaches a function. *)

open Sqlfun_value
open Sqlfun_fault
open Sqlfun_functions
open Sqlfun_ast

type env = {
  ctx : Fn_ctx.t;
  registry : Registry.t;
  catalog : Storage.catalog;
  profile : Sqlfun_telemetry.Profile.t;
      (** execute-stage attribution: evaluation charges
          [dialect x function x phase] keys as it runs (see
          {!Sqlfun_telemetry.Profile}) *)
}

type result_set = { columns : string list; rows : Value.t list list }

val eval_expr :
  env -> row:(string * Value.t) list option -> Ast.expr -> Fault.arg
(** @raise Fn_ctx.Sql_error on clean SQL errors
    @raise Fn_ctx.Resource_limit on budget exhaustion
    @raise Fault.Crash when an armed injected bug triggers *)

val exec_query : env -> Ast.query -> result_set

type outcome =
  | Rows of result_set
  | Affected of int

val exec_stmt : env -> Ast.stmt -> outcome

(** {2 Node kernels}

    Each expression node's rule, stated once over operands that are
    already evaluated. {!eval_expr} (tree walk) and {!Compile} (closure
    plan) are two drivers over these kernels; a driver owns only what
    differs between them — evaluation order (the AND/OR short-circuit,
    lazy CASE arms, and the unevaluated IN list under a NULL left side),
    the per-node {!Sqlfun_functions.Fn_ctx.tick}, provenance tags, slot
    dispatch and profile frames. Values, costs, coverage, fault checks
    and errors come from the kernels, so both drivers agree on them. *)

val literal_value : Ast.expr -> Value.t
(** The value of one of the six literal constructors; a malformed
    numeric payload raises [Sql_error] here, at evaluation time.
    @raise Invalid_argument on any other node. *)

val column_arg :
  (string * Value.t) list option -> string option -> string -> Fault.arg
(** Column lookup in the current row's bindings ([None]: no FROM). *)

val cast_arg : Fn_ctx.t -> Fault.arg -> Ast.type_name -> Fault.arg
(** [CAST]; rejects a ['*'] operand by its provenance. *)

val unop : Fn_ctx.t -> Ast.unop -> Value.t -> Value.t

val short_circuit : Ast.binop -> Value.t -> bool
(** Whether an AND/OR left operand decides the result alone. The
    driver then skips the right operand and hands {!binop} NULL in its
    place, which the three-valued table resolves to the same answer. *)

val binop : Fn_ctx.t -> Ast.binop -> Value.t -> Value.t -> Value.t
(** Every binary operator: three-valued AND/OR, NULL propagation,
    comparison, LIKE, the compact-rope [||] with its cap check, bit
    operations, date ± INTERVAL and numeric arithmetic. *)

val is_null : negated:bool -> Value.t -> Value.t

val case_hit : Value.t option -> Value.t -> bool
(** Whether a WHEN value selects its arm: equality with the CASE
    operand, or truth when there is none. *)

val in_values : Value.t -> Value.t list -> Value.t
(** [IN] over a non-NULL left value and the evaluated list. *)

val between : Value.t -> Value.t -> Value.t -> Value.t

val scalar_of_rows : Value.t list list -> Value.t
(** A scalar subquery's value from its result rows. *)

val projection_name : int -> Ast.proj_item -> string
(** The result-column name of projection item [i] (0-based): its
    alias, a bare column's own name, ["*"] for a star, else
    ["col<i+1>"]. The names of the first sixteen positions are shared
    constants, so naming them allocates nothing. *)

val enter_call :
  Sqlfun_telemetry.Profile.t -> string -> Registry.resolved option -> unit
(** Open the call's [eval] profile frame; the driver closes it. *)

val apply_call :
  Fn_ctx.t -> string -> Registry.resolved option -> bool -> Fault.arg list ->
  Fault.arg
(** Dispatch a call on its evaluated arguments: unknown-function and
    DISTINCT-on-scalar errors, scalar invocation, or a bare-SELECT
    aggregate fold over one row. *)

val top_level_calls : Ast.expr -> Ast.call list
(** Call nodes in pre-order, not descending into subqueries — the unit
    the aggregation check inspects. *)
