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
