(** Closure compilation of SOFT case statements.

    The members of one run of a position family share one statement
    skeleton and vary only boundary-literal leaves. [compile] lowers a
    supported statement once into closures with *argument slots* at
    those positions. The detector compiles a run's skeleton (the
    family's builder applied to its first member) at the start of its
    batch, writes each member's leaves
    ({!Sqlfun_ast.Ast_util.expr_slots}) into the slot window of a
    reused buffer laid out in {!Sqlfun_ast.Ast_util.fold_slots} order
    and runs the plan — no AST re-walk per case — then drops the plan
    with the batch; nothing is cached across batches. A slot carries
    the literal node itself, so NULL, integer, string and blob boundary
    values at one position all share the same plan (the slot closure
    dispatches on the constructor at run time).

    Compiled execution is observably identical to the interpreter:
    a plan is a second driver over {!Interp}'s node kernels, so values,
    {!Sqlfun_functions.Fn_ctx.tick} costs, coverage points/branches,
    fault checks and errors come from the same code; the plan itself
    keeps the interpreter's evaluation order, per-node ticks, provenance
    and profile frames. Only a [SELECT] of non-aggregate expressions with
    no FROM/WHERE/grouping/DISTINCT/ORDER BY/LIMIT and no star compiles;
    every other statement returns [Fallback] before any closure is
    built. *)

open Sqlfun_ast
open Sqlfun_functions

type cexpr = Interp.env -> Ast.expr array -> Sqlfun_fault.Fault.arg

type plan

type compiled = Plan of plan | Fallback

val n_slots : plan -> int
(** Slot count; equals what {!Sqlfun_ast.Ast_util.fold_slots} yields on
    any statement with this plan's skeleton. *)

val compile : registry:Registry.t -> Ast.stmt -> compiled
(** Lower a statement against a dialect registry. Specs are resolved at
    compile time (they are static per-dialect data, stable across engine
    restarts); literal payloads are parsed at execution time, exactly
    where the interpreter parses them. *)

val exec : plan -> Interp.env -> Ast.expr array -> Interp.outcome
(** @raise Fn_ctx.Sql_error, Fn_ctx.Resource_limit, Fault.Crash exactly
    as the interpreter would. *)
