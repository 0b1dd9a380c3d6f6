(** Closure compilation of SOFT case statements.

    A case family shares one statement skeleton and varies only
    boundary-literal leaves. [compile] lowers a supported statement
    once into closures with *argument slots* at those positions; the
    detector fills a reused slot buffer per case
    ({!Sqlfun_ast.Ast_util.fold_slots}) and runs the plan — no AST
    re-walk per case. A slot carries the literal node itself, so NULL,
    integer, string and blob boundary values at one position all share
    the same plan (the slot closure dispatches on the constructor at
    run time).

    Compiled execution is observably identical to the interpreter:
    same values, provenance, {!Sqlfun_functions.Fn_ctx.tick} counts and
    costs, coverage points/branches, fault checks, profile frames, and
    exceptions. Unsupported shapes (FROM/WHERE/grouping/DISTINCT/ORDER
    BY/LIMIT/star projections/aggregates) return [Fallback]. *)

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

module Cache : sig
  (** Per-detector (hence per-shard) plan cache keyed by
      {!Sqlfun_ast.Ast_util.fingerprint_skeleton}, guarded by
      {!Sqlfun_ast.Ast_util.equal_skeleton}. Statements that
      are not plan-shaped (shallow test) or carry subqueries
      (unshareable — {!Sqlfun_ast.Ast_util.fingerprint_skeleton} is
      [None]) answer [Skip] without a fingerprint walk or a cache
      entry, and a skeleton's first {e two} sightings also answer
      [Skip]: compilation is deferred until a third statement proves
      the family is big enough to amortise it, so the tens of
      thousands of once- or twice-seen skeletons never pay the
      compile cost (or a cache slot — only their fingerprint count is
      retained). *)

  type t

  type lookup =
    | Skip
        (** not plan-shaped, unshareable, or fewer than three
            sightings of this skeleton (compilation deferred): run the
            interpreter *)
    | Found of compiled  (** cache hit *)
    | Added of compiled  (** compiled and admitted now (third sighting) *)

  val create : unit -> t
  val size : t -> int

  val get_batched :
    t -> registry:Registry.t -> count:int -> Ast.stmt -> lookup
  (** Probe for a family of [count] members sharing [stmt]'s skeleton,
      crediting [count] sightings in one probe — the batched executor
      resolves a whole family at once, so a family of three or more
      members compiles on its first probe, exactly as its third member
      would have one probe at a time. *)
end
