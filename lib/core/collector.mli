(** Function-expression collection — SOFT's first step.

    The paper scans (1) the DBMS documentation for function names and
    example calls, and (2) the regression test suite for statements whose
    parenthesized tokens follow a known function name. Here the
    documentation is each registry entry's [examples] field and the test
    suite is the dialect's seed corpus. *)

open Sqlfun_ast
open Sqlfun_functions

type source = Docs | Suite

type seed = {
  stmt : Ast.stmt;          (** a SELECT containing >= 1 function call *)
  source : source;
}

val collect :
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  registry:Registry.t -> suite:string list -> unit -> seed list
(** Docs seeds first, then suite seeds. Statements that fail to parse or
    contain no known function expression are skipped, as are non-SELECT
    statements (those become prerequisites, not substitution targets).
    With [telemetry], the whole scan is timed as one ["collect"] span. *)

val donors : seed list -> Ast.call list
(** Every distinct function-call expression found in the seeds, in
    seed order, deduplicated on its printed SQL — the donor set that
    P2.3, P3.3 and the INSERT/WHERE-position scenarios plant from. It
    prints every seed call, so a campaign computes it once, next to its
    seeds, and passes it to every stream that needs it. *)

val prerequisites : string list -> string list
(** The CREATE/INSERT statements of a suite, preserved in order. *)
