(** The session facade: one [t] is one simulated DBMS server process.

    Clean SQL errors and resource limits come back as [Error _]; a
    simulated crash (an armed injected bug, or a blown stack) escapes as
    an exception — exactly the observable difference between "ERROR: ..."
    and a dead server that the paper's crash oracle relies on. *)

open Sqlfun_value
open Sqlfun_functions

type t

type exec_error =
  | Parse_failed of string
  | Sql_failed of string
  | Limit_hit of string

type outcome = Interp.outcome =
  | Rows of Interp.result_set
  | Affected of int

val create :
  ?cov:Sqlfun_coverage.Coverage.t ->
  ?fault:Sqlfun_fault.Fault.runtime ->
  ?cast_cfg:Cast.config ->
  ?limits:Fn_ctx.limits ->
  ?profile:Sqlfun_telemetry.Profile.t ->
  registry:Registry.t ->
  dialect:string ->
  unit ->
  t
(** [profile] receives execute-stage attribution (parse / plan / eval /
    storage scopes); a fresh private profiler when omitted. The detector
    passes its campaign profiler, and {!restart} keeps it, so a
    respawned engine charges the same keys. *)

val restart : t -> Storage.snapshot -> t
(** [restart t snap] respawns the server after a crash: a fresh session
    ({!Fn_ctx.t} with a zero step counter, no sequences, zero
    [last_insert_id]/[row_count]) over a fresh catalog on the same
    attribution profiler, restored from [snap]. Everything static per
    dialect is shared with [t], not rebuilt: the {!Registry.t} (its
    resolve cache stays warm), the armed fault runtime, the coverage
    recorder, the cast configuration, the limits and the [compact]
    setting. No statement runs, so a restart records no coverage hits.
    [t] must not be used afterwards. *)

val context : t -> Fn_ctx.t
val registry : t -> Registry.t
val catalog : t -> Storage.catalog
val profile : t -> Sqlfun_telemetry.Profile.t

val exec_sql : t -> string -> (outcome, exec_error) result
(** Execute one statement. Each statement gets a fresh step budget. *)

val exec_script : t -> string -> (outcome list, exec_error) result
(** Execute a [;]-separated script, stopping at the first error. *)

val exec_stmt : t -> Sqlfun_ast.Ast.stmt -> (outcome, exec_error) result

val eval_expr_sql : t -> string -> (Value.t, exec_error) result
(** Convenience: evaluate a standalone expression. *)

val error_to_string : exec_error -> string
val outcome_to_string : outcome -> string
