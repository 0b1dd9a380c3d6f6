(** Injected-bug machinery.

    A real DBMS contains latent memory errors at particular code points;
    our simulated dialects declare them as {!spec} values — a declarative
    boundary condition on the (value, provenance) pairs reaching a
    function — and the function call protocol checks them
    ({!check_specs}) at the point a real implementation would contain the
    flaw. A satisfied trigger raises
    {!Crash}, the in-process analogue of the server dying under ASan.

    Specs are inert until {!arm}ed, so the engine doubles as an ordinary
    (correct) SQL engine for unit tests and examples. *)

open Sqlfun_value

(** Where an argument value came from — the distinction behind the paper's
    three boundary sources. *)
module Prov : sig
  type t =
    | Literal          (** written literally in the SQL text *)
    | Cast             (** produced by an explicit cast *)
    | Func of string   (** return value of the named function *)
    | Column           (** read from a table *)
    | Operator         (** result of an operator or other expression *)
    | Star             (** the bare [*] argument *)
    | Subquery

  val to_string : t -> string
end

type arg = { value : Value.t; prov : Prov.t }

val arg : ?prov:Prov.t -> Value.t -> arg
(** Defaults to [Operator] provenance. *)

(** Conditions on a single argument. *)
type arg_cond =
  | Is_null
  | Is_star
  | Is_empty_string
  | Str_len_ge of int
  | Str_contains of string
  | Precision_ge of int   (** decimal significant digits *)
  | Scale_ge of int
  | Abs_int_ge of int64
  | Int_is of int64
  | Depth_ge of int       (** structural nesting of the value *)
  | Size_ge of int
  | Has_char_run of int
      (** some character repeated at least n times consecutively *)
  | Type_is of Value.ty
  | From_cast
  | From_function         (** any nested function *)
  | From_named_function of string
  | From_literal
  | From_subquery
  | Neg of arg_cond
  | All_of of arg_cond list
  | One_of of arg_cond list

(** Conditions on the whole argument vector. *)
type cond =
  | Arg_at of int * arg_cond   (** 0-based index; false when absent *)
  | Any_arg of arg_cond
  | Argc_ge of int
  | Argc_eq of int
  | And_ of cond list
  | Or_ of cond list

type status = Confirmed | Fixed

(** The paper's "occurrence stage": where in the statement lifecycle the
    defect fires. [Execute] is the classic function-evaluation site;
    [Parse] fires during DDL/DML statement analysis (literal tokens and
    declared types, before any evaluation); [Storage] fires when a cast
    row reaches the storage layer. *)
type stage = Parse | Execute | Storage

val stage_to_string : stage -> string

type spec = {
  site : string;           (** unique id, e.g. ["mysql/avg/decimal-digits"] *)
  dialect : string;
  func : string;           (** uppercase SQL function name *)
  category : string;       (** function type: "aggregate", "string", ... *)
  kind : Bug_kind.t;
  pattern : Pattern_id.t;  (** the pattern the paper credits for this bug *)
  status : status;
  stage : stage;
  trigger : cond;
  note : string;
}

exception Crash of spec
(** The simulated server death. *)

type runtime

val make : spec list -> runtime
(** Starts disarmed. *)

val arm : runtime -> unit
val is_armed : runtime -> bool
val specs : runtime -> spec list

val eval_arg_cond : arg_cond -> arg -> bool
val eval_cond : cond -> arg list -> bool

val check_at : runtime -> stage:stage -> func:string -> arg list -> unit
(** Raises {!Crash} when armed and a spec for [func] declared at [stage]
    triggers. The engine calls this with [Parse] at DDL/DML statement
    analysis and [Storage] when appending a cast row. *)

val execute_specs : runtime -> func:string -> spec list
(** The [Execute]-stage specs for [func], in declaration order, armed or
    not. *)

val check_specs : runtime -> spec list -> arg list -> unit
(** [check_specs rt (execute_specs rt ~func) args] is
    [check_at rt ~stage:Execute ~func args] with the lookup already
    done: the function registry resolves each function's list once per
    runtime and keeps it, and every function call checks it, before the
    function's own argument validation — by construction the execute
    stage. *)

val status_to_string : status -> string
