(** Per-session evaluation context threaded through every built-in
    function: coverage recorder, fault runtime, casting configuration, and
    resource limits. *)

open Sqlfun_value
open Sqlfun_coverage

exception Sql_error of string
(** A clean, expected SQL error ("ERROR: invalid argument..."): the
    behaviour a *correct* implementation shows on a boundary input. *)

exception Resource_limit of string
(** The query was terminated for exhausting memory/step budgets — the
    paper's false-positive class (e.g. [REPEAT('a', 9999999999)]). *)

val err : ('a, unit, string, 'b) format4 -> 'a
(** [err fmt ...] raises {!Sql_error} with the formatted message. A
    message that embeds an argument value quotes it through
    {!Sqlfun_value.Value.quote}, so it holds at most
    {!Sqlfun_value.Value.quote_max_bytes} bytes of it. *)

type limits = {
  max_string_bytes : int;  (** per-value allocation cap *)
  max_collection : int;    (** max elements in produced arrays/maps *)
  max_steps : int;         (** evaluator step budget per statement *)
}

val default_limits : limits

type t = {
  cov : Coverage.t;
  fault : Sqlfun_fault.Fault.runtime;
  cast_cfg : Cast.config;
  limits : limits;
  dialect : string;
  mutable steps : int;
  sequences : (string, int64) Hashtbl.t;
      (** session sequence state for NEXTVAL/LASTVAL *)
  mutable last_insert_id : int64;
  mutable row_count : int;
}

val create :
  ?cov:Coverage.t ->
  ?fault:Sqlfun_fault.Fault.runtime ->
  ?cast_cfg:Cast.config ->
  ?limits:limits ->
  dialect:string ->
  unit ->
  t

val tick : ?cost:int -> t -> unit
(** Charge steps against the budget; raises {!Resource_limit} when spent. *)

val charge : t -> int -> unit
(** [charge ctx cost] is [tick ~cost ctx] without boxing the optional
    argument: the call protocol charges every function call through
    it. *)

val reset_session : t -> unit
(** Clears the session-scoped function state: sequences,
    [last_insert_id] and [row_count]. The detector calls this before
    every fuzz case so a verdict is a function of the statement alone —
    otherwise a LASTVAL/LAST_INSERT_ID case would pass or fail
    depending on which statements happened to run earlier on the same
    engine, PoCs would not replay standalone, and sharded campaigns
    (whose engines each see only a sub-stream) could not be
    deterministic. Interactive sessions (the REPL) never call it. *)

val point : t -> string -> unit
(** Record a coverage point. *)

val branch : t -> string -> bool -> bool
(** [branch ctx id b] records [id ^ "/t"] or [id ^ "/f"] and returns [b] —
    wraps a conditional so both outcomes are distinct coverage points.
    Allocates nothing: the recorder keeps both cells per [id]. *)

val alloc_check : t -> int -> unit
(** Raises {!Resource_limit} when an allocation would exceed the cap. *)

val cast_value : t -> Value.t -> Sqlfun_ast.Ast.type_name -> Value.t
(** Casting with this context's config, coverage, and error conversion:
    cast failures raise {!Sql_error}; a blown JSON depth with the budget
    disabled raises [Stack_overflow] (the simulated crash, reported by the
    detector as such). *)
