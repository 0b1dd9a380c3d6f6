(** Lookup and invocation of built-in functions.

    [invoke_scalar] enforces the processing order that makes boundary bugs
    possible in real systems: the *fault check runs before the generic
    argument validation*, exactly as a flawed code path fires before the
    sanity checks a correct implementation would have performed. *)

open Sqlfun_value
open Sqlfun_fault

type t

val create : unit -> t
val add : t -> Func_sig.t -> unit
val of_list : Func_sig.t list -> t
val find : t -> string -> Func_sig.t option
val mem : t -> string -> bool
val names : t -> string list
(** Sorted. *)

val size : t -> int
val specs : t -> Func_sig.t list
val by_category : t -> (string * string list) list
(** Category -> sorted function names. *)

val restrict : t -> string list -> t
(** Keep only the named functions (a dialect's inventory). *)

type resolved = {
  r_spec : Func_sig.t;
  r_point : string;  (** ["fn/" ^ spec.name], built once *)
  r_prov : Fault.Prov.t;  (** [Prov.Func spec.name], built once *)
}
(** A name resolution with its per-call constants precomputed. *)

val resolve : t -> string -> resolved option
(** {!find} plus the per-call constants, cached under the {e raw}
    statement spelling so a repeated call pays one hashtable probe — no
    uppercase normalization, no string building. The cache is invalidated
    by {!add}. A registry is built per engine and shared only with that
    engine's crash respawns ([Engine.restart]), which run on the same
    domain, so the cache is single-domain. *)

val invoke_scalar : Fn_ctx.t -> t -> string -> Fault.arg list -> Value.t
(** Full scalar call protocol: coverage, fault check, arity check, star
    rejection, NULL propagation, then the implementation.
    @raise Fn_ctx.Sql_error for unknown functions, arity errors, and
    whatever the implementation rejects.
    @raise Fault.Crash when an armed injected bug triggers. *)

val invoke_spec :
  Fn_ctx.t -> point:string -> Func_sig.t -> Fault.arg list -> Value.t
(** The call protocol of {!invoke_scalar} with the lookup already done
    and the coverage point string precomputed ([point] must be
    ["fn/" ^ spec.name]). The closure compiler resolves specs once per
    plan and calls this per execution; specs are static data, so a spec
    resolved against one dialect registry stays valid across the engine
    restarts of that dialect. *)

val make_aggregate :
  Fn_ctx.t -> t -> string -> distinct:bool -> Func_sig.agg_instance
(** Instantiate aggregate state. Each [step] re-runs the fault check on
    that row's arguments. @raise Fn_ctx.Sql_error for non-aggregates. *)

val make_aggregate_spec :
  Fn_ctx.t -> Func_sig.t -> distinct:bool -> Func_sig.agg_instance
(** {!make_aggregate} with the lookup already done (e.g. via
    {!resolve}). *)

val is_aggregate : t -> string -> bool
