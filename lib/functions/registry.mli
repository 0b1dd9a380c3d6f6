(** Lookup and invocation of built-in functions.

    {!invoke} enforces the processing order that makes boundary bugs
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

val restrict : t -> string list -> t
(** Keep only the named functions (a dialect's inventory). *)

type resolved
(** A name resolution: the spec, its per-call constants, and one
    engine's instrumentation handles — the profiler's stats record for
    the spelling, the coverage cell of ["fn/NAME"] and the fault runtime's
    [Execute]-stage specs for the function. Each handle is bound on first
    use and checked by physical identity against the profiler's current
    dialect, the recorder and the fault runtime on every use; a
    resolution used with another engine re-binds instead of charging the
    wrong one. *)

val resolve : t -> string -> resolved option
(** {!find} plus the per-call constants, cached under the {e raw}
    statement spelling so a repeated call pays one hashtable probe — no
    uppercase normalization, no string building — and then reuses the
    handles bound by earlier calls. The cache is invalidated by {!add}. A
    registry is built per engine and shared only with that engine's
    crash respawns ([Engine.restart]), which run on the same domain and
    share its recorder, profiler and fault runtime, so the cache is
    single-domain and its handles stay bound. *)

val spec : resolved -> Func_sig.t
val prov : resolved -> Fault.Prov.t
(** [Prov.Func] of the function's canonical name: the provenance of the
    call's result. *)

(** {2 Call protocol}

    One call of a resolved function, as both execution paths run it:
    {!enter} opens the function's [eval] scope (before its arguments are
    evaluated, so nested calls nest), then {!invoke} (or {!aggregate})
    runs the call, then the caller closes the scope with
    [Profile.exit]. Each step uses the kept handles; none hashes or
    formats a string. *)

val enter : Sqlfun_telemetry.Profile.t -> resolved -> unit
(** Opens an [Eval] scope charging [dialect x spelling]. *)

val invoke : Fn_ctx.t -> resolved -> Fault.arg list -> Value.t
(** The scalar call protocol: coverage point ["fn/NAME"], fault check,
    arity check, star rejection, NULL propagation, then the
    implementation.
    @raise Fn_ctx.Sql_error on arity errors, aggregates in scalar
    context, and whatever the implementation rejects.
    @raise Fault.Crash when an armed injected bug triggers. *)

val aggregate : Fn_ctx.t -> resolved -> distinct:bool -> Func_sig.agg_instance
(** Instantiate aggregate state, recording ["fn/NAME"]. Each [step]
    re-runs the fault check on that row's arguments.
    @raise Fn_ctx.Sql_error for non-aggregates. *)

val make_aggregate :
  Fn_ctx.t -> t -> string -> distinct:bool -> Func_sig.agg_instance
(** {!resolve} then {!aggregate}.
    @raise Fn_ctx.Sql_error for unknown functions and non-aggregates. *)

val is_aggregate : t -> string -> bool
