(** The seven simulated DBMS profiles. *)

open Sqlfun_value
open Sqlfun_engine

type profile = {
  id : string;            (** e.g. ["clickhouse"] *)
  display : string;       (** e.g. ["ClickHouse"] *)
  version : string;       (** the version the paper tested *)
  strictness : Cast.strictness;
  json_max_depth : int option;
      (** [None] models the missing recursion budget of CVE-2015-5289 *)
  functions : string list;
  seeds : string list;
}

val all : profile list
val ids : string list
val find : string -> profile option
val find_exn : string -> profile

val registry : profile -> Sqlfun_functions.Registry.t
(** The profile's function inventory as a registry. *)

val make_engine :
  ?cov:Sqlfun_coverage.Coverage.t ->
  ?armed:bool ->
  ?limits:Sqlfun_functions.Fn_ctx.limits ->
  ?profile:Sqlfun_telemetry.Profile.t ->
  profile ->
  Engine.t
(** A fresh simulated server: builds the profile's registry and fault
    table, then loads the seed schema (CREATE/INSERT statements). [armed]
    (default false) enables the profile's injected bugs from
    {!Bug_ledger}. [profile] (an attribution profiler, not a dialect
    profile) is threaded to the engine so execute-stage time charges the
    caller's collector. This is arm-time work: a detector calls it once,
    at creation, and respawns a crashed engine with
    {!Engine.restart} instead of building a new one. *)

val load_seeds : Engine.t -> profile -> unit
(** Execute the seed schema statements; ignores errors. Run by
    {!make_engine} only — never on a crash restart. *)
