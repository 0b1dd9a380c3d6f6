(** In-memory table storage. *)

open Sqlfun_value
open Sqlfun_ast

type column = {
  col_name : string;
  col_type : Ast.type_name;
  col_not_null : bool;
  col_default : Ast.expr option;
}

type table = {
  tbl_name : string;
  columns : column list;
  mutable rows : Value.t list list;  (** in insertion order *)
}

type catalog

val create_catalog : ?profile:Sqlfun_telemetry.Profile.t -> unit -> catalog
(** Catalog operations charge the [storage] phase of [profile] (a fresh
    throwaway profiler when omitted). *)

val profile : catalog -> Sqlfun_telemetry.Profile.t

val table_names : catalog -> string list
val find_table : catalog -> string -> table option

val create_table :
  catalog -> name:string -> columns:column list -> if_not_exists:bool ->
  (unit, string) result

val drop_table : catalog -> name:string -> if_exists:bool -> (unit, string) result

val append_row : table -> Value.t list -> unit

val column_index : table -> string -> int option

type snapshot
(** An immutable copy of a catalog's table set. Pure data: it holds no
    reference to the source catalog, so it can be restored into a
    different catalog (e.g. the fresh catalog of an engine respawned by
    {!Engine.restart} after a crash). *)

val snapshot : catalog -> snapshot
(** O(tables): row lists are shared, not copied — sound because
    {!append_row} replaces a table's row list rather than mutating it. *)

val restore : catalog -> snapshot -> unit
(** Resets the catalog to exactly the snapshotted table set, discarding
    any tables created or rows appended since. *)
