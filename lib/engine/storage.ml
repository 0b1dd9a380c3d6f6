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
  mutable rows : Value.t list list;
}

module Profile = Sqlfun_telemetry.Profile

type catalog = { tables : (string, table) Hashtbl.t; profile : Profile.t }

let create_catalog ?profile () =
  let profile =
    match profile with Some p -> p | None -> Profile.create ()
  in
  { tables = Hashtbl.create 8; profile }

let profile c = c.profile

let norm = String.lowercase_ascii

let table_names c =
  Hashtbl.fold (fun k _ acc -> k :: acc) c.tables [] |> List.sort String.compare

(* called once per FROM source and once per INSERT: scoped directly
   (enter/exit, no closure) — nothing below raises *)
let find_table c name =
  Profile.enter c.profile Profile.Storage;
  let r = Hashtbl.find_opt c.tables (norm name) in
  Profile.exit c.profile;
  r

let create_table_unscoped c ~name ~columns ~if_not_exists =
  let key = norm name in
  if Hashtbl.mem c.tables key then
    if if_not_exists then Ok () else Error (Printf.sprintf "table %s already exists" name)
  else begin
    let seen = Hashtbl.create 8 in
    let dup =
      List.exists
        (fun col ->
          let k = norm col.col_name in
          if Hashtbl.mem seen k then true
          else begin
            Hashtbl.add seen k ();
            false
          end)
        columns
    in
    if dup then Error "duplicate column name"
    else if columns = [] then Error "a table needs at least one column"
    else begin
      Hashtbl.add c.tables key { tbl_name = name; columns; rows = [] };
      Ok ()
    end
  end

let create_table c ~name ~columns ~if_not_exists =
  Profile.enter c.profile Profile.Storage;
  let r = create_table_unscoped c ~name ~columns ~if_not_exists in
  Profile.exit c.profile;
  r

let drop_table c ~name ~if_exists =
  Profile.enter c.profile Profile.Storage;
  let key = norm name in
  let r =
    if Hashtbl.mem c.tables key then begin
      Hashtbl.remove c.tables key;
      Ok ()
    end
    else if if_exists then Ok ()
    else Error (Printf.sprintf "no such table %s" name)
  in
  Profile.exit c.profile;
  r

let append_row t row = t.rows <- t.rows @ [ row ]

(* A snapshot is pure data (no reference to the source catalog), so it
   outlives its catalog: the detector captures the post-seed baseline
   once, restores it after each stateful scenario, and seeds the fresh
   catalog of every crash respawn with it.
   Sharing the [rows] list is safe because [append_row] replaces the
   list instead of mutating it. *)
type snapshot = (string * string * column list * Value.t list list) list

let snapshot c =
  Hashtbl.fold
    (fun key t acc -> (key, t.tbl_name, t.columns, t.rows) :: acc)
    c.tables []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)

let restore c snap =
  Hashtbl.reset c.tables;
  List.iter
    (fun (key, tbl_name, columns, rows) ->
      Hashtbl.add c.tables key { tbl_name; columns; rows })
    snap

