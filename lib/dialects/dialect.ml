open Sqlfun_value
open Sqlfun_engine
open Sqlfun_functions

type profile = {
  id : string;
  display : string;
  version : string;
  strictness : Cast.strictness;
  json_max_depth : int option;
  functions : string list;
  seeds : string list;
}

let make id display version strictness json_max_depth =
  {
    id;
    display;
    version;
    strictness;
    json_max_depth;
    functions = Inventory.for_dialect id;
    seeds = Seed_corpus.for_dialect id;
  }

(* Strictness assignments follow §7.3's observation: PostgreSQL's strict
   type system is why SOFT finds only one bug there; the MySQL family and
   Virtuoso coerce freely. The JSON depth budget is disabled exactly for
   the dialects whose ledger contains recursion bugs. *)
let all =
  [
    make "postgresql" "PostgreSQL" "16.1" Cast.Strict (Some 512);
    make "mysql" "MySQL" "8.3.0" Cast.Lenient (Some 512);
    make "mariadb" "MariaDB" "11.3.2" Cast.Lenient None;
    make "clickhouse" "ClickHouse" "23.6.2.18" Cast.Strict (Some 512);
    make "monetdb" "MonetDB" "11.47.11" Cast.Strict (Some 512);
    make "duckdb" "DuckDB" "0.10.1" Cast.Strict None;
    make "virtuoso" "Virtuoso" "7.2.12" Cast.Lenient (Some 512);
  ]

let ids = List.map (fun p -> p.id) all
let find id = List.find_opt (fun p -> p.id = id) all

let find_exn id =
  match find id with
  | Some p -> p
  | None -> invalid_arg ("Dialect.find_exn: unknown dialect " ^ id)

let registry p = Registry.restrict (All_fns.registry ()) p.functions

let load_seeds engine p =
  List.iter
    (fun sql ->
      match Engine.exec_sql engine sql with
      | Ok _ | Error _ -> ())
    (List.filter
       (fun s ->
         let u = String.uppercase_ascii s in
         String.length u >= 6
         && (String.sub u 0 6 = "CREATE" || String.sub u 0 6 = "INSERT"))
       p.seeds)

let make_engine ?cov ?(armed = false) ?limits ?profile:prof p =
  let fault =
    Sqlfun_fault.Fault.make
      (Bug_ledger.for_dialect p.id @ Bug_ledger.staged_for_dialect p.id)
  in
  if armed then Sqlfun_fault.Fault.arm fault;
  let cast_cfg =
    { Cast.strictness = p.strictness; json_max_depth = p.json_max_depth }
  in
  let engine =
    Engine.create ?cov ~fault ~cast_cfg ?limits ?profile:prof
      ~registry:(registry p) ~dialect:p.id ()
  in
  load_seeds engine p;
  engine
