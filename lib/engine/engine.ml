open Sqlfun_value
open Sqlfun_functions
module Profile = Sqlfun_telemetry.Profile

type t = { env : Interp.env }

type exec_error =
  | Parse_failed of string
  | Sql_failed of string
  | Limit_hit of string

type outcome = Interp.outcome = Rows of Interp.result_set | Affected of int

let create ?cov ?fault ?cast_cfg ?limits ?compact ?profile ~registry ~dialect () =
  let ctx = Fn_ctx.create ?cov ?fault ?cast_cfg ?limits ?compact ~dialect () in
  let profile =
    match profile with Some p -> p | None -> Profile.create ()
  in
  {
    env =
      {
        Interp.ctx;
        registry;
        catalog = Storage.create_catalog ~profile ();
        profile;
      };
  }

(* A respawn shares the dialect's static data — the registry (with its
   warm resolve cache) and the armed fault runtime — and renews what a
   crash can have left behind: the step counter, the session state and
   the tables. *)
let restart t snap =
  let old = t.env.Interp.ctx in
  let ctx =
    Fn_ctx.create ~cov:old.Fn_ctx.cov ~fault:old.Fn_ctx.fault
      ~cast_cfg:old.Fn_ctx.cast_cfg ~limits:old.Fn_ctx.limits
      ~compact:old.Fn_ctx.compact ~dialect:old.Fn_ctx.dialect ()
  in
  let catalog =
    Storage.create_catalog ~profile:(Storage.profile t.env.Interp.catalog) ()
  in
  Storage.restore catalog snap;
  { env = { t.env with Interp.ctx; catalog } }

let context t = t.env.Interp.ctx
let registry t = t.env.Interp.registry
let catalog t = t.env.Interp.catalog
let profile t = t.env.Interp.profile

(* [run t f x] is [f env x] on a fresh step budget, like a per-query
   timeout. A top-level [f] and an existing [x] make the call
   closure-free. *)
let run t f x =
  t.env.Interp.ctx.Fn_ctx.steps <- 0;
  match f t.env x with
  | v -> Ok v
  | exception Fn_ctx.Sql_error msg -> Error (Sql_failed msg)
  | exception Fn_ctx.Resource_limit msg -> Error (Limit_hit msg)

let exec_stmt t stmt = run t Interp.exec_stmt stmt

(* a [parse] scope around one parser entry point *)
let parse t parser sql =
  let prof = t.env.Interp.profile in
  Profile.enter prof Profile.Parse;
  match parser sql with
  | v ->
    Profile.exit prof;
    v
  | exception e ->
    Profile.exit prof;
    raise e

let exec_sql t sql =
  match parse t Sqlfun_parse.Parser.parse_stmt sql with
  | Error msg -> Error (Parse_failed msg)
  | Ok stmt -> exec_stmt t stmt

let exec_script t sql =
  match parse t Sqlfun_parse.Parser.parse_script sql with
  | Error msg -> Error (Parse_failed msg)
  | Ok stmts ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | stmt :: rest ->
        (match exec_stmt t stmt with
         | Ok outcome -> go (outcome :: acc) rest
         | Error _ as e -> e)
    in
    go [] stmts

let eval_scoped env e =
  Profile.enter env.Interp.profile Profile.Eval;
  match Interp.eval_expr env ~row:None e with
  | a ->
    Profile.exit env.Interp.profile;
    a.Sqlfun_fault.Fault.value
  | exception ex ->
    Profile.exit env.Interp.profile;
    raise ex

let eval_expr_sql t sql =
  match parse t Sqlfun_parse.Parser.parse_expr_string sql with
  | Error msg -> Error (Parse_failed msg)
  | Ok e -> run t eval_scoped e

let error_to_string = function
  | Parse_failed msg -> "parse error: " ^ msg
  | Sql_failed msg -> "ERROR: " ^ msg
  | Limit_hit msg -> "LIMIT: " ^ msg

let outcome_to_string = function
  | Affected n -> Printf.sprintf "OK, %d row(s) affected" n
  | Rows rs ->
    let buf = Buffer.create 128 in
    Buffer.add_string buf (String.concat " | " rs.Interp.columns);
    List.iter
      (fun row ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf
          (String.concat " | " (List.map Value.to_display row)))
      rs.Interp.rows;
    Buffer.contents buf
