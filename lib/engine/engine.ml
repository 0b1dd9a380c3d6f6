open Sqlfun_value
open Sqlfun_functions
module Profile = Sqlfun_telemetry.Profile

type t = { env : Interp.env }

type exec_error =
  | Parse_failed of string
  | Sql_failed of string
  | Limit_hit of string

type outcome = Rows of Interp.result_set | Affected of int

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

let run t f =
  (* fresh step budget per statement, like a per-query timeout *)
  t.env.Interp.ctx.Fn_ctx.steps <- 0;
  match f () with
  | v -> Ok v
  | exception Fn_ctx.Sql_error msg -> Error (Sql_failed msg)
  | exception Fn_ctx.Resource_limit msg -> Error (Limit_hit msg)

let exec_stmt t stmt =
  run t (fun () ->
      match Interp.exec_stmt t.env stmt with
      | Interp.Rows rs -> Rows rs
      | Interp.Affected n -> Affected n)

let exec_compiled t plan slots =
  run t (fun () ->
      match Compile.exec plan t.env slots with
      | Interp.Rows rs -> Rows rs
      | Interp.Affected n -> Affected n)

let parse_stmt_profiled t sql =
  Profile.with_phase t.env.Interp.profile Profile.Parse (fun () ->
      Sqlfun_parse.Parser.parse_stmt sql)

let exec_sql t sql =
  match parse_stmt_profiled t sql with
  | Error msg -> Error (Parse_failed msg)
  | Ok stmt -> exec_stmt t stmt

let exec_script t sql =
  match
    Profile.with_phase t.env.Interp.profile Profile.Parse (fun () ->
        Sqlfun_parse.Parser.parse_script sql)
  with
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

let eval_expr_sql t sql =
  match
    Profile.with_phase t.env.Interp.profile Profile.Parse (fun () ->
        Sqlfun_parse.Parser.parse_expr_string sql)
  with
  | Error msg -> Error (Parse_failed msg)
  | Ok e ->
    run t (fun () ->
        Profile.with_phase t.env.Interp.profile Profile.Eval (fun () ->
            (Interp.eval_expr t.env ~row:None e).Sqlfun_fault.Fault.value))

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
