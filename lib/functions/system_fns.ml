(** System/introspection functions (Virtuoso's biggest bug category in
    Table 4) and the sequence family. *)

open Sqlfun_value

let scalar = Func_sig.scalar ~category:"system"
let seq_scalar = Func_sig.scalar ~category:"sequence"

let version_fn =
  scalar "VERSION" ~min_args:0 ~max_args:(Some 0) ~hints:[]
    ~examples:[ "VERSION()" ]
    (fun ctx _args -> Value.Str (ctx.Fn_ctx.dialect ^ "-sim 1.0.0"))

let database_fn =
  scalar "DATABASE" ~min_args:0 ~max_args:(Some 0) ~hints:[]
    ~examples:[ "DATABASE()" ]
    (fun _ctx _args -> Value.Str "main")

let current_user_fn =
  scalar "CURRENT_USER" ~min_args:0 ~max_args:(Some 0) ~hints:[]
    ~examples:[ "CURRENT_USER()" ]
    (fun _ctx _args -> Value.Str "tester@localhost")

let connection_id_fn =
  scalar "CONNECTION_ID" ~min_args:0 ~max_args:(Some 0) ~hints:[]
    ~examples:[ "CONNECTION_ID()" ]
    (fun _ctx _args -> Value.Int 1L)

let typeof_fn =
  scalar "TYPEOF" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_any ]
    ~null_propagates:false ~examples:[ "TYPEOF(1.5)" ]
    (fun _ctx args ->
      Value.Str (Value.ty_name (Value.type_of (Args.value args 0))))

let pg_typeof_fn =
  scalar "PG_TYPEOF" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_any ]
    ~null_propagates:false ~examples:[ "PG_TYPEOF(1.5)" ]
    (fun _ctx args ->
      Value.Str
        (String.lowercase_ascii (Value.ty_name (Value.type_of (Args.value args 0)))))

let sleep_fn =
  scalar "SLEEP" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_num ]
    ~examples:[ "SLEEP(0)" ]
    (fun ctx args ->
      (* simulated: charges the step budget instead of wall-clock time *)
      let seconds = Args.float_ ctx args 0 in
      if Fn_ctx.branch ctx "sleep/neg" (seconds < 0.0) then
        Fn_ctx.err "SLEEP: negative duration"
      else begin
        let cost = int_of_float (Float.min (seconds *. 10_000.0) 1e9) in
        Fn_ctx.tick ~cost ctx;
        Value.Int 0L
      end)

let benchmark_fn =
  scalar "BENCHMARK" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_int; Func_sig.H_any ] ~examples:[ "BENCHMARK(10, 1+1)" ]
    (fun ctx args ->
      let n = Args.int_ ctx args 0 in
      if n < 0L then Fn_ctx.err "BENCHMARK: negative count"
      else begin
        Fn_ctx.tick ~cost:(Int64.to_int (Int64.min n 1_000_000_000L)) ctx;
        Value.Int 0L
      end)

let uuid_fn =
  scalar "UUID" ~min_args:0 ~max_args:(Some 0) ~hints:[] ~examples:[ "UUID()" ]
    (fun ctx _args ->
      (* deterministic per-session: derived from a session counter *)
      let n = Hashtbl.length ctx.Fn_ctx.sequences in
      ignore n;
      ctx.Fn_ctx.last_insert_id <- Int64.add ctx.Fn_ctx.last_insert_id 1L;
      let h = Sqlfun_data.Codec.digest_hex (Int64.to_string ctx.Fn_ctx.last_insert_id) in
      Value.Uuid
        (Printf.sprintf "%s-%s-%s-%s-%s" (String.sub h 0 8) (String.sub h 8 4)
           (String.sub h 12 4) (String.sub h 16 4) (String.sub h 20 12)))

let last_insert_id_fn =
  scalar "LAST_INSERT_ID" ~min_args:0 ~max_args:(Some 0) ~hints:[]
    ~examples:[ "LAST_INSERT_ID()" ]
    (fun ctx _args -> Value.Int ctx.Fn_ctx.last_insert_id)

let row_count_fn =
  scalar "ROW_COUNT" ~min_args:0 ~max_args:(Some 0) ~hints:[]
    ~examples:[ "ROW_COUNT()" ]
    (fun ctx _args -> Value.Int (Int64.of_int ctx.Fn_ctx.row_count))

let found_rows_fn =
  scalar "FOUND_ROWS" ~min_args:0 ~max_args:(Some 0) ~hints:[]
    ~examples:[ "FOUND_ROWS()" ]
    (fun ctx _args -> Value.Int (Int64.of_int ctx.Fn_ctx.row_count))

let current_setting_fn =
  scalar "CURRENT_SETTING" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_str ] ~examples:[ "CURRENT_SETTING('server_version')" ]
    (fun ctx args ->
      match String.lowercase_ascii (Args.str ctx args 0) with
      | "server_version" -> Value.Str "16.1-sim"
      | "max_connections" -> Value.Str "100"
      | "work_mem" -> Value.Str "4MB"
      | "datestyle" -> Value.Str "ISO, MDY"
      | name ->
        Fn_ctx.point ctx "current-setting/unknown";
        Fn_ctx.err "unrecognized configuration parameter %s" (Value.quote name))

(* ----- sequences (session-scoped state in the context) ----- *)

let nextval_fn =
  seq_scalar "NEXTVAL" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "NEXTVAL('seq1')" ]
    (fun ctx args ->
      let name = Args.str ctx args 0 in
      if name = "" then Fn_ctx.err "NEXTVAL: empty sequence name";
      let cur =
        match Hashtbl.find_opt ctx.Fn_ctx.sequences name with
        | Some v -> v
        | None -> 0L
      in
      let next = Int64.add cur 1L in
      Hashtbl.replace ctx.Fn_ctx.sequences name next;
      Value.Int next)

let lastval_fn =
  seq_scalar "LASTVAL" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_str ]
    ~examples:[ "LASTVAL('seq1')" ]
    (fun ctx args ->
      let name = Args.str ctx args 0 in
      match Hashtbl.find_opt ctx.Fn_ctx.sequences name with
      | Some v -> Value.Int v
      | None ->
        Fn_ctx.point ctx "lastval/undefined";
        Fn_ctx.err "LASTVAL: sequence %s has no current value" (Value.quote name))

let setval_fn =
  seq_scalar "SETVAL" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_int ] ~examples:[ "SETVAL('seq1', 10)" ]
    (fun ctx args ->
      let name = Args.str ctx args 0 in
      let v = Args.int_ ctx args 1 in
      if name = "" then Fn_ctx.err "SETVAL: empty sequence name";
      Hashtbl.replace ctx.Fn_ctx.sequences name v;
      Value.Int v)

let specs =
  [
    version_fn; database_fn; current_user_fn; connection_id_fn; typeof_fn;
    pg_typeof_fn; sleep_fn; benchmark_fn; uuid_fn; last_insert_id_fn;
    row_count_fn; found_rows_fn; current_setting_fn; nextval_fn; lastval_fn;
    setval_fn;
  ]
