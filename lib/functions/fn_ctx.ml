open Sqlfun_value
open Sqlfun_coverage

exception Sql_error of string
exception Resource_limit of string

let err fmt = Printf.ksprintf (fun msg -> raise (Sql_error msg)) fmt

type limits = { max_string_bytes : int; max_collection : int; max_steps : int }

let default_limits =
  { max_string_bytes = 8_000_000; max_collection = 1_000_000; max_steps = 5_000_000 }

type t = {
  cov : Coverage.t;
  fault : Sqlfun_fault.Fault.runtime;
  cast_cfg : Cast.config;
  limits : limits;
  dialect : string;
  mutable steps : int;
  sequences : (string, int64) Hashtbl.t;
  mutable last_insert_id : int64;
  mutable row_count : int;
}

let create ?cov ?fault ?cast_cfg ?limits ~dialect () =
  {
    cov = (match cov with Some c -> c | None -> Coverage.create ());
    fault = (match fault with Some f -> f | None -> Sqlfun_fault.Fault.make []);
    cast_cfg =
      (match cast_cfg with
       | Some c -> c
       | None -> { Cast.strictness = Cast.Strict; json_max_depth = Some 512 });
    limits = (match limits with Some l -> l | None -> default_limits);
    dialect;
    steps = 0;
    sequences = Hashtbl.create 8;
    last_insert_id = 0L;
    row_count = 0;
  }

let reset_session ctx =
  Hashtbl.reset ctx.sequences;
  ctx.last_insert_id <- 0L;
  ctx.row_count <- 0

let charge ctx cost =
  ctx.steps <- ctx.steps + cost;
  if ctx.steps > ctx.limits.max_steps then
    raise (Resource_limit "statement step budget exhausted")

let tick ?(cost = 1) ctx = charge ctx cost

let point ctx id = Coverage.hit ctx.cov id

let branch ctx id b =
  Coverage.branch ctx.cov id b;
  b

let alloc_check ctx bytes =
  if bytes > ctx.limits.max_string_bytes || bytes < 0 then
    raise
      (Resource_limit
         (Printf.sprintf "allocation of %d bytes exceeds the %d-byte cap" bytes
            ctx.limits.max_string_bytes))

let cast_value ctx v ty =
  match Cast.cast ~cov:ctx.cov ctx.cast_cfg v ty with
  | Ok v' -> v'
  | Error (Cast.Depth_blown _) ->
    (* The dialect runs with the JSON recursion budget disabled: the
       conversion recursed past any reasonable depth, i.e. the simulated
       process blew its stack (CVE-2015-5289). *)
    raise Stack_overflow
  | Error e -> raise (Sql_error (Cast.error_to_string e))
