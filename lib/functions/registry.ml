open Sqlfun_value
open Sqlfun_fault

type resolved = {
  r_spec : Func_sig.t;
  r_point : string;  (* "fn/" ^ spec.name, built once *)
  r_prov : Fault.Prov.t;  (* Prov.Func spec.name, built once *)
}

type t = {
  tbl : (string, Func_sig.t) Hashtbl.t;
  resolved : (string, resolved option) Hashtbl.t;
      (* raw statement spelling -> resolution, filled lazily. The
         uppercase normalization, the "fn/NAME" coverage-point string
         and the provenance constructor are all per-name constants, but
         the interpreter used to rebuild them on every call — at
         millions of calls per campaign the allocations dominated the
         lookup. A registry is built per armed engine (one per shard) and
         shared only with that engine's crash respawns, so the cache is
         single-domain. [None] caches unknown spellings. *)
}

let create () = { tbl = Hashtbl.create 128; resolved = Hashtbl.create 256 }

let add t spec =
  Hashtbl.replace t.tbl spec.Func_sig.name spec;
  (* a later add could turn a cached miss (or a stale spec) live *)
  Hashtbl.reset t.resolved

let of_list specs =
  let t = create () in
  List.iter (add t) specs;
  t

let find t name = Hashtbl.find_opt t.tbl (String.uppercase_ascii name)
let mem t name = Hashtbl.mem t.tbl (String.uppercase_ascii name)

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort String.compare

let size t = Hashtbl.length t.tbl

let specs t =
  Hashtbl.fold (fun _ v acc -> v :: acc) t.tbl []
  |> List.sort (fun a b -> String.compare a.Func_sig.name b.Func_sig.name)

let by_category t =
  let cats = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name spec ->
      let cat = spec.Func_sig.category in
      let existing = match Hashtbl.find_opt cats cat with Some l -> l | None -> [] in
      Hashtbl.replace cats cat (name :: existing))
    t.tbl;
  Hashtbl.fold (fun cat names acc -> (cat, List.sort String.compare names) :: acc) cats []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let restrict t keep =
  let keep = List.map String.uppercase_ascii keep in
  let t' = create () in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.tbl name with
      | Some spec -> add t' spec
      | None -> ())
    keep;
  t'

let err fmt = Printf.ksprintf (fun msg -> raise (Fn_ctx.Sql_error msg)) fmt

let lookup t name =
  match find t name with
  | Some spec -> spec
  | None -> err "unknown function %s" (String.uppercase_ascii name)

let resolve t name =
  match Hashtbl.find_opt t.resolved name with
  | Some r -> r
  | None ->
    let r =
      match find t name with
      | Some spec ->
        Some
          {
            r_spec = spec;
            r_point = "fn/" ^ spec.Func_sig.name;
            r_prov = Fault.Prov.Func spec.Func_sig.name;
          }
      | None -> None
    in
    Hashtbl.add t.resolved name r;
    r

let has_star args = List.exists (fun a -> a.Fault.prov = Fault.Prov.Star) args
let has_null args =
  List.exists
    (fun a -> Value.is_null a.Fault.value && a.Fault.prov <> Fault.Prov.Star)
    args

let invoke_spec ctx ~point spec args =
  Fn_ctx.point ctx point;
  (* Injected flaws fire before the generic guards, as in a real DBMS where
     the buggy path runs before (or instead of) the validation. *)
  Fault.check ctx.Fn_ctx.fault ~func:spec.Func_sig.name args;
  (match spec.Func_sig.kind with
   | Func_sig.Scalar impl ->
     if not (Func_sig.arity_ok spec (List.length args)) then
       err "%s takes %s arguments, got %d" spec.Func_sig.name
         (match spec.Func_sig.max_args with
          | Some mx when mx = spec.Func_sig.min_args -> string_of_int mx
          | Some mx -> Printf.sprintf "%d..%d" spec.Func_sig.min_args mx
          | None -> Printf.sprintf "at least %d" spec.Func_sig.min_args)
         (List.length args)
     else if has_star args then
       err "improper use of '*' in arguments of %s" spec.Func_sig.name
     else if spec.Func_sig.null_propagates && has_null args then Value.Null
     else begin
       (* work is charged in proportion to argument size, so REPEAT-built
          monsters exhaust the per-statement budget (a resource kill, the
          paper's false-positive class) instead of wedging the process *)
       let bytes =
         List.fold_left (fun acc a -> acc + Value.size_of a.Fault.value) 0 args
       in
       Fn_ctx.tick ~cost:(1 + (bytes / 8)) ctx;
       impl ctx args
     end
   | Func_sig.Aggregate _ ->
     err "aggregate function %s used in scalar context" spec.Func_sig.name)

let invoke_scalar ctx t name args =
  match resolve t name with
  | Some r -> invoke_spec ctx ~point:r.r_point r.r_spec args
  | None -> err "unknown function %s" (String.uppercase_ascii name)

let is_aggregate t name =
  match resolve t name with
  | Some { r_spec = { Func_sig.kind = Func_sig.Aggregate _; _ }; _ } -> true
  | Some _ | None -> false

let make_aggregate_spec ctx spec ~distinct =
  match spec.Func_sig.kind with
  | Func_sig.Aggregate make ->
    Fn_ctx.point ctx ("fn/" ^ spec.Func_sig.name);
    let inst = make ctx ~distinct in
    let step args =
      Fault.check ctx.Fn_ctx.fault ~func:spec.Func_sig.name args;
      if has_star args && spec.Func_sig.name <> "COUNT" then
        err "improper use of '*' in arguments of %s" spec.Func_sig.name
      else if
        (not (Func_sig.arity_ok spec (List.length args)))
        && not (has_star args)
      then
        err "%s: wrong number of arguments (%d)" spec.Func_sig.name
          (List.length args)
      else begin
        let bytes =
          List.fold_left (fun acc a -> acc + Value.size_of a.Fault.value) 0 args
        in
        Fn_ctx.tick ~cost:(1 + (bytes / 8)) ctx;
        inst.Func_sig.step args
      end
    in
    { Func_sig.step; final = inst.Func_sig.final }
  | Func_sig.Scalar _ -> err "%s is not an aggregate function" spec.Func_sig.name

let make_aggregate ctx t name ~distinct =
  make_aggregate_spec ctx (lookup t name) ~distinct
