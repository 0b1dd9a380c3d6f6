open Sqlfun_value
open Sqlfun_fault
open Sqlfun_coverage
module Profile = Sqlfun_telemetry.Profile

type resolved = {
  r_spec : Func_sig.t;
  r_name : string;  (* the raw statement spelling: the profile key *)
  r_point : string;  (* "fn/" ^ spec.name, built once *)
  r_prov : Fault.Prov.t;  (* Prov.Func spec.name, built once *)
  (* one engine's instrumentation handles, bound on first use and
     re-bound whenever the identity check against the engine in hand
     fails *)
  mutable r_cell : Coverage.cell;
  mutable r_stats : Profile.fn_stats;
  mutable r_fault : Fault.runtime;
  mutable r_faults : Fault.spec list;
}

(* owned by no engine, so the first use of a resolution always binds *)
let unbound_cell = Coverage.cell (Coverage.create ()) ""
let unbound_stats = Profile.fn_stats (Profile.create ()) ""
let unbound_fault = Fault.make []

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
         single-domain, and so are the handles each resolution keeps:
         they stay bound to that engine's recorder, profiler and fault
         runtime. [None] caches unknown spellings. *)
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

let resolve t name =
  match Hashtbl.find t.resolved name with
  | r -> r
  | exception Not_found ->
    let r =
      match find t name with
      | Some spec ->
        Some
          {
            r_spec = spec;
            r_name = name;
            r_point = "fn/" ^ spec.Func_sig.name;
            r_prov = Fault.Prov.Func spec.Func_sig.name;
            r_cell = unbound_cell;
            r_stats = unbound_stats;
            r_fault = unbound_fault;
            r_faults = [];
          }
      | None -> None
    in
    Hashtbl.add t.resolved name r;
    r

let spec r = r.r_spec
let prov r = r.r_prov

let enter prof r =
  if not (Profile.owns prof r.r_stats) then
    r.r_stats <- Profile.fn_stats prof r.r_name;
  Profile.enter_with prof r.r_stats Profile.Eval

(* the coverage cell and the fault specs of [ctx]'s engine *)
let bind ctx r =
  if not (Coverage.owns ctx.Fn_ctx.cov r.r_cell) then
    r.r_cell <- Coverage.cell ctx.Fn_ctx.cov r.r_point;
  if r.r_fault != ctx.Fn_ctx.fault then begin
    r.r_fault <- ctx.Fn_ctx.fault;
    r.r_faults <-
      Fault.execute_specs ctx.Fn_ctx.fault ~func:r.r_spec.Func_sig.name
  end

let has_star args = List.exists (fun a -> a.Fault.prov = Fault.Prov.Star) args
let has_null args =
  List.exists
    (fun a -> Value.is_null a.Fault.value && a.Fault.prov <> Fault.Prov.Star)
    args

let invoke ctx r args =
  let spec = r.r_spec in
  bind ctx r;
  Coverage.hit_cell r.r_cell;
  (* Injected flaws fire before the generic guards, as in a real DBMS where
     the buggy path runs before (or instead of) the validation. *)
  Fault.check_specs r.r_fault r.r_faults args;
  (match spec.Func_sig.kind with
   | Func_sig.Scalar impl ->
     if not (Func_sig.arity_ok spec (List.length args)) then
       Fn_ctx.err "%s takes %s arguments, got %d" spec.Func_sig.name
         (match spec.Func_sig.max_args with
          | Some mx when mx = spec.Func_sig.min_args -> string_of_int mx
          | Some mx -> Printf.sprintf "%d..%d" spec.Func_sig.min_args mx
          | None -> Printf.sprintf "at least %d" spec.Func_sig.min_args)
         (List.length args)
     else if has_star args then
       Fn_ctx.err "improper use of '*' in arguments of %s" spec.Func_sig.name
     else if spec.Func_sig.null_propagates && has_null args then Value.Null
     else begin
       (* work is charged in proportion to argument size, so REPEAT-built
          monsters exhaust the per-statement budget (a resource kill, the
          paper's false-positive class) instead of wedging the process *)
       let bytes =
         List.fold_left (fun acc a -> acc + Value.size_of a.Fault.value) 0 args
       in
       Fn_ctx.charge ctx (1 + (bytes / 8));
       impl ctx args
     end
   | Func_sig.Aggregate _ ->
     Fn_ctx.err "aggregate function %s used in scalar context" spec.Func_sig.name)

let is_aggregate t name =
  match resolve t name with
  | Some { r_spec = { Func_sig.kind = Func_sig.Aggregate _; _ }; _ } -> true
  | Some _ | None -> false

let aggregate ctx r ~distinct =
  let spec = r.r_spec in
  match spec.Func_sig.kind with
  | Func_sig.Aggregate make ->
    bind ctx r;
    Coverage.hit_cell r.r_cell;
    let inst = make ctx ~distinct in
    let fault = r.r_fault and faults = r.r_faults in
    let step args =
      Fault.check_specs fault faults args;
      if has_star args && spec.Func_sig.name <> "COUNT" then
        Fn_ctx.err "improper use of '*' in arguments of %s" spec.Func_sig.name
      else if
        (not (Func_sig.arity_ok spec (List.length args)))
        && not (has_star args)
      then
        Fn_ctx.err "%s: wrong number of arguments (%d)" spec.Func_sig.name
          (List.length args)
      else begin
        let bytes =
          List.fold_left (fun acc a -> acc + Value.size_of a.Fault.value) 0 args
        in
        Fn_ctx.charge ctx (1 + (bytes / 8));
        inst.Func_sig.step args
      end
    in
    { Func_sig.step; final = inst.Func_sig.final }
  | Func_sig.Scalar _ -> Fn_ctx.err "%s is not an aggregate function" spec.Func_sig.name

let make_aggregate ctx t name ~distinct =
  match resolve t name with
  | Some r -> aggregate ctx r ~distinct
  | None -> Fn_ctx.err "unknown function %s" (String.uppercase_ascii name)
