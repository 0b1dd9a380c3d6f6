open Sqlfun_ast
open Sqlfun_fault
open Sqlfun_functions

type case = {
  prereqs : Ast.stmt list;
  stmt : Ast.stmt;
  pattern : Pattern_id.t;
  origin : string;
}

(* ----- substitution plumbing ----- *)

(* The statement with call number [ci] (pre-order) replaced by [e]. A
   seed is a SELECT ([Collector.seed]) and every call index comes from
   [Ast_util.function_calls] of the same statement, so the rewrite
   always succeeds. *)
let replace_call stmt ci e = Option.get (Ast_util.replace_nth_call stmt ci e)

(* Replace argument [ai] of call [c], which is call number [ci] in
   [stmt]. The call node is passed in by the position enumeration —
   recomputing [Ast_util.function_calls] here would re-traverse the
   statement once per (position, variant) pair, an O(positions^2) hot
   path. [ci] still numbers the same pre-order walk [positions]
   enumerated. *)
let with_arg stmt ci (c : Ast.call) ai new_arg =
  let args = List.mapi (fun i a -> if i = ai then new_arg else a) c.Ast.args in
  replace_call stmt ci (Ast.Call { c with args })

(* All (call index, arg index, call, arg) positions of a statement. *)
let positions stmt =
  List.concat
    (List.mapi
       (fun ci (c : Ast.call) ->
         List.mapi (fun ai arg -> (ci, ai, c, arg)) c.Ast.args)
       (Ast_util.function_calls stmt))

let count_positions seeds =
  List.fold_left
    (fun acc (s : Collector.seed) -> acc + List.length (positions s.Collector.stmt))
    0 seeds

let seq_of_list = List.to_seq

(* Seeds with more than two function expressions are kept out of the
   nesting and argument-swapping patterns (Finding 3). *)
let small_seeds seeds =
  List.filter
    (fun (s : Collector.seed) -> Ast_util.count_function_exprs s.Collector.stmt <= 2)
    seeds

(* Time forcing each element of a generated stream as a ["generate"]
   span tagged [pattern]. *)
let timed telemetry ~pattern seq =
  match telemetry with
  | None -> seq
  | Some t ->
    Sqlfun_telemetry.Telemetry.time_seq t ~pattern ~stage:"generate" seq

(* ----- the string-literal surgery of P1.3 / P1.4 / P3.1 ----- *)

let splice_digits s =
  (* insert a 9-run after the first character and before the last *)
  let n = String.length s in
  List.concat_map
    (fun run_len ->
      let run = String.make run_len '9' in
      if n = 0 then [ run ]
      else
        [
          String.sub s 0 1 ^ run ^ String.sub s 1 (n - 1);
          String.sub s 0 (n - 1) ^ run ^ String.sub s (n - 1) 1;
        ])
    Boundary_pool.splice_lengths

let splice_into_number s =
  (* c[:i] + 99999 + c[i+1:] on the digit string, after the first digit
     and after the decimal point when present *)
  let insert_at i run =
    if i > String.length s then None
    else Some (String.sub s 0 i ^ run ^ String.sub s i (String.length s - i))
  in
  List.concat_map
    (fun run_len ->
      let run = String.make run_len '9' in
      let after_first = insert_at 1 run in
      let after_dot =
        match String.index_opt s '.' with
        | Some i -> insert_at (i + 1) run
        | None -> None
      in
      List.filter_map Fun.id [ after_first; after_dot ])
    Boundary_pool.splice_lengths

let duplicate_chars s =
  (* duplicate the first character k times, and the middle character *)
  let n = String.length s in
  if n = 0 then []
  else
    List.concat_map
      (fun k ->
        let first = String.make k s.[0] ^ s in
        let mid_idx = n / 2 in
        let mid =
          String.sub s 0 mid_idx
          ^ String.make k s.[mid_idx]
          ^ String.sub s mid_idx (n - mid_idx)
        in
        [ first; mid ])
      Boundary_pool.dup_factors

(* ----- the variants each pattern plants ----- *)

let p1_3_variants_of = function
  | Ast.Str_lit s when s <> "" ->
    List.map (fun s' -> Ast.Str_lit s') (splice_digits s)
  | Ast.Int_lit s -> List.map (fun s' -> Ast.Int_lit s') (splice_into_number s)
  | Ast.Dec_lit s -> List.map (fun s' -> Ast.Dec_lit s') (splice_into_number s)
  | _ -> []

let p1_4_variants_of = function
  | Ast.Str_lit s when s <> "" ->
    List.map (fun s' -> Ast.Str_lit s') (duplicate_chars s)
  | _ -> []

let scalar_subquery_union a b =
  Ast.Subquery
    {
      Ast.body =
        Ast.Body_union
          {
            all = false;
            left = Ast.Body_select (Ast.simple_select [ Ast.Proj_expr (a, None) ]);
            right = Ast.Body_select (Ast.simple_select [ Ast.Proj_expr (b, None) ]);
          };
      order_by = [];
      limit = None;
    }

(* P2.3: replace a call's argument list with another function's arguments.
   Donor lists are truncated to the receiver's maximum arity; missing
   positions keep the receiver's original arguments. *)
let is_literal_expr = function
  | Ast.Null | Ast.Bool_lit _ | Ast.Int_lit _ | Ast.Dec_lit _ | Ast.Str_lit _
  | Ast.Hex_lit _ ->
    true
  | _ -> false

let p2_3_donor_arglists donors =
  List.filter_map
    (fun (c : Ast.call) ->
      if c.Ast.args <> [] && List.for_all is_literal_expr c.Ast.args then
        Some c.Ast.args
      else None)
    donors

(* The replacement-call variants one receiver admits, in donor order:
   each donor list truncated to the receiver's maximum arity, missing
   positions keeping the receiver's original arguments, no-op and
   empty substitutions dropped. *)
let p2_3_variants_of spec (c : Ast.call) donor_arglists =
  List.filter_map
    (fun donor_args ->
      let max_n =
        match spec.Func_sig.max_args with
        | Some mx -> mx
        | None -> List.length donor_args
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      let taken = take max_n donor_args in
      let rec drop n = function
        | l when n = 0 -> l
        | [] -> []
        | _ :: rest -> drop (n - 1) rest
      in
      let args = taken @ drop (List.length taken) c.Ast.args in
      if args = c.Ast.args || args = [] then None
      else Some (Ast.Call { c with args }))
    donor_arglists

let p3_1_variants_of = function
  | Ast.Str_lit s when s <> "" ->
    let prefixes =
      List.sort_uniq compare
        [
          String.sub s 0 1;
          String.sub s 0 (Stdlib.min 2 (String.length s));
          String.sub s 0 (Stdlib.min 3 (String.length s));
        ]
    in
    List.concat_map
      (fun prefix ->
        List.map
          (fun count ->
            Ast.call "REPEAT"
              [ Ast.Str_lit prefix; Ast.Int_lit (string_of_int count) ])
          Boundary_pool.repeat_counts)
      prefixes
  | _ -> []

(* Wrappers for P3.2: any scalar function that accepts one argument. *)
let unary_wrappers registry =
  List.filter_map
    (fun spec ->
      match spec.Func_sig.kind with
      | Func_sig.Scalar _
        when spec.Func_sig.min_args <= 1
             && (match spec.Func_sig.max_args with
                 | Some mx -> mx >= 1
                 | None -> true)
             && spec.Func_sig.name <> "REPEAT" ->
        Some spec.Func_sig.name
      | Func_sig.Scalar _ | Func_sig.Aggregate _ -> None)
    (Registry.specs registry)

(* ----- position families -----

   Every generated case belongs to a position family: a pattern, the
   SQL it was derived from, a builder that makes member [i]'s case
   from its planted value, and the planted values in generation order.
   A pattern has one family per position it plants at (an argument of
   a call, or for P2.3 the call itself); its cases have no
   prerequisites and its builder ignores [i]. *)

type family = {
  f_pattern : Pattern_id.t;
  f_origin : string;
  f_build : int -> Ast.expr -> case;
  f_members : Ast.expr list;  (** never empty *)
}

type work = Seed of Ast.stmt | Family of family

(* A pattern's family at one position: [build v] is the seed with [v]
   planted there. *)
let family pattern origin build = function
  | [] -> None
  | members ->
    Some
      {
        f_pattern = pattern;
        f_origin = origin;
        f_build = (fun _ v -> { prereqs = []; stmt = build v; pattern; origin });
        f_members = members;
      }

(* The families of every seed; [at stmt origin] lists one seed's. *)
let seed_families seeds at =
  seq_of_list seeds
  |> Seq.concat_map (fun (seed : Collector.seed) ->
         let stmt = seed.Collector.stmt in
         at stmt (Sql_pp.stmt stmt))

(* One family per argument position: [variants_of call arg] lists the
   replacement arguments planted there. *)
let arg_families pattern seeds variants_of =
  seed_families seeds (fun stmt origin ->
      seq_of_list (positions stmt)
      |> Seq.filter_map (fun (ci, ai, call, arg) ->
             family pattern origin (with_arg stmt ci call ai)
               (variants_of call arg)))

let pattern_families ~registry ~seeds ~donors pattern =
  match pattern with
  | Pattern_id.P1_1 ->
    (* a bare SELECT * probe is not a function test *)
    Option.to_seq
      (family pattern "pool" Ast.select_expr
         (List.filter (fun l -> l <> Ast.Star) (Boundary_pool.all ())))
  | Pattern_id.P1_2 -> arg_families pattern seeds (fun _ _ -> Boundary_pool.all ())
  | Pattern_id.P1_3 ->
    arg_families pattern seeds (fun _ arg -> p1_3_variants_of arg)
  | Pattern_id.P1_4 ->
    arg_families pattern seeds (fun _ arg -> p1_4_variants_of arg)
  | Pattern_id.P2_1 ->
    arg_families pattern seeds (fun _ arg ->
        List.map (fun ty -> Ast.Cast (arg, ty)) Boundary_pool.cast_targets)
  | Pattern_id.P2_2 ->
    arg_families pattern seeds (fun _ arg ->
        if arg = Ast.Star then []
        else
          List.concat_map
            (fun partner ->
              [ scalar_subquery_union arg partner;
                scalar_subquery_union partner arg ])
            (Boundary_pool.union_partners ()))
  | Pattern_id.P2_3 ->
    (* Only literal argument lists migrate between functions: P2.3 is
       about *format* mismatch of plain values (a date string landing in
       a JSON slot); nested calls as arguments are P3.3's territory. *)
    let donor_arglists = p2_3_donor_arglists donors in
    seed_families (small_seeds seeds) (fun stmt origin ->
        seq_of_list (List.mapi (fun ci c -> (ci, c)) (Ast_util.function_calls stmt))
        |> Seq.filter_map (fun (ci, (c : Ast.call)) ->
               match Registry.find registry c.Ast.fname with
               | None -> None
               | Some spec ->
                 family pattern origin (replace_call stmt ci)
                   (p2_3_variants_of spec c donor_arglists)))
  | Pattern_id.P3_1 ->
    arg_families pattern (small_seeds seeds) (fun _ arg -> p3_1_variants_of arg)
  | Pattern_id.P3_2 ->
    let wrappers = unary_wrappers registry in
    arg_families pattern (small_seeds seeds) (fun _ arg ->
        if arg = Ast.Star then []
        else List.map (fun w -> Ast.call w [ arg ]) wrappers)
  | Pattern_id.P3_3 ->
    let donor_calls =
      List.filter
        (fun (c : Ast.call) -> Registry.mem registry c.Ast.fname)
        donors
    in
    arg_families pattern (small_seeds seeds) (fun (call : Ast.call) _ ->
        List.filter_map
          (fun (donor : Ast.call) ->
            if donor.Ast.fname = call.Ast.fname then None
            else Some (Ast.Call donor))
          donor_calls)

let family_cases f = Seq.mapi f.f_build (seq_of_list f.f_members)

let families ?telemetry ~registry ~seeds ~donors pattern =
  pattern_families ~registry ~seeds ~donors pattern
  |> timed telemetry ~pattern:(Pattern_id.to_string pattern)

let work_size = function Seed _ -> 1 | Family f -> List.length f.f_members

(* [f]'s builder for its members from index [k] on: a family's part
   keeps building the cases of the whole family. *)
let from k f = fun i v -> f.f_build (k + i) v

let split_family f k =
  let rec take_drop k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | v :: rest -> take_drop (k - 1) (v :: acc) rest
  in
  let first, rest = take_drop k [] f.f_members in
  ( { f with f_members = first },
    { f with f_build = from (List.length first) f; f_members = rest } )

(* ----- stateful scenarios: prerequisite synthesis -----

   A scenario kind is a stream of position families too: one
   probe/prerequisite shape and the values planted through it. Member
   [i]'s case is the prerequisites then the probe for the [i]-th
   value; kinds A and D rotate their wrapper function by [i]. Every
   family's probes share one call structure and differ only in a leaf
   literal or in which unary wrapper they call, so the first probe's
   positions count for each of the family's scenarios. *)

(* [prereqs i v] and [probe i v] are member [i]'s statements. *)
let stateful_family pattern origin ~prereqs ~probe members =
  {
    f_pattern = pattern;
    f_origin = origin;
    f_build =
      (fun i v -> { prereqs = prereqs i v; stmt = probe i v; pattern; origin });
    f_members = members;
  }

(* Synthesized table shapes use one boundary-typed column [v]; the
   table name is per-kind and fixed — safe to reuse across scenarios
   because the detector restores the post-seed storage baseline after
   every stateful scenario. *)
let col ty =
  { Ast.col_name = "v"; col_type = ty; col_not_null = false; col_default = None }

let create_tbl name ty =
  Ast.Create_table { tbl_name = name; columns = [ col ty ]; if_not_exists = false }

let insert_into name e =
  Ast.Insert { ins_table = name; ins_columns = []; rows = [ [ e ] ] }

let select_from ?where e tbl =
  let sel =
    {
      (Ast.simple_select [ Ast.Proj_expr (e, None) ]) with
      Ast.from = Some (Ast.From_table (tbl, None));
      where;
    }
  in
  Ast.Select_stmt (Ast.query_of_select sel)

let pool_literals () =
  List.filter (fun e -> e <> Ast.Star) (Boundary_pool.all ())

let nth_round l i = List.nth l (i mod List.length l)

(* Kind A — stored boundary probe: the boundary literal travels through
   the INSERT cast into a boundary-typed column, and the probe reads it
   back through a function. The 35-nines literal is parse-stage ground
   truth; 25/30-nines through a TEXT column are storage-stage ground
   truth; everything else reaches the probed function at execute stage
   with [Column] provenance. One family per column type. *)
let scen_stored wrappers =
  if wrappers = [] then Seq.empty
  else
    let tys =
      [ Ast.T_text; Ast.T_decimal (Some (38, 10)); Ast.T_bigint; Ast.T_double ]
    in
    let lits = pool_literals () in
    seq_of_list tys
    |> Seq.map (fun ty ->
           stateful_family Pattern_id.P1_2 "scenario:stored"
             ~prereqs:(fun _ lit ->
               [ create_tbl "soft_sa" ty; insert_into "soft_sa" lit ])
             ~probe:(fun i _ ->
               select_from
                 (Ast.call (nth_round wrappers i) [ Ast.Column (None, "v") ])
                 "soft_sa")
             lits)

(* The donor call with its first argument replaced by [lit]. *)
let plant_first (donor : Ast.call) lit =
  Ast.Call { donor with Ast.args = lit :: List.tl donor.Ast.args }

(* Kind B — INSERT-position probe: the function expression sits inside
   the probe's VALUES clause, so its boundary result crosses the cast
   into the column and then the storage layer. One family per donor
   call. *)
let scen_insert_position donor_calls =
  let lits = pool_literals () in
  seq_of_list donor_calls
  |> Seq.map (fun donor ->
         stateful_family Pattern_id.P1_2 "scenario:insert-position"
           ~prereqs:(fun _ _ -> [ create_tbl "soft_sb" Ast.T_text ])
           ~probe:(fun _ lit -> insert_into "soft_sb" (plant_first donor lit))
           lits)

(* Kind C — WHERE-position probe: the function expression gates a scan
   of a prerequisite table. One family per donor call. *)
let scen_where_position donor_calls =
  let lits = pool_literals () in
  seq_of_list donor_calls
  |> Seq.map (fun donor ->
         stateful_family Pattern_id.P1_2 "scenario:where-position"
           ~prereqs:(fun _ _ ->
             [ create_tbl "soft_sc" Ast.T_text; insert_into "soft_sc" (Ast.str_lit "x") ])
           ~probe:(fun _ lit ->
             select_from
               ~where:(Ast.Is_null (plant_first donor lit, true))
               (Ast.Column (None, "v"))
               "soft_sc")
           lits)

(* Kind D — session state: the prerequisite advances `Fn_ctx` session
   state (insert counters, sequences) and the probe reads it back
   through a wrapping function, in the P3.2 style. Two families: the
   integer literals inserted before [LAST_INSERT_ID()], and the wrapped
   [LASTVAL] reads after a [NEXTVAL]. *)
let scen_session ~registry wrappers =
  if wrappers = [] then Seq.empty
  else
    let last_id =
      if not (Registry.mem registry "LAST_INSERT_ID") then None
      else
        Some
          (stateful_family Pattern_id.P3_2 "scenario:session"
             ~prereqs:(fun _ lit ->
               [ create_tbl "soft_sd" Ast.T_bigint; insert_into "soft_sd" lit ])
             ~probe:(fun i _ ->
               Ast.select_expr
                 (Ast.call (nth_round wrappers i) [ Ast.call "LAST_INSERT_ID" [] ]))
             (Boundary_pool.int_literals ()))
    in
    let sequences =
      if
        not (Registry.mem registry "NEXTVAL" && Registry.mem registry "LASTVAL")
      then None
      else
        Some
          (stateful_family Pattern_id.P3_2 "scenario:sequence"
             ~prereqs:(fun _ _ ->
               [ Ast.select_expr (Ast.call "NEXTVAL" [ Ast.str_lit "soft_seq" ]) ])
             ~probe:(fun _ read -> Ast.select_expr read)
             (List.map
                (fun w -> Ast.call w [ Ast.call "LASTVAL" [ Ast.str_lit "soft_seq" ] ])
                wrappers))
    in
    Seq.append (Option.to_seq last_id) (Option.to_seq sequences)

(* Kind E — extreme-typed columns: CREATE declares a decimal wider or
   deeper than any seed table, the INSERT drives a deep-scale value
   through the implicit cast, and the probe re-casts what was stored.
   Declared precision 40 is parse-stage ground truth; stored scale 18
   is storage-stage ground truth. One family per column type. *)
let scen_extreme_type () =
  let nines n = String.make n '9' in
  let tys = [ Ast.T_decimal (Some (40, 20)); Ast.T_decimal (Some (38, 18)) ] in
  let lits =
    [
      Ast.Dec_lit ("0." ^ nines 18);
      Ast.Dec_lit ("-0." ^ nines 18);
      Ast.Dec_lit (nines 20 ^ "." ^ nines 18);
      Ast.Int_lit (nines 35);
      Ast.Dec_lit ("0.5");
      Ast.Null;
    ]
  in
  let probe =
    select_from (Ast.Cast (Ast.Column (None, "v"), Ast.T_text)) "soft_se"
  in
  seq_of_list tys
  |> Seq.map (fun ty ->
         stateful_family Pattern_id.P2_1 "scenario:extreme-type"
           ~prereqs:(fun _ lit -> [ create_tbl "soft_se" ty; insert_into "soft_se" lit ])
           ~probe:(fun _ _ -> probe)
           lits)

(* The five kinds' family streams, in interleave order. *)
let scenario_kinds ~registry ~donors =
  (* the seeds' registered calls with an argument to plant at *)
  let donor_calls =
    List.filter
      (fun (c : Ast.call) ->
        Registry.mem registry c.Ast.fname && c.Ast.args <> [])
      donors
  in
  let wrappers = unary_wrappers registry in
  [
    scen_stored wrappers;
    scen_insert_position donor_calls;
    scen_where_position donor_calls;
    scen_session ~registry wrappers;
    scen_extreme_type ();
  ]

(* Round-robin interleave so a budget-truncated prefix still samples
   every scenario kind (and therefore every occurrence stage) early. *)
let interleave (streams : 'a Seq.t list) : 'a Seq.t =
  let rec go streams () =
    let heads =
      List.filter_map
        (fun s -> match s () with Seq.Nil -> None | Seq.Cons (x, tl) -> Some (x, tl))
        streams
    in
    if heads = [] then Seq.Nil
    else
      Seq.append
        (List.to_seq (List.map fst heads))
        (go (List.map snd heads))
        ()
  in
  go streams

(* The kinds' family streams, each member [i] split off as a
   one-member family of its own (built, like every family member, only
   when it is run), then interleaved scenario by scenario. *)
let scenario_families ?telemetry ~registry ~donors () =
  scenario_kinds ~registry ~donors
  |> List.map
       (Seq.concat_map (fun f ->
            Seq.mapi
              (fun i v -> { f with f_build = from i f; f_members = [ v ] })
              (seq_of_list f.f_members)))
  |> interleave
  |> timed telemetry ~pattern:"scenario"

(* The counting driver: each family's first probe stands for all of
   its values, so no scenario past a family's first is built. *)
let family_positions f =
  match f.f_members with
  | [] -> 0
  | v :: _ ->
    List.length f.f_members * List.length (positions (f.f_build 0 v).stmt)

let scenario_positions ~registry ~donors =
  List.fold_left
    (Seq.fold_left (fun acc f -> acc + family_positions f))
    0
    (scenario_kinds ~registry ~donors)
