open Ast

let rec fold_exprs f acc e =
  let acc = f acc e in
  match e with
  | Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _ | Star
  | Column _ ->
    acc
  | Call { args; _ } -> List.fold_left (fold_exprs f) acc args
  | Cast (e1, _) | Unop (_, e1) | Is_null (e1, _) -> fold_exprs f acc e1
  | Binop (_, a, b) -> fold_exprs f (fold_exprs f acc a) b
  | Row es | Array_lit es -> List.fold_left (fold_exprs f) acc es
  | Case { operand; branches; else_ } ->
    let acc =
      match operand with Some e1 -> fold_exprs f acc e1 | None -> acc
    in
    let acc =
      List.fold_left
        (fun acc (w, t) -> fold_exprs f (fold_exprs f acc w) t)
        acc branches
    in
    (match else_ with Some e1 -> fold_exprs f acc e1 | None -> acc)
  | In_list (e1, es) -> List.fold_left (fold_exprs f) (fold_exprs f acc e1) es
  | Between (e1, lo, hi) ->
    fold_exprs f (fold_exprs f (fold_exprs f acc e1) lo) hi
  | Subquery q | Exists q -> fold_query f acc q

and fold_select f acc s =
  let acc =
    List.fold_left
      (fun acc item ->
        match item with
        | Proj_star -> acc
        | Proj_expr (e, _) -> fold_exprs f acc e)
      acc s.projection
  in
  let rec fold_from acc = function
    | From_subquery (q, _) -> fold_query f acc q
    | From_table _ -> acc
    | From_join { left; right; on; _ } ->
      let acc = fold_from (fold_from acc left) right in
      (match on with Some e -> fold_exprs f acc e | None -> acc)
  in
  let acc = match s.from with Some fr -> fold_from acc fr | None -> acc in
  let acc = match s.where with Some e -> fold_exprs f acc e | None -> acc in
  let acc = List.fold_left (fold_exprs f) acc s.group_by in
  match s.having with Some e -> fold_exprs f acc e | None -> acc

and fold_body f acc = function
  | Body_select s -> fold_select f acc s
  | Body_union { left; right; _ } -> fold_body f (fold_body f acc left) right

and fold_query f acc q =
  let acc = fold_body f acc q.body in
  List.fold_left (fun acc { ord_expr; _ } -> fold_exprs f acc ord_expr) acc
    q.order_by

let rec fold_stmt_exprs f acc = function
  | Select_stmt q -> fold_query f acc q
  | Explain s -> fold_stmt_exprs f acc s
  | Create_table { columns; _ } ->
    List.fold_left
      (fun acc c ->
        match c.col_default with Some e -> fold_exprs f acc e | None -> acc)
      acc columns
  | Insert { rows; _ } ->
    List.fold_left (fun acc r -> List.fold_left (fold_exprs f) acc r) acc rows
  | Drop_table _ -> acc

let collect_calls fold x =
  let calls =
    fold (fun acc e -> match e with Call c -> c :: acc | _ -> acc) [] x
  in
  List.rev calls

let function_calls stmt = collect_calls (fun f acc -> fold_stmt_exprs f acc) stmt
let count_function_exprs stmt = List.length (function_calls stmt)

let rec call_depth e =
  let sub_depth es =
    List.fold_left (fun m x -> Stdlib.max m (call_depth x)) 0 es
  in
  match e with
  | Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _ | Star
  | Column _ ->
    0
  | Call { args; _ } -> 1 + sub_depth args
  | Cast (e1, _) | Unop (_, e1) | Is_null (e1, _) -> call_depth e1
  | Binop (_, a, b) -> sub_depth [ a; b ]
  | Row es | Array_lit es -> sub_depth es
  | In_list (e1, es) -> sub_depth (e1 :: es)
  | Case { operand; branches; else_ } ->
    let es =
      (match operand with Some e1 -> [ e1 ] | None -> [])
      @ List.concat_map (fun (w, t) -> [ w; t ]) branches
      @ (match else_ with Some e1 -> [ e1 ] | None -> [])
    in
    sub_depth es
  | Between (e1, lo, hi) -> sub_depth [ e1; lo; hi ]
  | Subquery q | Exists q -> query_call_depth q

and query_call_depth q =
  fold_query
    (fun m e -> match e with Call _ -> Stdlib.max m (call_depth e) | _ -> m)
    0 q

(* Bottom-up expression rewriting over a whole statement. *)
let rec rewrite_expr f e =
  let e' =
    match e with
    | Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _ | Star
    | Column _ ->
      e
    | Call c -> Call { c with args = List.map (rewrite_expr f) c.args }
    | Cast (e1, t) -> Cast (rewrite_expr f e1, t)
    | Unop (op, e1) -> Unop (op, rewrite_expr f e1)
    | Binop (op, a, b) -> Binop (op, rewrite_expr f a, rewrite_expr f b)
    | Row es -> Row (List.map (rewrite_expr f) es)
    | Array_lit es -> Array_lit (List.map (rewrite_expr f) es)
    | Case { operand; branches; else_ } ->
      Case
        {
          operand = Option.map (rewrite_expr f) operand;
          branches =
            List.map
              (fun (w, t) -> (rewrite_expr f w, rewrite_expr f t))
              branches;
          else_ = Option.map (rewrite_expr f) else_;
        }
    | In_list (e1, es) -> In_list (rewrite_expr f e1, List.map (rewrite_expr f) es)
    | Is_null (e1, n) -> Is_null (rewrite_expr f e1, n)
    | Between (e1, lo, hi) ->
      Between (rewrite_expr f e1, rewrite_expr f lo, rewrite_expr f hi)
    | Subquery q -> Subquery (rewrite_query f q)
    | Exists q -> Exists (rewrite_query f q)
  in
  f e'

and rewrite_select f s =
  {
    s with
    projection =
      List.map
        (function
          | Proj_star -> Proj_star
          | Proj_expr (e, a) -> Proj_expr (rewrite_expr f e, a))
        s.projection;
    from =
      (let rec rw = function
         | From_subquery (q, a) -> From_subquery (rewrite_query f q, a)
         | From_table _ as t -> t
         | From_join { left; right; kind; on } ->
           From_join
             {
               left = rw left;
               right = rw right;
               kind;
               on = Option.map (rewrite_expr f) on;
             }
       in
       Option.map rw s.from);
    where = Option.map (rewrite_expr f) s.where;
    group_by = List.map (rewrite_expr f) s.group_by;
    having = Option.map (rewrite_expr f) s.having;
  }

and rewrite_body f = function
  | Body_select s -> Body_select (rewrite_select f s)
  | Body_union { all; left; right } ->
    Body_union { all; left = rewrite_body f left; right = rewrite_body f right }

and rewrite_query f q =
  {
    q with
    body = rewrite_body f q.body;
    order_by =
      List.map
        (fun o -> { o with ord_expr = rewrite_expr f o.ord_expr })
        q.order_by;
  }

let rec map_exprs f = function
  | Select_stmt q -> Select_stmt (rewrite_query f q)
  | Explain s -> Explain (map_exprs f s)
  | Create_table ct ->
    Create_table
      {
        ct with
        columns =
          List.map
            (fun c ->
              { c with col_default = Option.map (rewrite_expr f) c.col_default })
            ct.columns;
      }
  | Insert ins ->
    Insert { ins with rows = List.map (List.map (rewrite_expr f)) ins.rows }
  | Drop_table _ as s -> s

(* Pre-order call replacement: each Call node takes the next index before
   its children are visited, matching the numbering of [function_calls]. *)
let replace_nth_call stmt n replacement =
  let idx = ref (-1) in
  let rec renumber e =
    match e with
    | Call c ->
      incr idx;
      let here = !idx in
      let args = List.map renumber c.args in
      if here = n then replacement else Call { c with args }
    | Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _ | Star
    | Column _ ->
      e
    | Cast (e1, t) -> Cast (renumber e1, t)
    | Unop (op, e1) -> Unop (op, renumber e1)
    | Binop (op, a, b) ->
      let a = renumber a in
      Binop (op, a, renumber b)
    | Row es -> Row (List.map renumber es)
    | Array_lit es -> Array_lit (List.map renumber es)
    | Case { operand; branches; else_ } ->
      let operand = Option.map renumber operand in
      let branches =
        List.map
          (fun (w, t) ->
            let w = renumber w in
            (w, renumber t))
          branches
      in
      Case { operand; branches; else_ = Option.map renumber else_ }
    | In_list (e1, es) ->
      let e1 = renumber e1 in
      In_list (e1, List.map renumber es)
    | Is_null (e1, neg) -> Is_null (renumber e1, neg)
    | Between (e1, lo, hi) ->
      let e1 = renumber e1 in
      let lo = renumber lo in
      Between (e1, lo, renumber hi)
    | Subquery q -> Subquery (renumber_query q)
    | Exists q -> Exists (renumber_query q)
  and renumber_select s =
    let projection =
      List.map
        (function
          | Proj_star -> Proj_star
          | Proj_expr (e, a) -> Proj_expr (renumber e, a))
        s.projection
    in
    let from =
      let rec rn = function
        | From_subquery (q, a) -> From_subquery (renumber_query q, a)
        | From_table _ as t -> t
        | From_join { left; right; kind; on } ->
          let left = rn left in
          let right = rn right in
          From_join { left; right; kind; on = Option.map renumber on }
      in
      Option.map rn s.from
    in
    let where = Option.map renumber s.where in
    let group_by = List.map renumber s.group_by in
    let having = Option.map renumber s.having in
    { s with projection; from; where; group_by; having }
  and renumber_body = function
    | Body_select s -> Body_select (renumber_select s)
    | Body_union { all; left; right } ->
      let left = renumber_body left in
      Body_union { all; left; right = renumber_body right }
  and renumber_query q =
    let body = renumber_body q.body in
    let order_by =
      List.map (fun o -> { o with ord_expr = renumber o.ord_expr }) q.order_by
    in
    { q with body; order_by }
  in
  match stmt with
  | Select_stmt q ->
    let q' = renumber_query q in
    if !idx >= n then Some (Select_stmt q') else None
  | Insert ins ->
    let rows = List.map (List.map renumber) ins.rows in
    if !idx >= n then Some (Insert { ins with rows }) else None
  | Explain _ | Create_table _ | Drop_table _ -> None

(* The AST is strings/ints/bools/variants all the way down, so the
   polymorphic structural equality is exactly statement identity. *)
let equal_stmt (a : Ast.stmt) (b : Ast.stmt) = a = b

let referenced_tables stmt =
  let rec of_from acc = function
    | From_table (t, _) -> t :: acc
    | From_subquery (q, _) -> of_query acc q
    | From_join { left; right; _ } -> of_from (of_from acc left) right
  and of_body acc = function
    | Body_select s ->
      (match s.from with Some fr -> of_from acc fr | None -> acc)
    | Body_union { left; right; _ } -> of_body (of_body acc left) right
  and of_query acc q = of_body acc q.body in
  let rec base_of = function
    | Select_stmt q -> of_query [] q
    | Insert { ins_table; _ } -> [ ins_table ]
    | Explain s -> base_of s
    | Create_table _ | Drop_table _ -> []
  in
  let base = base_of stmt in
  let from_exprs =
    fold_stmt_exprs
      (fun acc e ->
        match e with Subquery q | Exists q -> of_query acc q | _ -> acc)
      [] stmt
  in
  let all = List.rev base @ List.rev from_exprs in
  List.fold_left (fun acc t -> if List.mem t acc then acc else acc @ [ t ]) [] all
