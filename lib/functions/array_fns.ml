(** Built-in array and map functions (the DuckDB/ClickHouse surface —
    arrays are DuckDB's most bug-prone category in Table 4). *)

open Sqlfun_value

let arr_scalar = Func_sig.scalar ~category:"array"
let map_scalar = Func_sig.scalar ~category:"map"

let array_length_fn =
  arr_scalar "ARRAY_LENGTH" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_array ] ~examples:[ "ARRAY_LENGTH(ARRAY[1, 2])" ]
    (fun ctx args -> Value.Int (Int64.of_int (Args.array_length ctx args 0)))

let array_append_fn =
  arr_scalar "ARRAY_APPEND" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_array; Func_sig.H_any ]
    ~examples:[ "ARRAY_APPEND(ARRAY['x'], 'y')" ]
    (fun ctx args ->
      let vs = Args.array ctx args 0 in
      if List.length vs >= ctx.Fn_ctx.limits.max_collection then
        raise (Fn_ctx.Resource_limit "array too large");
      Value.Arr (vs @ [ Args.value args 1 ]))

let array_prepend_fn =
  arr_scalar "ARRAY_PREPEND" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_any; Func_sig.H_array ]
    ~examples:[ "ARRAY_PREPEND(0, ARRAY[1])" ]
    (fun ctx args -> Value.Arr (Args.value args 0 :: Args.array ctx args 1))

let array_concat_fn =
  arr_scalar "ARRAY_CONCAT" ~min_args:2 ~max_args:None
    ~hints:[ Func_sig.H_array ] ~examples:[ "ARRAY_CONCAT(ARRAY[1], ARRAY[2])" ]
    (fun ctx args ->
      let all = List.concat (List.mapi (fun i _ -> Args.array ctx args i) args) in
      if List.length all > ctx.Fn_ctx.limits.max_collection then
        raise (Fn_ctx.Resource_limit "ARRAY_CONCAT result too large");
      Value.Arr all)

let array_contains_fn =
  arr_scalar "ARRAY_CONTAINS" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_array; Func_sig.H_any ]
    ~examples:[ "ARRAY_CONTAINS(ARRAY[1, 2], 2)" ]
    (fun ctx args ->
      let vs = Args.array ctx args 0 in
      let needle = Args.value args 1 in
      Value.Bool (List.exists (fun v -> Value.equal v needle) vs))

let array_position_fn =
  arr_scalar "ARRAY_POSITION" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_array; Func_sig.H_any ]
    ~examples:[ "ARRAY_POSITION(ARRAY[1, 2], 2)" ]
    (fun ctx args ->
      let vs = Args.array ctx args 0 in
      let needle = Args.value args 1 in
      let rec go i = function
        | [] -> Value.Null
        | v :: rest -> if Value.equal v needle then Value.Int (Int64.of_int i) else go (i + 1) rest
      in
      go 1 vs)

let array_element_fn =
  arr_scalar "ARRAY_ELEMENT" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_array; Func_sig.H_int ]
    ~examples:[ "ARRAY_ELEMENT(ARRAY[1, 2], 1)" ]
    (fun ctx args ->
      let arr = Args.array_value ctx args 0 in
      let i = Args.small_int ctx args 1 in
      (* 1-based, negative indexes from the back (ClickHouse) *)
      match arr with
      | Value.Range_arr r ->
        let n = r.Value.rg_len in
        let idx = if Fn_ctx.branch ctx "array-elem/neg" (i < 0) then n + i else i - 1 in
        if idx < 0 || idx >= n then Value.Null else Value.range_nth r idx
      | Value.Arr vs ->
        let n = List.length vs in
        let idx = if Fn_ctx.branch ctx "array-elem/neg" (i < 0) then n + i else i - 1 in
        if idx < 0 then Value.Null
        else
          (match List.nth_opt vs idx with
           | Some v -> v
           | None -> Value.Null)
      | _ -> assert false (* array_value returns Arr or Range_arr *))

let array_slice_fn =
  arr_scalar "ARRAY_SLICE" ~min_args:3 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_array; Func_sig.H_int; Func_sig.H_int ]
    ~examples:[ "ARRAY_SLICE(ARRAY[1, 2, 3], 1, 2)" ]
    (fun ctx args ->
      let arr = Args.array_value ctx args 0 in
      let start = Args.small_int ctx args 1 in
      let len = Args.small_int ctx args 2 in
      if start < 1 then Fn_ctx.err "ARRAY_SLICE: start must be >= 1";
      if len < 0 then Fn_ctx.err "ARRAY_SLICE: negative length";
      match arr with
      | Value.Range_arr r ->
        (* O(1): a slice of an arithmetic sequence is one *)
        let avail = r.Value.rg_len - (start - 1) in
        let take = Stdlib.min len (Stdlib.max 0 avail) in
        if take = 0 then Value.Arr []
        else Value.range_slice r ~offset:(start - 1) ~len:take
      | Value.Arr vs ->
        (* single pass (the old take-of-drop walked the prefix twice):
           skip below the window, collect inside it, stop at its end *)
        let rec slice i acc = function
          | [] -> List.rev acc
          | v :: rest ->
            if i < start - 1 then slice (i + 1) acc rest
            else if i - (start - 1) < len then slice (i + 1) (v :: acc) rest
            else List.rev acc
        in
        Value.Arr (slice 0 [] vs)
      | _ -> assert false (* array_value returns Arr or Range_arr *))

let array_reverse_fn =
  arr_scalar "ARRAY_REVERSE" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_array ] ~examples:[ "ARRAY_REVERSE(ARRAY[1, 2])" ]
    (fun ctx args ->
      match Args.array_value ctx args 0 with
      | Value.Range_arr r -> Value.range_rev r  (* O(1): flip first/step *)
      | Value.Arr vs -> Value.Arr (List.rev vs)
      | _ -> assert false (* array_value returns Arr or Range_arr *))

let array_distinct_fn =
  arr_scalar "ARRAY_DISTINCT" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_array ] ~examples:[ "ARRAY_DISTINCT(ARRAY[1, 1, 2])" ]
    (fun ctx args ->
      let vs = Args.array ctx args 0 in
      (* dedup is quadratic: charge it up front so huge inputs terminate
         as a resource kill instead of wedging the evaluator *)
      let n = List.length vs in
      Fn_ctx.tick ~cost:(1 + (n * n / 64)) ctx;
      let out =
        List.fold_left
          (fun acc v ->
            if List.exists (fun u -> Value.equal u v) acc then acc else v :: acc)
          [] vs
      in
      Value.Arr (List.rev out))

let array_sort_fn =
  arr_scalar "ARRAY_SORT" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_array ] ~examples:[ "ARRAY_SORT(ARRAY[3, 1, 2])" ]
    (fun ctx args ->
      let vs = Args.array ctx args 0 in
      Fn_ctx.tick ~cost:(1 + (List.length vs * 4)) ctx;
      let cmp a b =
        match Value.compare_values a b with
        | Some c -> c
        | None ->
          Fn_ctx.point ctx "array-sort/incomparable";
          Fn_ctx.err "ARRAY_SORT: incomparable elements"
      in
      Value.Arr (List.sort cmp vs))

let array_extremum name keep =
  arr_scalar name ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_array ]
    ~examples:[ Printf.sprintf "%s(ARRAY[1, 2])" name ]
    (fun ctx args ->
      match Args.array_value ctx args 0 with
      | Value.Range_arr r ->
        (* O(1): a monotone sequence's extrema are its endpoints *)
        let a = r.Value.rg_first and b = Value.range_last r in
        Value.Int (if keep (Int64.compare b a) then b else a)
      | Value.Arr [] -> Value.Null
      | Value.Arr (first :: rest) ->
        List.fold_left
          (fun best v ->
            match Value.compare_values v best with
            | Some c -> if keep c then v else best
            | None -> Fn_ctx.err "%s: incomparable elements" name)
          first rest
      | _ -> assert false (* array_value returns Arr or Range_arr *))

let array_min_fn = array_extremum "ARRAY_MIN" (fun c -> c < 0)
let array_max_fn = array_extremum "ARRAY_MAX" (fun c -> c > 0)

let array_join_fn =
  arr_scalar "ARRAY_JOIN" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_array; Func_sig.H_sep ]
    ~examples:[ "ARRAY_JOIN(ARRAY['a', 'b'], '-')" ]
    (fun ctx args ->
      let vs = Args.array ctx args 0 in
      let sep = Args.str ctx args 1 in
      let parts = List.map Value.to_display vs in
      let total =
        List.fold_left (fun a s -> a + String.length s + String.length sep) 0 parts
      in
      Fn_ctx.alloc_check ctx total;
      Value.Str (String.concat sep parts))

let array_flatten_fn =
  arr_scalar "ARRAY_FLATTEN" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_array ]
    ~examples:[ "ARRAY_FLATTEN(ARRAY[ARRAY[1], ARRAY[2]])" ]
    (fun ctx args ->
      let vs = Args.array ctx args 0 in
      let flat =
        List.concat_map (function Value.Arr inner -> inner | other -> [ other ]) vs
      in
      if List.length flat > ctx.Fn_ctx.limits.max_collection then
        raise (Fn_ctx.Resource_limit "ARRAY_FLATTEN result too large");
      Value.Arr flat)

let range_fn =
  arr_scalar "RANGE" ~min_args:1 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_int; Func_sig.H_int ] ~examples:[ "RANGE(5)"; "RANGE(2, 6)" ]
    (fun ctx args ->
      let lo, hi =
        match Args.int_opt ctx args 1 with
        | Some hi -> (Args.int_ ctx args 0, hi)
        | None -> (0L, Args.int_ ctx args 0)
      in
      let span = Int64.sub hi lo in
      if span < 0L then Value.Arr []
      else if span > Int64.of_int ctx.Fn_ctx.limits.max_collection then
        raise (Fn_ctx.Resource_limit "RANGE too large")
      else begin
        let len = Int64.to_int span in
        if len >= Value.Compact.min_array_len then
          (* O(1): the whole sequence is (first, step, len); cells
             materialize only if a consumer genuinely walks them *)
          Value.range_arr ~first:lo ~step:1L ~len
        else begin
          (* build descending so the list comes out ascending in one pass —
             [List.init] at this size goes tail-recursive and pays a second
             full pass (and a second list) in [List.rev] *)
          let rec build i acc =
            if Int64.compare i lo < 0 then acc
            else build (Int64.pred i) (Value.Int i :: acc)
          in
          Value.Arr (build (Int64.pred hi) [])
        end
      end)

(* ----- maps ----- *)

let map_keys_fn =
  map_scalar "MAP_KEYS" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_map ]
    ~examples:[ "MAP_KEYS(MAP_FROM_ARRAYS(ARRAY['x'], ARRAY[1]))" ]
    (fun ctx args -> Value.Arr (List.map fst (Args.map ctx args 0)))

let map_values_fn =
  map_scalar "MAP_VALUES" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_map ]
    ~examples:[ "MAP_VALUES(MAP_FROM_ARRAYS(ARRAY['x'], ARRAY[1]))" ]
    (fun ctx args -> Value.Arr (List.map snd (Args.map ctx args 0)))

let map_size_fn =
  map_scalar "MAP_SIZE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_map ]
    ~examples:[ "MAP_SIZE(MAP_FROM_ARRAYS(ARRAY['x'], ARRAY[1]))" ]
    (fun ctx args -> Value.Int (Int64.of_int (List.length (Args.map ctx args 0))))

let map_contains_fn =
  map_scalar "MAP_CONTAINS" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_map; Func_sig.H_any ]
    ~examples:[ "MAP_CONTAINS(MAP_FROM_ARRAYS(ARRAY['x'], ARRAY[1]), 'x')" ]
    (fun ctx args ->
      let kvs = Args.map ctx args 0 in
      let key = Args.value args 1 in
      Value.Bool (List.exists (fun (k, _) -> Value.equal k key) kvs))

let element_at_fn =
  map_scalar "ELEMENT_AT" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_map; Func_sig.H_any ]
    ~examples:[ "ELEMENT_AT(MAP_FROM_ARRAYS(ARRAY['x'], ARRAY[1]), 'x')" ]
    (fun ctx args ->
      match Args.raw args 0 with
      | Value.Map kvs ->
        let key = Args.value args 1 in
        (match List.find_opt (fun (k, _) -> Value.equal k key) kvs with
         | Some (_, v) -> v
         | None -> Value.Null)
      | Value.Range_arr r ->
        let i = Args.small_int ctx args 1 in
        if i < 1 || i > r.Value.rg_len then Value.Null else Value.range_nth r (i - 1)
      | Value.Arr vs ->
        let i = Args.small_int ctx args 1 in
        if i < 1 then Value.Null
        else (match List.nth_opt vs (i - 1) with Some v -> v | None -> Value.Null)
      | v -> Fn_ctx.err "ELEMENT_AT: expected map or array, got %s"
          (Value.ty_name (Value.type_of v)))

let map_from_arrays_fn =
  map_scalar "MAP_FROM_ARRAYS" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_array; Func_sig.H_array ]
    ~examples:[ "MAP_FROM_ARRAYS(ARRAY['a'], ARRAY[1])" ]
    (fun ctx args ->
      let ks = Args.array ctx args 0 in
      let vs = Args.array ctx args 1 in
      if Fn_ctx.branch ctx "map-from-arrays/len" (List.length ks <> List.length vs)
      then Fn_ctx.err "MAP_FROM_ARRAYS: key and value arrays differ in length"
      else Value.Map (List.combine ks vs))

let specs =
  [
    array_length_fn; array_append_fn; array_prepend_fn; array_concat_fn;
    array_contains_fn; array_position_fn; array_element_fn; array_slice_fn;
    array_reverse_fn; array_distinct_fn; array_sort_fn; array_min_fn;
    array_max_fn; array_join_fn; array_flatten_fn; range_fn; map_keys_fn;
    map_values_fn; map_size_fn; map_contains_fn; element_at_fn;
    map_from_arrays_fn;
  ]
