open Sqlfun_value
open Sqlfun_num

module Prov = struct
  type t =
    | Literal
    | Cast
    | Func of string
    | Column
    | Operator
    | Star
    | Subquery

  let to_string = function
    | Literal -> "literal"
    | Cast -> "cast"
    | Func f -> "func:" ^ f
    | Column -> "column"
    | Operator -> "operator"
    | Star -> "star"
    | Subquery -> "subquery"
end

type arg = { value : Value.t; prov : Prov.t }

let arg ?(prov = Prov.Operator) value = { value; prov }

type arg_cond =
  | Is_null
  | Is_star
  | Is_empty_string
  | Str_len_ge of int
  | Str_contains of string
  | Precision_ge of int
  | Scale_ge of int
  | Abs_int_ge of int64
  | Int_is of int64
  | Depth_ge of int
  | Size_ge of int
  | Has_char_run of int
  | Type_is of Value.ty
  | From_cast
  | From_function
  | From_named_function of string
  | From_literal
  | From_subquery
  | Neg of arg_cond
  | All_of of arg_cond list
  | One_of of arg_cond list

type cond =
  | Arg_at of int * arg_cond
  | Any_arg of arg_cond
  | Argc_ge of int
  | Argc_eq of int
  | And_ of cond list
  | Or_ of cond list

type status = Confirmed | Fixed

(* The paper's "occurrence stage" dimension: where in the statement
   lifecycle the defect fires. [Execute] is the classic function-eval
   site (every ledger bug before the stateful refactor); [Parse] fires
   while a DDL/DML statement's literals and type declarations are being
   analyzed, before any evaluation; [Storage] fires when a cast row is
   handed to the storage layer. *)
type stage = Parse | Execute | Storage

let stage_to_string = function
  | Parse -> "parse"
  | Execute -> "execute"
  | Storage -> "storage"

type spec = {
  site : string;
  dialect : string;
  func : string;
  category : string;
  kind : Bug_kind.t;
  pattern : Pattern_id.t;
  status : status;
  stage : stage;
  trigger : cond;
  note : string;
}

exception Crash of spec

let string_payload v =
  match v with
  | Value.Str s | Value.Blob s -> Some s
  (* a rope IS a string payload: the injected bug must fire on the same
     arguments whether the producer handed it flat or compact *)
  | Value.Rope_str r -> Some (Value.rope_flatten r)
  | Value.Json j -> Some (Sqlfun_data.Json.to_string j)
  | _ -> None

let rec eval_arg_cond c a =
  match c with
  | Is_null -> Value.is_null a.value && a.prov <> Prov.Star
  | Is_star -> a.prov = Prov.Star
  | Is_empty_string -> a.value = Value.Str ""
  | Str_len_ge n ->
    (* length-only condition: answered in O(1) for ropes, no flatten *)
    (match Value.str_bytes a.value with
     | Some len -> len >= n
     | None ->
       (match string_payload a.value with
        | Some s -> String.length s >= n
        | None -> false))
  | Str_contains sub ->
    (match string_payload a.value with
     | Some s -> Sqlfun_data.Substring.find s sub 0 <> None
     | None -> false)
  | Precision_ge n ->
    (match a.value with
     | Value.Dec d -> Decimal.precision d >= n
     | Value.Int i ->
       String.length (Int64.to_string (Int64.abs i)) >= n
     | _ -> false)
  | Scale_ge n ->
    (match a.value with Value.Dec d -> Decimal.scale d >= n | _ -> false)
  | Abs_int_ge n ->
    (match a.value with
     | Value.Int i -> Int64.abs i >= n || i = Int64.min_int
     | Value.Dec d ->
       (match Decimal.to_int64 d with
        | Some i -> Int64.abs i >= n
        | None -> true)
     | _ -> false)
  | Int_is n -> (match a.value with Value.Int i -> i = n | _ -> false)
  | Depth_ge n -> Value.depth_of a.value >= n
  | Size_ge n -> Value.size_of a.value >= n
  | Has_char_run n ->
    (match string_payload a.value with
     | Some s ->
       let best = ref 0 and run = ref 0 in
       let prev = ref '\000' in
       String.iter
         (fun c ->
           if c = !prev then incr run else run := 1;
           prev := c;
           if !run > !best then best := !run)
         s;
       !best >= n
     | None -> false)
  | Type_is ty -> Value.type_of a.value = ty
  | From_cast -> a.prov = Prov.Cast
  | From_function -> (match a.prov with Prov.Func _ -> true | _ -> false)
  | From_named_function f ->
    (match a.prov with Prov.Func g -> g = f | _ -> false)
  | From_literal -> a.prov = Prov.Literal
  | From_subquery -> a.prov = Prov.Subquery
  | Neg c -> not (eval_arg_cond c a)
  | All_of cs -> List.for_all (fun c -> eval_arg_cond c a) cs
  | One_of cs -> List.exists (fun c -> eval_arg_cond c a) cs

let rec eval_cond c args =
  match c with
  | Arg_at (i, ac) ->
    (match List.nth_opt args i with
     | Some a -> eval_arg_cond ac a
     | None -> false)
  | Any_arg ac -> List.exists (eval_arg_cond ac) args
  | Argc_ge n -> List.length args >= n
  | Argc_eq n -> List.length args = n
  | And_ cs -> List.for_all (fun c -> eval_cond c args) cs
  | Or_ cs -> List.exists (fun c -> eval_cond c args) cs

type runtime = {
  by_func : (string, spec list) Hashtbl.t;
  all : spec list;
  mutable armed : bool;
}

let make specs =
  let by_func = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let key = String.uppercase_ascii s.func in
      let existing =
        match Hashtbl.find_opt by_func key with Some l -> l | None -> []
      in
      Hashtbl.replace by_func key (existing @ [ s ]))
    specs;
  { by_func; all = specs; armed = false }

let arm rt = rt.armed <- true
let is_armed rt = rt.armed
let specs rt = rt.all

(* callers pass a spec's canonical (already-uppercase) name, so the
   uppercase copy would be a dead allocation — scan first, copy only
   when a lowercase byte is actually present *)
let has_lower s =
  let n = String.length s in
  let rec go i =
    i < n
    && (let c = String.unsafe_get s i in
        (c >= 'a' && c <= 'z') || go (i + 1))
  in
  go 0

let check_at rt ~stage ~func args =
  if rt.armed then
    let key = if has_lower func then String.uppercase_ascii func else func in
    match Hashtbl.find_opt rt.by_func key with
    | None -> ()
    | Some specs ->
      List.iter
        (fun spec ->
          if spec.stage = stage && eval_cond spec.trigger args then
            raise (Crash spec))
        specs

let execute_specs rt ~func =
  let key = if has_lower func then String.uppercase_ascii func else func in
  match Hashtbl.find_opt rt.by_func key with
  | None -> []
  | Some specs -> List.filter (fun spec -> spec.stage = Execute) specs

let check_specs rt specs args =
  let rec go = function
    | [] -> ()
    | spec :: rest ->
      if eval_cond spec.trigger args then raise (Crash spec) else go rest
  in
  if rt.armed then go specs

let status_to_string = function Confirmed -> "Confirmed" | Fixed -> "Fixed"
