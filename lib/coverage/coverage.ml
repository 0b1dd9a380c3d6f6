(* Every point owns one cell for the recorder's lifetime. The name table
   is consulted once per point per holder: the registry keeps the cell
   of each function's "fn/NAME" point, a {!table} keeps one lazily
   filled cell per entry, and [branch] keeps the two cells of a branch
   id. A hit through a kept cell is then two increments, with no
   hashing and no allocation.

   [reset] zeroes the cells in place instead of dropping them, so a cell
   somebody kept keeps counting into this recorder. A cell whose count
   is 0 is invisible to every view: a point that has not been hit never
   appears in [count], [points], [mem] or [diff]. *)

type t = {
  tbl : (string, cell) Hashtbl.t;
  branches : (string, cell * cell) Hashtbl.t;
  mutable tables : cell array array;  (* indexed by [table.tid] *)
  mutable hits : int;
  mutable distinct : int;
}

and cell = { mutable n : int; owner : t }

type table = { tid : int; tnames : string array }

let create () =
  {
    tbl = Hashtbl.create 256;
    branches = Hashtbl.create 32;
    tables = [||];
    hits = 0;
    distinct = 0;
  }

(* fills the empty slots of per-recorder table arrays; owned by no
   recorder a caller can reach *)
let vacant = { n = 0; owner = create () }

let cell t point =
  match Hashtbl.find t.tbl point with
  | c -> c
  | exception Not_found ->
    let c = { n = 0; owner = t } in
    Hashtbl.add t.tbl point c;
    c

let owns t c = c.owner == t

let hit_cell c =
  let t = c.owner in
  t.hits <- t.hits + 1;
  if c.n = 0 then t.distinct <- t.distinct + 1;
  c.n <- c.n + 1

let hit t point = hit_cell (cell t point)

let branch t id b =
  let tc, fc =
    match Hashtbl.find t.branches id with
    | pair -> pair
    | exception Not_found ->
      let pair = (cell t (id ^ "/t"), cell t (id ^ "/f")) in
      Hashtbl.add t.branches id pair;
      pair
  in
  hit_cell (if b then tc else fc)

let next_tid = Atomic.make 0
let table tnames = { tid = Atomic.fetch_and_add next_tid 1; tnames }
let table_name tb i = tb.tnames.(i)

let table_cells t tb =
  if tb.tid < Array.length t.tables && Array.length t.tables.(tb.tid) > 0
  then t.tables.(tb.tid)
  else begin
    if tb.tid >= Array.length t.tables then begin
      let old = t.tables in
      t.tables <-
        Array.init (tb.tid + 1) (fun i ->
            if i < Array.length old then old.(i) else [||])
    end;
    let cells = Array.make (Array.length tb.tnames) vacant in
    t.tables.(tb.tid) <- cells;
    cells
  end

let hit_entry t tb i =
  let cells = table_cells t tb in
  let c = cells.(i) in
  if c != vacant then hit_cell c
  else begin
    let c = cell t tb.tnames.(i) in
    cells.(i) <- c;
    hit_cell c
  end

let count t = t.distinct
let total_hits t = t.hits

let fold_hit f t acc =
  Hashtbl.fold (fun k c acc -> if c.n > 0 then f k c.n acc else acc) t.tbl acc

let points t =
  fold_hit (fun k n acc -> (k, n) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let mem t point =
  match Hashtbl.find_opt t.tbl point with Some c -> c.n > 0 | None -> false

let reset t =
  Hashtbl.iter (fun _ c -> c.n <- 0) t.tbl;
  t.hits <- 0;
  t.distinct <- 0

let merge_into ~dst src =
  fold_hit
    (fun k n () ->
      let c = cell dst k in
      if c.n = 0 then dst.distinct <- dst.distinct + 1;
      c.n <- c.n + n)
    src ();
  dst.hits <- dst.hits + src.hits

let merge a b =
  let t = create () in
  merge_into ~dst:t a;
  merge_into ~dst:t b;
  t

let diff a b =
  fold_hit (fun k _ acc -> if mem b k then acc else k :: acc) a []
  |> List.sort String.compare

let prefixed_count t prefix =
  let plen = String.length prefix in
  fold_hit
    (fun k _ acc ->
      if String.length k >= plen && String.sub k 0 plen = prefix then acc + 1
      else acc)
    t 0

let to_json t =
  Sqlfun_telemetry.Json.Obj
    [
      ("distinct", Sqlfun_telemetry.Json.Int (count t));
      ("total_hits", Sqlfun_telemetry.Json.Int (total_hits t));
      ( "points",
        Sqlfun_telemetry.Json.Obj
          (List.map (fun (k, v) -> (k, Sqlfun_telemetry.Json.Int v)) (points t)) );
    ]
