let now_ns () = Int64.to_int (Monotonic_clock.now ())

type phase = Parse | Plan | Eval | Storage | Classify | Other

let phases = [ Parse; Plan; Eval; Storage; Classify; Other ]
let n_phases = 6

let phase_index = function
  | Parse -> 0
  | Plan -> 1
  | Eval -> 2
  | Storage -> 3
  | Classify -> 4
  | Other -> 5

let phase_of_index = function
  | 0 -> Parse
  | 1 -> Plan
  | 2 -> Eval
  | 3 -> Storage
  | 4 -> Classify
  | _ -> Other

let phase_to_string = function
  | Parse -> "parse"
  | Plan -> "plan"
  | Eval -> "eval"
  | Storage -> "storage"
  | Classify -> "detector-classify"
  | Other -> "other"

let phase_of_string = function
  | "parse" -> Some Parse
  | "plan" -> Some Plan
  | "eval" -> Some Eval
  | "storage" -> Some Storage
  | "detector-classify" -> Some Classify
  | "other" -> Some Other
  | _ -> None

(* per (dialect, function) stats: three flat arrays indexed by phase, so
   charging a scope is two array writes and a compare. [fs_owner] is the
   dialect table the record lives in, so a caller that kept the record
   can check by identity that it still charges the current dialect. *)
type fn_stats = {
  fs_func : string;
  fs_owner : (string, fn_stats) Hashtbl.t;
  counts : int array;
  selfs : int array;
  maxs : int array;
}

let fn_stats_create owner func =
  {
    fs_func = func;
    fs_owner = owner;
    counts = Array.make n_phases 0;
    selfs = Array.make n_phases 0;
    maxs = Array.make n_phases 0;
  }

(* one open scope; frames live in a preallocated stack and are reused,
   never reallocated after the stack has grown to the working depth *)
type frame = {
  mutable fr_stats : fn_stats;
  mutable fr_phase : int;
  mutable fr_start : int;
  mutable fr_child : int;
}

type t = {
  (* dialect -> function -> stats: two exact-string lookups, no compound
     key, mirroring Telemetry's verdict table *)
  by_dialect : (string, (string, fn_stats) Hashtbl.t) Hashtbl.t;
  mutable cur_dialect : string;
  mutable cur_fns : (string, fn_stats) Hashtbl.t;
  mutable stack : frame array;
  mutable depth : int;
  (* what one closed scope adds to its self-time account per measured
     nanosecond: 1 outside a case, [sample_period] inside a timed case,
     0 inside an untimed one, where no clock is read *)
  mutable scale : int;
  mutable timed_cases : int;
}

let sentinel = fn_stats_create (Hashtbl.create 1) ""

let fresh_frame () =
  { fr_stats = sentinel; fr_phase = 0; fr_start = 0; fr_child = 0 }

let fns_for t dialect =
  match Hashtbl.find_opt t.by_dialect dialect with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 64 in
    Hashtbl.add t.by_dialect dialect h;
    h

let create () =
  let t =
    {
      by_dialect = Hashtbl.create 8;
      cur_dialect = "";
      cur_fns = Hashtbl.create 64;
      stack = Array.init 32 (fun _ -> fresh_frame ());
      depth = 0;
      scale = 1;
      timed_cases = 0;
    }
  in
  Hashtbl.add t.by_dialect "" t.cur_fns;
  t

let set_dialect t dialect =
  t.cur_dialect <- dialect;
  t.cur_fns <- fns_for t dialect

let depth t = t.depth

(* ----- case sampling ----- *)

let sample_period = 16

(* Fibonacci hashing: the top 4 bits of the 63-bit product of [n] and
   2^63 / phi (the literal wraps to a negative int; only the bits
   matter). Consecutive numbers spread evenly over the 16 buckets, so
   the timed cases fall one in 16 on any stretch of the stream without
   lining up with a family's member index. *)
let timed_case n = (n * 0x4F1BBCDCBFA53E0B) lsr 59 = 0

let begin_case t n =
  if timed_case n then begin
    t.scale <- sample_period;
    t.timed_cases <- t.timed_cases + 1
  end
  else t.scale <- 0

let end_case t = t.scale <- 1
let timed_cases t = t.timed_cases

(* the scope clock: untimed cases read none *)
let clock t = if t.scale > 0 then now_ns () else 0

(* Hashtbl.find raises on miss instead of boxing an option, so the hit
   path — every sighting after the first — allocates nothing. *)
let fn_stats t func =
  match Hashtbl.find t.cur_fns func with
  | s -> s
  | exception Not_found ->
    let s = fn_stats_create t.cur_fns func in
    Hashtbl.add t.cur_fns func s;
    s

let owns t stats = stats.fs_owner == t.cur_fns

let grow t =
  let n = Array.length t.stack in
  t.stack <-
    Array.init (2 * n) (fun i ->
        if i < n then t.stack.(i) else fresh_frame ())

let push t stats phase =
  if t.depth >= Array.length t.stack then grow t;
  let fr = t.stack.(t.depth) in
  fr.fr_stats <- stats;
  fr.fr_phase <- phase_index phase;
  fr.fr_child <- 0;
  fr.fr_start <- clock t;
  t.depth <- t.depth + 1

let enter_fn t func phase = push t (fn_stats t func) phase
let root_stats t = fn_stats t ""
let enter_with t stats phase = push t stats phase

let enter t phase =
  let stats =
    if t.depth = 0 then fn_stats t ""
    else t.stack.(t.depth - 1).fr_stats
  in
  push t stats phase

(* charges the innermost frame as closed at [now]; the caller pops it
   or reuses it. An untimed scope only counts. *)
let charge t now =
  let fr = t.stack.(t.depth - 1) in
  let i = fr.fr_phase in
  let s = fr.fr_stats in
  s.counts.(i) <- s.counts.(i) + 1;
  if t.scale > 0 then begin
    let dur = now - fr.fr_start in
    let self = dur - fr.fr_child in
    (* a clock hiccup or a child measured longer than its parent (ns
       truncation) must not push a key negative *)
    let self = if self < 0 then 0 else self in
    s.selfs.(i) <- s.selfs.(i) + (t.scale * self);
    if self > s.maxs.(i) then s.maxs.(i) <- self;
    if t.depth > 1 then begin
      let parent = t.stack.(t.depth - 2) in
      parent.fr_child <- parent.fr_child + dur
    end
  end

let exit t =
  if t.depth > 0 then begin
    charge t (clock t);
    t.depth <- t.depth - 1
  end

let switch t phase =
  if t.depth = 0 then enter t phase
  else begin
    let now = clock t in
    charge t now;
    let fr = t.stack.(t.depth - 1) in
    fr.fr_phase <- phase_index phase;
    fr.fr_child <- 0;
    fr.fr_start <- now
  end

let with_phase t phase f =
  enter t phase;
  match f () with
  | v ->
    exit t;
    v
  | exception e ->
    exit t;
    raise e

let with_fn t func phase f =
  enter_fn t func phase;
  match f () with
  | v ->
    exit t;
    v
  | exception e ->
    exit t;
    raise e

(* ----- aggregate views ----- *)

type row = {
  r_dialect : string;
  r_func : string;
  r_phase : phase;
  r_count : int;
  r_self_ns : int;
  r_max_ns : int;
}

let fold_stats t f acc =
  Hashtbl.fold
    (fun dialect fns acc ->
      Hashtbl.fold (fun _ stats acc -> f dialect stats acc) fns acc)
    t.by_dialect acc

let rows t =
  fold_stats t
    (fun dialect stats acc ->
      let acc = ref acc in
      for i = 0 to n_phases - 1 do
        if stats.counts.(i) > 0 then
          acc :=
            {
              r_dialect = dialect;
              r_func = stats.fs_func;
              r_phase = phase_of_index i;
              r_count = stats.counts.(i);
              r_self_ns = stats.selfs.(i);
              r_max_ns = stats.maxs.(i);
            }
            :: !acc
      done;
      !acc)
    []
  |> List.sort (fun a b ->
         match compare b.r_self_ns a.r_self_ns with
         | 0 ->
           (match String.compare a.r_dialect b.r_dialect with
            | 0 ->
              (match String.compare a.r_func b.r_func with
               | 0 -> compare (phase_index a.r_phase) (phase_index b.r_phase)
               | c -> c)
            | c -> c)
         | c -> c)

let phase_self_ns t phase =
  let i = phase_index phase in
  fold_stats t (fun _ stats acc -> acc + stats.selfs.(i)) 0

let attributed_ns t =
  phase_self_ns t Parse + phase_self_ns t Plan + phase_self_ns t Eval
  + phase_self_ns t Storage

let other_ns t = phase_self_ns t Other

let attribution t =
  let named = attributed_ns t and other = other_ns t in
  if named + other = 0 then 0.
  else float_of_int named /. float_of_int (named + other)

type fn_total = {
  ft_dialect : string;
  ft_func : string;
  ft_calls : int;
  ft_self_ns : int;
  ft_phases : (phase * int) list;
}

let hottest ?(n = 10) t =
  fold_stats t
    (fun dialect stats acc ->
      let calls = Array.fold_left ( + ) 0 stats.counts in
      if calls = 0 then acc
      else begin
        let per_phase = ref [] in
        for i = n_phases - 1 downto 0 do
          if stats.selfs.(i) > 0 then
            per_phase := (phase_of_index i, stats.selfs.(i)) :: !per_phase
        done;
        {
          ft_dialect = dialect;
          ft_func = stats.fs_func;
          ft_calls = calls;
          ft_self_ns = Array.fold_left ( + ) 0 stats.selfs;
          ft_phases = !per_phase;
        }
        :: acc
      end)
    []
  |> List.sort (fun a b ->
         match compare b.ft_self_ns a.ft_self_ns with
         | 0 ->
           (match String.compare a.ft_dialect b.ft_dialect with
            | 0 -> String.compare a.ft_func b.ft_func
            | c -> c)
         | c -> c)
  |> fun l -> List.filteri (fun i _ -> i < n) l

(* ----- merging ----- *)

let merge_into ~dst src =
  dst.timed_cases <- dst.timed_cases + src.timed_cases;
  Hashtbl.iter
    (fun dialect fns ->
      let dfns = fns_for dst dialect in
      Hashtbl.iter
        (fun func (stats : fn_stats) ->
          let d =
            match Hashtbl.find_opt dfns func with
            | Some d -> d
            | None ->
              let d = fn_stats_create dfns func in
              Hashtbl.add dfns func d;
              d
          in
          for i = 0 to n_phases - 1 do
            d.counts.(i) <- d.counts.(i) + stats.counts.(i);
            d.selfs.(i) <- d.selfs.(i) + stats.selfs.(i);
            if stats.maxs.(i) > d.maxs.(i) then d.maxs.(i) <- stats.maxs.(i)
          done)
        fns)
    src.by_dialect

let merge a b =
  let t = create () in
  merge_into ~dst:t a;
  merge_into ~dst:t b;
  t

(* ----- emitters ----- *)

(* frame names must not contain the folded-stack separators *)
let frame_name s =
  if s = "" then "-"
  else if String.exists (fun c -> c = ';' || c = ' ') s then
    String.map (fun c -> if c = ';' || c = ' ' then '_' else c) s
  else s

let folded_lines t =
  List.filter_map
    (fun r ->
      if r.r_self_ns <= 0 then None
      else
        Some
          (Printf.sprintf "soft;%s;%s;%s %d" (frame_name r.r_dialect)
             (frame_name r.r_func)
             (phase_to_string r.r_phase)
             r.r_self_ns))
    (rows t)

let write_folded oc t =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (folded_lines t)

let ms ns = float_of_int ns /. 1e6

let fn_total_to_json ft =
  Json.Obj
    [
      ("dialect", Json.Str ft.ft_dialect);
      ("func", Json.Str (if ft.ft_func = "" then "-" else ft.ft_func));
      ("calls", Json.Int ft.ft_calls);
      ("self_ms", Json.Float (ms ft.ft_self_ns));
      ( "phases",
        Json.Obj
          (List.map
             (fun (p, ns) -> (phase_to_string p, Json.Float (ms ns)))
             ft.ft_phases) );
    ]

let row_to_json r =
  Json.Obj
    [
      ("dialect", Json.Str r.r_dialect);
      ("func", Json.Str (if r.r_func = "" then "-" else r.r_func));
      ("phase", Json.Str (phase_to_string r.r_phase));
      ("count", Json.Int r.r_count);
      ("self_ms", Json.Float (ms r.r_self_ns));
      ("max_us", Json.Float (float_of_int r.r_max_ns /. 1e3));
    ]

let to_json ?(top = 10) t =
  Json.Obj
    [
      ("attribution", Json.Float (attribution t));
      ("timed_cases", Json.Int t.timed_cases);
      ("attributed_ms", Json.Float (ms (attributed_ns t)));
      ("other_ms", Json.Float (ms (other_ns t)));
      ( "phase_totals",
        Json.Obj
          (List.map
             (fun p -> (phase_to_string p, Json.Float (ms (phase_self_ns t p))))
             phases) );
      ("hottest", Json.Arr (List.map fn_total_to_json (hottest ~n:top t)));
      ("keys", Json.Arr (List.map row_to_json (rows t)));
    ]

let top_markdown ?(n = 10) t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "| dialect | function | calls | self (ms) | hottest phase |\n\
     |---|---|---:|---:|---|\n";
  List.iter
    (fun ft ->
      let top_phase =
        match
          List.sort (fun (_, a) (_, b) -> compare b a) ft.ft_phases
        with
        | (p, _) :: _ -> phase_to_string p
        | [] -> "-"
      in
      Buffer.add_string buf
        (Printf.sprintf "| %s | %s | %d | %.2f | %s |\n" ft.ft_dialect
           (if ft.ft_func = "" then "-" else ft.ft_func)
           ft.ft_calls (ms ft.ft_self_ns) top_phase))
    (hottest ~n t);
  Buffer.contents buf
