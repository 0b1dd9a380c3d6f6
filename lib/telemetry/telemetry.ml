(* Monotonic clock (bechamel's CLOCK_MONOTONIC stub, ns resolution).
   Int64.to_int is safe on 64-bit: 2^62 ns ~ 146 years of uptime. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ----- verdict classes (the detector's six outcomes) ----- *)

type verdict_class =
  | Passed
  | Clean_error
  | False_positive
  | New_bug
  | Dup_bug
  | Known_crash

let verdict_classes =
  [ Passed; Clean_error; False_positive; New_bug; Dup_bug; Known_crash ]

let verdict_index = function
  | Passed -> 0
  | Clean_error -> 1
  | False_positive -> 2
  | New_bug -> 3
  | Dup_bug -> 4
  | Known_crash -> 5

let verdict_class_to_string = function
  | Passed -> "passed"
  | Clean_error -> "clean_error"
  | False_positive -> "false_positive"
  | New_bug -> "new_bug"
  | Dup_bug -> "dup_bug"
  | Known_crash -> "known_crash"

(* ----- events ----- *)

type event =
  | Span_open of {
      stage : string;
      dialect : string;
      pattern : string;
      depth : int;
      ts_ns : int;
    }
  | Span_close of {
      stage : string;
      dialect : string;
      pattern : string;
      depth : int;
      ts_ns : int;
      dur_ns : int;
    }
  | Verdict of {
      dialect : string;
      pattern : string;
      verdict : verdict_class;
      case_number : int;
      ts_ns : int;
    }
  | Bug_found of {
      dialect : string;
      site : string;
      kind : string;
      pattern : string;
      case_number : int;
      ts_ns : int;
    }
  | Fp_signature of { dialect : string; signature : string; ts_ns : int }

let event_to_json ev =
  (* empty dialect/pattern attributes are omitted from the line *)
  let attrs dialect pattern rest =
    let fields = rest in
    let fields =
      if pattern = "" then fields else ("pattern", Json.Str pattern) :: fields
    in
    if dialect = "" then fields else ("dialect", Json.Str dialect) :: fields
  in
  match ev with
  | Span_open { stage; dialect; pattern; depth; ts_ns } ->
    Json.Obj
      (("ev", Json.Str "span_open")
       :: ("stage", Json.Str stage)
       :: attrs dialect pattern
            [ ("depth", Json.Int depth); ("ts_ns", Json.Int ts_ns) ])
  | Span_close { stage; dialect; pattern; depth; ts_ns; dur_ns } ->
    Json.Obj
      (("ev", Json.Str "span_close")
       :: ("stage", Json.Str stage)
       :: attrs dialect pattern
            [
              ("depth", Json.Int depth);
              ("ts_ns", Json.Int ts_ns);
              ("dur_ns", Json.Int dur_ns);
            ])
  | Verdict { dialect; pattern; verdict; case_number; ts_ns } ->
    Json.Obj
      (("ev", Json.Str "verdict")
       :: attrs dialect pattern
            [
              ("verdict", Json.Str (verdict_class_to_string verdict));
              ("case", Json.Int case_number);
              ("ts_ns", Json.Int ts_ns);
            ])
  | Bug_found { dialect; site; kind; pattern; case_number; ts_ns } ->
    Json.Obj
      (("ev", Json.Str "bug_found")
       :: attrs dialect pattern
            [
              ("site", Json.Str site);
              ("kind", Json.Str kind);
              ("case", Json.Int case_number);
              ("ts_ns", Json.Int ts_ns);
            ])
  | Fp_signature { dialect; signature; ts_ns } ->
    Json.Obj
      (("ev", Json.Str "fp_signature")
       :: attrs dialect ""
            [ ("signature", Json.Str signature); ("ts_ns", Json.Int ts_ns) ])

(* ----- sinks ----- *)

type sink = Null | Emit of (event -> unit)

let null_sink = Null

let jsonl_sink oc =
  Emit
    (fun ev ->
      output_string oc (Json.to_string (event_to_json ev));
      output_char oc '\n')

let memory_sink () =
  let acc = ref [] in
  (Emit (fun ev -> acc := ev :: !acc), fun () -> List.rev !acc)

(* ----- latency histograms (log2 buckets over nanoseconds) ----- *)

module Histogram = struct
  let bucket_count = 48

  type t = { counts : int array; mutable total : int }

  let create () = { counts = Array.make bucket_count 0; total = 0 }

  (* a duration d lands in bucket floor(log2 d): 2^i <= d < 2^(i+1) *)
  let bucket_of ns =
    if ns <= 1 then 0
    else begin
      let rec go i v = if v <= 1 || i = bucket_count - 1 then i else go (i + 1) (v lsr 1) in
      go 0 ns
    end

  let bucket_upper i = 1 lsl (i + 1)

  let add t ns =
    let i = bucket_of ns in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let total t = t.total

  let merge_into ~dst src =
    Array.iteri
      (fun i n -> dst.counts.(i) <- dst.counts.(i) + n)
      src.counts;
    dst.total <- dst.total + src.total

  (* Upper bound of the bucket holding the q-quantile sample: an estimate
     with <= 2x relative error, which is all a latency profile needs. *)
  let percentile t q =
    if t.total = 0 then 0
    else begin
      let q = Float.min 1.0 (Float.max 0.0 q) in
      let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
      let rec go i seen =
        if i >= bucket_count then bucket_upper (bucket_count - 1)
        else begin
          let seen = seen + t.counts.(i) in
          if seen >= rank then bucket_upper i else go (i + 1) seen
        end
      in
      go 0 0
    end
end

(* ----- per-stage aggregation ----- *)

type stage_agg = {
  agg_stage : string;
  mutable calls : int;
  mutable total_ns : int;
  mutable max_ns : int;
  hist : Histogram.t;
}

type verdict_row = {
  row_dialect : string;
  row_pattern : string;
  counts : int array; (* indexed by verdict_index *)
}

type t = {
  sink : sink;
  stages : (string, stage_agg) Hashtbl.t;
  (* dialect -> pattern -> row: two exact-string lookups so the hot path
     never builds a compound key (no allocation after the first sighting) *)
  verdicts : (string, (string, verdict_row) Hashtbl.t) Hashtbl.t;
  mutable depth : int;
  (* compact-representation counters: hits built a compact value
     (Range_arr/Rope_str) instead of materializing, spills materialized
     one because a consumer genuinely needed the elements/bytes.
     Throughput metadata only — never feeds a verdict. *)
  mutable compact_hits : int;
  mutable compact_spills : int;
  (* sink flushers, run on campaign end and on the crash/restart path so
     abnormal termination cannot truncate a JSONL stream mid-campaign *)
  mutable flushers : (unit -> unit) list;
}

let create ?(sink = Null) () =
  {
    sink;
    stages = Hashtbl.create 16;
    verdicts = Hashtbl.create 8;
    depth = 0;
    compact_hits = 0;
    compact_spills = 0;
    flushers = [];
  }

let add_flusher t f = t.flushers <- f :: t.flushers

let flush t =
  List.iter
    (fun f -> try f () with _ -> (* a dead channel must not mask the
                                    original failure *) ())
    t.flushers

let enabled t = t.sink <> Null
let emit t ev = match t.sink with Null -> () | Emit f -> f ev

let stage_agg t stage =
  match Hashtbl.find_opt t.stages stage with
  | Some a -> a
  | None ->
    let a =
      { agg_stage = stage; calls = 0; total_ns = 0; max_ns = 0;
        hist = Histogram.create () }
    in
    Hashtbl.add t.stages stage a;
    a

let record_stage t ~stage dur_ns =
  let a = stage_agg t stage in
  a.calls <- a.calls + 1;
  a.total_ns <- a.total_ns + dur_ns;
  if dur_ns > a.max_ns then a.max_ns <- dur_ns;
  Histogram.add a.hist dur_ns

(* ----- spans ----- *)

let with_span t ?(dialect = "") ?(pattern = "") stage f =
  let depth = t.depth in
  t.depth <- depth + 1;
  let t0 = now_ns () in
  (match t.sink with
   | Null -> ()
   | Emit e -> e (Span_open { stage; dialect; pattern; depth; ts_ns = t0 }));
  let finish () =
    let t1 = now_ns () in
    let dur_ns = t1 - t0 in
    t.depth <- depth;
    record_stage t ~stage dur_ns;
    match t.sink with
    | Null -> ()
    | Emit e ->
      e (Span_close { stage; dialect; pattern; depth; ts_ns = t1; dur_ns })
  in
  match f () with
  | v ->
    finish ();
    v
  | exception exn ->
    finish ();
    raise exn

let time_seq t ?dialect ?pattern ~stage seq =
  let rec wrap seq () =
    match with_span t ?dialect ?pattern stage (fun () -> seq ()) with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) -> Seq.Cons (x, wrap rest)
  in
  wrap seq

(* ----- verdict counters and one-shot events ----- *)

let verdict_row t ~dialect ~pattern =
  let per_dialect =
    match Hashtbl.find_opt t.verdicts dialect with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 16 in
      Hashtbl.add t.verdicts dialect h;
      h
  in
  match Hashtbl.find_opt per_dialect pattern with
  | Some row -> row
  | None ->
    let row =
      { row_dialect = dialect; row_pattern = pattern;
        counts = Array.make (List.length verdict_classes) 0 }
    in
    Hashtbl.add per_dialect pattern row;
    row

type verdict_counter = verdict_row

let verdict_counter t ~dialect ~pattern = verdict_row t ~dialect ~pattern

let count_verdict_row t row ~dialect ~pattern ~case_number verdict =
  let i = verdict_index verdict in
  row.counts.(i) <- row.counts.(i) + 1;
  match t.sink with
  | Null -> ()
  | Emit e ->
    e (Verdict { dialect; pattern; verdict; case_number; ts_ns = now_ns () })

let reclassify_verdict t ~dialect ~pattern ~from_ ~to_ =
  let row = verdict_row t ~dialect ~pattern in
  let i = verdict_index from_ and j = verdict_index to_ in
  if row.counts.(i) <= 0 then
    invalid_arg
      (Printf.sprintf
         "Telemetry.reclassify_verdict: no %s verdict recorded for %s/%s"
         (verdict_class_to_string from_) dialect pattern);
  row.counts.(i) <- row.counts.(i) - 1;
  row.counts.(j) <- row.counts.(j) + 1

(* ----- retired memoization, plan-compilation and batch counters ----- *)

type memo_counts = { hits : int; misses : int }

let memo_counts _ = { hits = 0; misses = 0 }
let memo_hit_rate _ = 0.

type compile_counts = { c_hits : int; c_misses : int; c_fallbacks : int }

let compile_counts _ = { c_hits = 0; c_misses = 0; c_fallbacks = 0 }
let compile_hit_rate _ = 0.

type batch_counts = { b_flushes : int; b_cases : int }

let batch_counts _ = { b_flushes = 0; b_cases = 0 }

(* ----- compact-representation counters ----- *)

let compact_add t ~hits ~spills =
  t.compact_hits <- t.compact_hits + hits;
  t.compact_spills <- t.compact_spills + spills

type compact_counts = { k_hits : int; k_spills : int }

let compact_counts t =
  { k_hits = t.compact_hits; k_spills = t.compact_spills }

(* ----- merging (shard -> campaign aggregation) ----- *)

let merge_into ~dst src =
  Hashtbl.iter
    (fun stage a ->
      let d = stage_agg dst stage in
      d.calls <- d.calls + a.calls;
      d.total_ns <- d.total_ns + a.total_ns;
      if a.max_ns > d.max_ns then d.max_ns <- a.max_ns;
      Histogram.merge_into ~dst:d.hist a.hist)
    src.stages;
  Hashtbl.iter
    (fun dialect per_dialect ->
      Hashtbl.iter
        (fun pattern (row : verdict_row) ->
          let drow = verdict_row dst ~dialect ~pattern in
          Array.iteri
            (fun i n -> drow.counts.(i) <- drow.counts.(i) + n)
            row.counts)
        per_dialect)
    src.verdicts;
  dst.compact_hits <- dst.compact_hits + src.compact_hits;
  dst.compact_spills <- dst.compact_spills + src.compact_spills

let merge a b =
  let t = create () in
  merge_into ~dst:t a;
  merge_into ~dst:t b;
  t

let bug_event t ~dialect ~site ~kind ~pattern ~case_number =
  match t.sink with
  | Null -> ()
  | Emit e ->
    e (Bug_found { dialect; site; kind; pattern; case_number; ts_ns = now_ns () })

let fp_event t ~dialect ~signature =
  match t.sink with
  | Null -> ()
  | Emit e -> e (Fp_signature { dialect; signature; ts_ns = now_ns () })

(* ----- aggregate views ----- *)

type stage_timing = {
  stage : string;
  calls : int;
  total_ns : int;
  max_ns : int;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
}

let stage_timings t =
  Hashtbl.fold
    (fun _ a acc ->
      (* a percentile is the upper bound of a log2 bucket, which for a
         long span (bucket 31 is already ~4.3s) can exceed every sample
         ever recorded; the observed max is a tighter upper bound, so
         clamp to it *)
      let pct q = Stdlib.min (Histogram.percentile a.hist q) a.max_ns in
      {
        stage = a.agg_stage;
        calls = a.calls;
        total_ns = a.total_ns;
        max_ns = a.max_ns;
        p50_ns = pct 0.50;
        p90_ns = pct 0.90;
        p99_ns = pct 0.99;
      }
      :: acc)
    t.stages []
  |> List.sort (fun a b ->
         match compare b.total_ns a.total_ns with
         | 0 -> String.compare a.stage b.stage
         | c -> c)

type verdict_counts = {
  dialect : string;
  pattern : string;
  by_class : (verdict_class * int) list;
}

let verdict_total t cls =
  let i = verdict_index cls in
  Hashtbl.fold
    (fun _ per_dialect acc ->
      Hashtbl.fold (fun _ row acc -> acc + row.counts.(i)) per_dialect acc)
    t.verdicts 0

let verdict_rows t =
  Hashtbl.fold
    (fun _ per_dialect acc ->
      Hashtbl.fold
        (fun _ row acc ->
          {
            dialect = row.row_dialect;
            pattern = row.row_pattern;
            by_class =
              List.map (fun v -> (v, row.counts.(verdict_index v))) verdict_classes;
          }
          :: acc)
        per_dialect acc)
    t.verdicts []
  |> List.sort (fun a b ->
         match String.compare a.dialect b.dialect with
         | 0 -> String.compare a.pattern b.pattern
         | c -> c)

(* ----- JSON snapshots ----- *)

let ms ns = float_of_int ns /. 1e6

let stage_timing_to_json s =
  Json.Obj
    [
      ("stage", Json.Str s.stage);
      ("calls", Json.Int s.calls);
      ("total_ms", Json.Float (ms s.total_ns));
      ("max_ns", Json.Int s.max_ns);
      ("p50_ns", Json.Int s.p50_ns);
      ("p90_ns", Json.Int s.p90_ns);
      ("p99_ns", Json.Int s.p99_ns);
    ]

let stages_to_json t = Json.Arr (List.map stage_timing_to_json (stage_timings t))

let verdict_counts_to_json r =
  Json.Obj
    (("dialect", Json.Str r.dialect)
     :: ("pattern", Json.Str r.pattern)
     :: List.map
          (fun (v, n) -> (verdict_class_to_string v, Json.Int n))
          r.by_class)

let verdicts_to_json t =
  Json.Arr (List.map verdict_counts_to_json (verdict_rows t))
