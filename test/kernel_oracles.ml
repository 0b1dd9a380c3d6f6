(* The previous implementations of the kernels that walk an argument's
   bytes, kept verbatim as oracles for [test_kernels.ml] (and, at the
   end, the old cast point formatter). Only three
   things differ: the module paths they need from outside their old
   home, the [let] that names a SQL function's body, and [midnight],
   which a private record type makes this file build with [make_time].
   They allocate, format or compare polymorphically per byte; the
   rewritten kernels must agree with them on every output, error, step
   count, tick and coverage hit. *)

open Sqlfun_data
open Sqlfun_functions
open Sqlfun_value

let err fmt = Printf.ksprintf (fun msg -> raise (Fn_ctx.Sql_error msg)) fmt
let ret_str s = Value.Str s

(* ----- lib/data/codec.ml ----- *)

let hex_encode s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02X" (Char.code c))) s;
  Buffer.contents buf

let hex_val c =
  if c >= '0' && c <= '9' then Some (Char.code c - 48)
  else if c >= 'a' && c <= 'f' then Some (Char.code c - 87)
  else if c >= 'A' && c <= 'F' then Some (Char.code c - 55)
  else None

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else begin
    let buf = Buffer.create (n / 2) in
    let rec go i =
      if i >= n then Some (Buffer.contents buf)
      else
        match (hex_val s.[i], hex_val s.[i + 1]) with
        | Some hi, Some lo ->
          Buffer.add_char buf (Char.chr ((hi * 16) + lo));
          go (i + 2)
        | _, _ -> None
    in
    go 0
  end

let b64_val c =
  if c >= 'A' && c <= 'Z' then Some (Char.code c - 65)
  else if c >= 'a' && c <= 'z' then Some (Char.code c - 71)
  else if c >= '0' && c <= '9' then Some (Char.code c + 4)
  else if c = '+' then Some 62
  else if c = '/' then Some 63
  else None

let base64_decode s =
  (* tolerate whitespace, require valid groups *)
  let cleaned = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' -> ()
      | c -> Buffer.add_char cleaned c)
    s;
  let s = Buffer.contents cleaned in
  let n = String.length s in
  if n mod 4 <> 0 then None
  else begin
    let buf = Buffer.create (n / 4 * 3) in
    let rec go i =
      if i >= n then Some (Buffer.contents buf)
      else begin
        let pad_at k = s.[i + k] = '=' && i + 4 = n in
        match (b64_val s.[i], b64_val s.[i + 1]) with
        | Some v0, Some v1 ->
          Buffer.add_char buf (Char.chr ((v0 lsl 2) lor (v1 lsr 4)));
          (match b64_val s.[i + 2] with
           | Some v2 ->
             Buffer.add_char buf (Char.chr (((v1 land 15) lsl 4) lor (v2 lsr 2)));
             (match b64_val s.[i + 3] with
              | Some v3 ->
                Buffer.add_char buf (Char.chr (((v2 land 3) lsl 6) lor v3));
                go (i + 4)
              | None -> if pad_at 3 then Some (Buffer.contents buf) else None)
           | None ->
             if pad_at 2 && s.[i + 3] = '=' then Some (Buffer.contents buf)
             else None)
        | _, _ -> None
      end
    in
    if n = 0 then Some "" else go 0
  end

let fnv1a_64 s =
  let prime = 0x100000001b3L in
  let hash = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      hash := Int64.logxor !hash (Int64.of_int (Char.code c));
      hash := Int64.mul !hash prime)
    s;
  !hash

let digest_hex s =
  let h1 = fnv1a_64 s in
  let h2 = fnv1a_64 (s ^ "\x00pass2") in
  Printf.sprintf "%016Lx%016Lx" h1 h2

let crc32_table =
  Array.init 256 (fun i ->
      let c = ref (Int64.of_int i) in
      for _ = 0 to 7 do
        if Int64.rem !c 2L = 1L then
          c := Int64.logxor 0xedb88320L (Int64.shift_right_logical !c 1)
        else c := Int64.shift_right_logical !c 1
      done;
      !c)

let crc32 s =
  let table = crc32_table in
  let c = ref 0xffffffffL in
  String.iter
    (fun ch ->
      let idx =
        Int64.to_int (Int64.logand (Int64.logxor !c (Int64.of_int (Char.code ch))) 0xffL)
      in
      c := Int64.logxor table.(idx) (Int64.shift_right_logical !c 8))
    s;
  Int64.logand (Int64.logxor !c 0xffffffffL) 0xffffffffL

(* ----- lib/value/value.ml, lib/ast/sql_pp.ml ----- *)

let blob_display b =
  let buf = Buffer.create (2 + (2 * String.length b)) in
  Buffer.add_string buf "0x";
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02X" (Char.code c))) b;
  Buffer.contents buf

let hex_of_bytes s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02X" (Char.code c))) s;
  Buffer.contents buf

(* ----- lib/functions/string_fns.ml and catalog_tail.ml, lib/fault/fault.ml ----- *)

let find_sub hay needle from =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then Some from
  else begin
    let rec go i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else go (i + 1)
    in
    go from
  end

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then true
  else begin
    let rec go i =
      if i + nn > nh then false
      else if String.sub hay i nn = needle then true
      else go (i + 1)
    in
    go 0
  end

(* ----- lib/data/calendar.ml ----- *)

module Calendar = struct
  include Calendar

  let split_on_any seps s =
    let parts = ref [] and buf = Buffer.create 8 in
    String.iter
      (fun c ->
        if List.mem c seps then begin
          parts := Buffer.contents buf :: !parts;
          Buffer.clear buf
        end
        else Buffer.add_char buf c)
      s;
    parts := Buffer.contents buf :: !parts;
    List.rev !parts

  let date_of_string s =
    match split_on_any [ '-'; '/' ] (String.trim s) with
    | [ y; m; d ] ->
      (match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d) with
       | Some year, Some month, Some day -> make_date ~year ~month ~day
       | _ -> None)
    | _ -> None

  let time_of_string s =
    match split_on_any [ ':' ] (String.trim s) with
    | [ h; m; sec ] ->
      (match (int_of_string_opt h, int_of_string_opt m, int_of_string_opt sec) with
       | Some hour, Some minute, Some second -> make_time ~hour ~minute ~second
       | _ -> None)
    | [ h; m ] ->
      (match (int_of_string_opt h, int_of_string_opt m) with
       | Some hour, Some minute -> make_time ~hour ~minute ~second:0
       | _ -> None)
    | _ -> None

  let midnight = Option.get (make_time ~hour:0 ~minute:0 ~second:0)

  let datetime_of_string s =
    let s = String.trim s in
    match String.index_opt s ' ' with
    | Some i ->
      let d = String.sub s 0 i
      and t = String.sub s (i + 1) (String.length s - i - 1) in
      (match (date_of_string d, time_of_string t) with
       | Some date, Some time -> Some { date; time }
       | _ -> None)
    | None ->
      (match date_of_string s with
       | Some date -> Some { date; time = midnight }
       | None -> None)

  let unit_of_string s =
    match String.uppercase_ascii s with
    | "YEAR" | "YEARS" -> Some Year
    | "MONTH" | "MONTHS" -> Some Month
    | "DAY" | "DAYS" -> Some Day
    | "HOUR" | "HOURS" -> Some Hour
    | "MINUTE" | "MINUTES" -> Some Minute
    | "SECOND" | "SECONDS" -> Some Second
    | _ -> None
end

(* ----- lib/data/regex.ml ----- *)

module Regex = struct
  type node =
    | Lit of char
    | Any
    | Class of (char * char) list * bool  (* ranges, negated *)
    | Start
    | End
    | Seq of node list
    | Alt of node * node
    | Rep of node * int * int option

  type t = node

  exception Step_limit
  exception Bad_pattern of string

  let step_cap = 2_000_000

  (* The step count of the most recent match is read back by the string
     functions to charge regex work against the engine's step guard
     ([Fn_ctx.tick ~cost]). With campaigns sharded across domains, a plain
     global [ref] would let one domain's match overwrite another's count
     and flip Limit_hit verdicts — keep it domain-local instead. *)
  let last_steps_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
  let read_last_steps () = Domain.DLS.get last_steps_key
  let write_last_steps n = Domain.DLS.set last_steps_key n

  (* ----- parsing ----- *)

  type cursor = { src : string; mutable pos : int }

  let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None
  let advance c = c.pos <- c.pos + 1

  let parse_escape c =
    match peek c with
    | None -> raise (Bad_pattern "trailing backslash")
    | Some ch ->
      advance c;
      (match ch with
       | 'd' -> Class ([ ('0', '9') ], false)
       | 'D' -> Class ([ ('0', '9') ], true)
       | 'w' ->
         Class ([ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ], false)
       | 'W' ->
         Class ([ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ], true)
       | 's' -> Class ([ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r') ], false)
       | 'S' -> Class ([ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r') ], true)
       | 'n' -> Lit '\n'
       | 't' -> Lit '\t'
       | 'r' -> Lit '\r'
       | 'x' ->
         (* \xHH — two hex digits; longer forms like \x{...} are rejected as
            real engines do after the CVE-2016-0773 fix *)
         if c.pos + 2 > String.length c.src then raise (Bad_pattern "bad \\x escape")
         else begin
           let hex = String.sub c.src c.pos 2 in
           match int_of_string_opt ("0x" ^ hex) with
           | Some code ->
             c.pos <- c.pos + 2;
             Lit (Char.chr code)
           | None -> raise (Bad_pattern "bad \\x escape")
         end
       | ch -> Lit ch)

  let parse_class c =
    (* called after '[' *)
    let negated =
      if peek c = Some '^' then begin
        advance c;
        true
      end
      else false
    in
    let ranges = ref [] in
    let first = ref true in
    let rec go () =
      match peek c with
      | None -> raise (Bad_pattern "unterminated character class")
      | Some ']' when not !first ->
        advance c;
        Class (List.rev !ranges, negated)
      | Some ch ->
        first := false;
        advance c;
        let lo =
          if ch = '\\' then
            match peek c with
            | Some e ->
              advance c;
              (match e with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | e -> e)
            | None -> raise (Bad_pattern "trailing backslash in class")
          else ch
        in
        (match peek c with
         | Some '-' when c.pos + 1 < String.length c.src && c.src.[c.pos + 1] <> ']' ->
           advance c;
           (match peek c with
            | Some hi ->
              advance c;
              if hi < lo then raise (Bad_pattern "inverted range in class");
              ranges := (lo, hi) :: !ranges
            | None -> raise (Bad_pattern "unterminated range"))
         | _ -> ranges := (lo, lo) :: !ranges);
        go ()
    in
    go ()

  let parse_bound c =
    (* called after '{'; returns (min, max option) *)
    let num () =
      let start = c.pos in
      while
        c.pos < String.length c.src && c.src.[c.pos] >= '0' && c.src.[c.pos] <= '9'
      do
        advance c
      done;
      if c.pos = start then None
      else int_of_string_opt (String.sub c.src start (c.pos - start))
    in
    match num () with
    | None -> raise (Bad_pattern "bad {m,n} bound")
    | Some m ->
      (match peek c with
       | Some '}' ->
         advance c;
         (m, Some m)
       | Some ',' ->
         advance c;
         (match peek c with
          | Some '}' ->
            advance c;
            (m, None)
          | _ ->
            (match num () with
             | Some n when peek c = Some '}' ->
               advance c;
               if n < m then raise (Bad_pattern "inverted {m,n} bound");
               (m, Some n)
             | _ -> raise (Bad_pattern "bad {m,n} bound")))
       | _ -> raise (Bad_pattern "bad {m,n} bound"))

  let rec parse_alt c =
    let left = parse_seq c in
    if peek c = Some '|' then begin
      advance c;
      Alt (left, parse_alt c)
    end
    else left

  and parse_seq c =
    let items = ref [] in
    let rec go () =
      match peek c with
      | None | Some ')' | Some '|' -> Seq (List.rev !items)
      | Some _ ->
        items := parse_rep c :: !items;
        go ()
    in
    go ()

  and parse_rep c =
    let atom = parse_atom c in
    match peek c with
    | Some '*' ->
      advance c;
      Rep (atom, 0, None)
    | Some '+' ->
      advance c;
      Rep (atom, 1, None)
    | Some '?' ->
      advance c;
      Rep (atom, 0, Some 1)
    | Some '{' ->
      advance c;
      let m, n = parse_bound c in
      if m > 1000 || (match n with Some n -> n > 1000 | None -> false) then
        raise (Bad_pattern "repetition bound too large");
      Rep (atom, m, n)
    | _ -> atom

  and parse_atom c =
    match peek c with
    | None -> raise (Bad_pattern "expected atom")
    | Some '(' ->
      advance c;
      let inner = parse_alt c in
      if peek c = Some ')' then begin
        advance c;
        inner
      end
      else raise (Bad_pattern "unterminated group")
    | Some '[' ->
      advance c;
      parse_class c
    | Some '.' ->
      advance c;
      Any
    | Some '^' ->
      advance c;
      Start
    | Some '$' ->
      advance c;
      End
    | Some '\\' ->
      advance c;
      parse_escape c
    | Some (('*' | '+' | '?' | '{' | ')' | '|' | ']') as ch) ->
      raise (Bad_pattern (Printf.sprintf "misplaced %c" ch))
    | Some ch ->
      advance c;
      Lit ch

  let compile pattern =
    let c = { src = pattern; pos = 0 } in
    match parse_alt c with
    | node ->
      if c.pos <> String.length pattern then Error "trailing characters in pattern"
      else Ok node
    | exception Bad_pattern msg -> Error msg

  (* ----- matching ----- *)

  let class_member ranges negated ch =
    let inside = List.exists (fun (lo, hi) -> ch >= lo && ch <= hi) ranges in
    if negated then not inside else inside

  let match_at node s start =
    let steps = ref 0 in
    let bump () =
      incr steps;
      if !steps > step_cap then raise Step_limit
    in
    let n = String.length s in
    (* k : int -> bool receives the position after the node matched *)
    let rec go node pos k =
      bump ();
      match node with
      | Lit ch -> pos < n && s.[pos] = ch && k (pos + 1)
      | Any -> pos < n && k (pos + 1)
      | Class (ranges, negated) ->
        pos < n && class_member ranges negated s.[pos] && k (pos + 1)
      | Start -> pos = 0 && k pos
      | End -> pos = n && k pos
      | Seq [] -> k pos
      | Seq (x :: rest) -> go x pos (fun pos' -> go (Seq rest) pos' k)
      | Alt (a, b) -> go a pos k || go b pos k
      | Rep (inner, min_rep, max_rep) ->
        let rec must count pos =
          if count = 0 then greedy 0 pos
          else go inner pos (fun pos' -> must (count - 1) pos')
        and greedy consumed pos =
          bump ();
          let can_more =
            match max_rep with
            | Some mx -> consumed + min_rep < mx
            | None -> true
          in
          (can_more
           && go inner pos (fun pos' ->
                  pos' > pos (* refuse empty-match loops *)
                  && greedy (consumed + 1) pos'))
          || k pos
        in
        must min_rep pos
    in
    let matched_end = ref (-1) in
    let ok =
      go node start (fun pos ->
          matched_end := pos;
          true)
    in
    write_last_steps !steps;
    if ok then Some !matched_end else None

  let find re s =
    let n = String.length s in
    let total = ref 0 in
    let rec scan i =
      if i > n then None
      else
        match match_at re s i with
        | Some e ->
          total := !total + read_last_steps ();
          write_last_steps !total;
          Some (i, e - i)
        | None ->
          total := !total + read_last_steps ();
          scan (i + 1)
    in
    let r = scan 0 in
    write_last_steps !total;
    r

  let matches re s = find re s <> None

  let replace_all re s repl =
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let total = ref 0 in
    let rec go i =
      if i >= n then ()
      else
        match match_at re s i with
        | Some e when e > i ->
          total := !total + read_last_steps ();
          Buffer.add_string buf repl;
          go e
        | Some _ ->
          (* empty match: emit replacement, then advance one char *)
          total := !total + read_last_steps ();
          Buffer.add_string buf repl;
          if i < n then Buffer.add_char buf s.[i];
          go (i + 1)
        | None ->
          total := !total + read_last_steps ();
          Buffer.add_char buf s.[i];
          go (i + 1)
    in
    go 0;
    (* a trailing empty match *)
    (match match_at re s n with
     | Some _ when n > 0 -> ()
     | _ -> ());
    write_last_steps !total;
    Buffer.contents buf

  let steps_of_last_match () = read_last_steps ()
end

(* ----- lib/data/inet.ml ----- *)

module Inet = struct
  open Inet

  let split_char sep s =
    String.split_on_char sep s

  let parse_v4 s =
    match split_char '.' s with
    | [ a; b; c; d ] ->
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 && x <> "" -> Some v
        | _ -> None
      in
      (match (octet a, octet b, octet c, octet d) with
       | Some a, Some b, Some c, Some d -> Some (V4 [| a; b; c; d |])
       | _ -> None)
    | _ -> None

  let parse_group g =
    if g = "" || String.length g > 4 then None
    else
      match int_of_string_opt ("0x" ^ g) with
      | Some v when v >= 0 && v <= 0xFFFF -> Some v
      | _ -> None

  let parse_v6 s =
    (* Split on "::" first; each side is a list of 16-bit groups, with an
       optional embedded IPv4 as the last element of the right side. *)
    let expand_groups part =
      if part = "" then Some []
      else begin
        let pieces = split_char ':' part in
        let rec go acc = function
          | [] -> Some (List.rev acc)
          | [ last ] when String.contains last '.' ->
            (match parse_v4 last with
             | Some (V4 o) ->
               Some (List.rev (((o.(2) * 256) + o.(3)) :: ((o.(0) * 256) + o.(1)) :: acc))
             | _ -> None)
          | g :: rest ->
            (match parse_group g with
             | Some v -> go (v :: acc) rest
             | None -> None)
        in
        go [] pieces
      end
    in
    let make left right =
      let pad = 8 - List.length left - List.length right in
      if pad < 0 then None
      else Some (V6 (Array.of_list (left @ List.init pad (fun _ -> 0) @ right)))
    in
    let idx =
      let rec find i =
        if i + 1 >= String.length s then None
        else if s.[i] = ':' && s.[i + 1] = ':' then Some i
        else find (i + 1)
      in
      find 0
    in
    match idx with
    | Some i ->
      let left = String.sub s 0 i
      and right = String.sub s (i + 2) (String.length s - i - 2) in
      if
        String.length right >= 2
        && String.length right > 0
        && String.sub right 0 1 = ":"
      then None
      else
        (match (expand_groups left, expand_groups right) with
         | Some l, Some r -> make l r
         | _ -> None)
    | None ->
      (match expand_groups s with
       | Some groups when List.length groups = 8 ->
         Some (V6 (Array.of_list groups))
       | _ -> None)

  let of_string s =
    let s = String.trim s in
    if s = "" then None
    else if String.contains s ':' then parse_v6 s
    else parse_v4 s
end

(* ----- lib/data/xml_doc.ml, lib/data/json.ml ----- *)

module Xml_doc = struct
  open Xml_doc

  let parse_xpath s =
    if s = "" || s.[0] <> '/' then Error "xpath must start with /"
    else begin
      let parts = String.split_on_char '/' (String.sub s 1 (String.length s - 1)) in
      let parse_step p =
        match String.index_opt p '[' with
        | None ->
          if p = "" then Error "empty xpath step" else Ok { tag = p; index = None }
        | Some i ->
          if String.length p = 0 || p.[String.length p - 1] <> ']' then
            Error "unterminated [ in xpath"
          else begin
            let tag = String.sub p 0 i in
            let idx = String.sub p (i + 1) (String.length p - i - 2) in
            match int_of_string_opt idx with
            | Some k when k >= 1 && tag <> "" -> Ok { tag; index = Some k }
            | Some _ | None -> Error "bad index in xpath"
          end
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest ->
          (match parse_step p with
           | Ok step -> go (step :: acc) rest
           | Error _ as e -> e)
      in
      go [] parts
    end
end

let escape_json_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ----- function bodies: lib/functions/date_fns.ml, catalog_tail.ml,
   string_fns.ml, conv_fns.ml ----- *)

let month_names =
  [| "January"; "February"; "March"; "April"; "May"; "June"; "July";
     "August"; "September"; "October"; "November"; "December" |]

let day_names =
  [| "Sunday"; "Monday"; "Tuesday"; "Wednesday"; "Thursday"; "Friday";
     "Saturday" |]

let date_format ctx args =
  let dt = Args.datetime ctx args 0 in
  let fmt = Args.str ctx args 1 in
  let d = dt.Calendar.date and t = dt.Calendar.time in
  let buf = Buffer.create (String.length fmt + 8) in
  let n = String.length fmt in
  let rec go i =
    if i >= n then ()
    else if fmt.[i] = '%' && i + 1 < n then begin
      (match fmt.[i + 1] with
       | 'Y' -> Buffer.add_string buf (Printf.sprintf "%04d" d.Calendar.year)
       | 'y' -> Buffer.add_string buf (Printf.sprintf "%02d" (d.Calendar.year mod 100))
       | 'm' -> Buffer.add_string buf (Printf.sprintf "%02d" d.Calendar.month)
       | 'c' -> Buffer.add_string buf (string_of_int d.Calendar.month)
       | 'd' -> Buffer.add_string buf (Printf.sprintf "%02d" d.Calendar.day)
       | 'e' -> Buffer.add_string buf (string_of_int d.Calendar.day)
       | 'H' -> Buffer.add_string buf (Printf.sprintf "%02d" t.Calendar.hour)
       | 'i' -> Buffer.add_string buf (Printf.sprintf "%02d" t.Calendar.minute)
       | 's' | 'S' -> Buffer.add_string buf (Printf.sprintf "%02d" t.Calendar.second)
       | 'M' -> Buffer.add_string buf month_names.(d.Calendar.month - 1)
       | 'W' -> Buffer.add_string buf day_names.(Calendar.day_of_week d)
       | 'j' -> Buffer.add_string buf (Printf.sprintf "%03d" (Calendar.day_of_year d))
       | '%' -> Buffer.add_char buf '%'
       | c ->
         Fn_ctx.point ctx "date-format/unknown-spec";
         Buffer.add_char buf c);
      go (i + 2)
    end
    else begin
      Buffer.add_char buf fmt.[i];
      go (i + 1)
    end
  in
  go 0;
  Value.Str (Buffer.contents buf)

let soundex_code c =
  match Char.uppercase_ascii c with
  | 'B' | 'F' | 'P' | 'V' -> Some '1'
  | 'C' | 'G' | 'J' | 'K' | 'Q' | 'S' | 'X' | 'Z' -> Some '2'
  | 'D' | 'T' -> Some '3'
  | 'L' -> Some '4'
  | 'M' | 'N' -> Some '5'
  | 'R' -> Some '6'
  | _ -> None

let soundex ctx args =
  let s = Args.str ctx args 0 in
  let letters =
    String.to_seq s
    |> Seq.filter (fun c ->
           (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'))
    |> List.of_seq
  in
  match letters with
  | [] -> Value.Str ""
  | first :: rest ->
    let buf = Buffer.create 4 in
    Buffer.add_char buf (Char.uppercase_ascii first);
    let prev = ref (soundex_code first) in
    List.iter
      (fun c ->
        if Buffer.length buf < 4 then begin
          match soundex_code c with
          | Some code when Some code <> !prev -> Buffer.add_char buf code
          | Some _ | None -> ();
          (match Char.uppercase_ascii c with
           | 'H' | 'W' -> ()
           | _ -> prev := soundex_code c)
        end)
      rest;
    while Buffer.length buf < 4 do
      Buffer.add_char buf '0'
    done;
    Value.Str (Buffer.contents buf)

let split_part ctx args =
  let s = Args.str ctx args 0 in
  let sep = Args.str ctx args 1 in
  let idx = Args.small_int ctx args 2 in
  if sep = "" then err "SPLIT_PART: empty separator";
  if idx <= 0 then err "SPLIT_PART: position must be positive";
  let rec split acc i =
    Fn_ctx.tick ctx;
    match find_sub s sep i with
    | Some j -> split (String.sub s i (j - i) :: acc) (j + String.length sep)
    | None -> List.rev (String.sub s i (String.length s - i) :: acc)
  in
  let parts = split [] 0 in
  match List.nth_opt parts (idx - 1) with
  | Some p -> ret_str p
  | None -> ret_str ""

let conv ctx args =
  let s = String.lowercase_ascii (String.trim (Args.str ctx args 0)) in
  let from_base = Args.small_int ctx args 1 in
  let to_base = Args.small_int ctx args 2 in
  if from_base < 2 || from_base > 36 || to_base < 2 || to_base > 36 then
    err "CONV: base out of range 2..36";
  let digit c =
    if c >= '0' && c <= '9' then Char.code c - 48
    else if c >= 'a' && c <= 'z' then Char.code c - 87
    else 99
  in
  let neg = String.length s > 0 && s.[0] = '-' in
  let body = if neg then String.sub s 1 (String.length s - 1) else s in
  let value = ref 0L and valid = ref (body <> "") in
  String.iter
    (fun c ->
      let d = digit c in
      if d >= from_base then valid := false
      else value := Int64.add (Int64.mul !value (Int64.of_int from_base)) (Int64.of_int d))
    body;
  if not !valid then Value.Null
  else begin
    let v = !value in
    if v = 0L then Value.Str "0"
    else begin
      let buf = Buffer.create 64 in
      let rec go v =
        if v > 0L then begin
          go (Int64.div v (Int64.of_int to_base));
          let d = Int64.to_int (Int64.rem v (Int64.of_int to_base)) in
          Buffer.add_char buf "0123456789abcdefghijklmnopqrstuvwxyz".[d]
        end
      in
      go v;
      Value.Str ((if neg then "-" else "") ^ Buffer.contents buf)
    end
  end

(* ----- lib/value/cast.ml: the per-cast coverage point name -----

   Kept for [test_instrumentation.ml], which checks the prebuilt cast
   point table against it. The source tag is a parameter here; the old
   code read it off the cast value as [Value.type_of v]. *)

let cast_point ty target outcome =
  Printf.sprintf "cast/%s->%s/%s"
    (Value.ty_name ty)
    (Sqlfun_ast.Sql_pp.type_name target) outcome

(* ----- lib/value/value.ml: container rendering -----

   The container arms of the old [to_display], kept for
   [test_kernels.ml]: a range spilled to its boxed cells, and every
   container built from concatenated element strings. The scalar arms
   did not change, so they defer to [Value.to_display]. *)

let rec to_display = function
  | Value.Arr vs -> "[" ^ String.concat ", " (List.map to_display vs) ^ "]"
  | Value.Range_arr r -> to_display (Value.Arr (Value.range_spill r))
  | Value.Map kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> to_display k ^ ": " ^ to_display v) kvs)
    ^ "}"
  | Value.Row vs -> "(" ^ String.concat ", " (List.map to_display vs) ^ ")"
  | v -> Value.to_display v
