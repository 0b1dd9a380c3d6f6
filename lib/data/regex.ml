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

let rec in_ranges (ch : char) = function
  | [] -> false
  | (lo, hi) :: rest -> (ch >= lo && ch <= hi) || in_ranges ch rest

let class_member ranges negated ch =
  if negated then not (in_ranges ch ranges) else in_ranges ch ranges

(* [matcher node s total] is the function from a start position to the
   end of the match of [node] there, or -1. It is built once per
   operation, so trying another start position allocates no new
   matcher state. The steps of each attempt are added to [total]; the
   cap applies to each start position on its own. *)
let matcher node s total =
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
  let accept pos =
    matched_end := pos;
    true
  in
  fun start ->
    steps := 0;
    let ok = go node start accept in
    total := !total + !steps;
    if ok then !matched_end else -1

(* Each operation counts its steps locally and publishes the total once:
   the domain-local slot is written at the end, never per position. *)
let find re s =
  let n = String.length s in
  let total = ref 0 in
  let match_at = matcher re s total in
  let rec scan i =
    if i > n then None
    else
      let e = match_at i in
      if e >= 0 then Some (i, e - i) else scan (i + 1)
  in
  let r = scan 0 in
  write_last_steps !total;
  r

let matches re s = find re s <> None

let replace_all re s repl =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let total = ref 0 in
  let match_at = matcher re s total in
  let rec go i =
    if i >= n then ()
    else
      let e = match_at i in
      if e > i then begin
        Buffer.add_string buf repl;
        go e
      end
      else if e >= 0 then begin
        (* empty match: emit replacement, then advance one char *)
        Buffer.add_string buf repl;
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  (* a trailing empty match: probed (it may hit the step cap) but
     neither replaced nor counted *)
  ignore (matcher re s (ref 0) n);
  write_last_steps !total;
  Buffer.contents buf

let steps_of_last_match () = read_last_steps ()
