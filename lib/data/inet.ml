type t = V4 of int array | V6 of int array

let split_char sep s =
  String.split_on_char sep s

(* The parsers accept a bounded number of parts, so they count the
   separators first: an argument with thousands of them is rejected
   without being split. *)
let count_char sep s =
  String.fold_left (fun n c -> if c = sep then n + 1 else n) 0 s

let parse_v4 s =
  if count_char '.' s <> 3 then None
  else
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
    else if count_char ':' part > 7 then None  (* > 8 groups never fit *)
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

let to_string = function
  | V4 o -> Printf.sprintf "%d.%d.%d.%d" o.(0) o.(1) o.(2) o.(3)
  | V6 g ->
    (* find the longest run of zero groups (length >= 2) to compress *)
    let best_start = ref (-1) and best_len = ref 0 in
    let i = ref 0 in
    while !i < 8 do
      if g.(!i) = 0 then begin
        let j = ref !i in
        while !j < 8 && g.(!j) = 0 do
          incr j
        done;
        let len = !j - !i in
        if len > !best_len then begin
          best_start := !i;
          best_len := len
        end;
        i := !j
      end
      else incr i
    done;
    if !best_len < 2 then
      String.concat ":" (Array.to_list (Array.map (Printf.sprintf "%x") g))
    else begin
      let part lo hi =
        String.concat ":"
          (List.map (fun k -> Printf.sprintf "%x" g.(k))
             (List.init (hi - lo) (fun k -> lo + k)))
      in
      part 0 !best_start ^ "::" ^ part (!best_start + !best_len) 8
    end

let to_bytes = function
  | V4 o ->
    let b = Bytes.create 4 in
    Array.iteri (fun i v -> Bytes.set b i (Char.chr v)) o;
    Bytes.to_string b
  | V6 g ->
    let b = Bytes.create 16 in
    Array.iteri
      (fun i v ->
        Bytes.set b (2 * i) (Char.chr (v lsr 8));
        Bytes.set b ((2 * i) + 1) (Char.chr (v land 0xFF)))
      g;
    Bytes.to_string b

let of_bytes s =
  match String.length s with
  | 4 -> Some (V4 (Array.init 4 (fun i -> Char.code s.[i])))
  | 16 ->
    Some
      (V6
         (Array.init 8 (fun i ->
              (Char.code s.[2 * i] * 256) + Char.code s.[(2 * i) + 1])))
  | _ -> None
