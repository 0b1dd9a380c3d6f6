type t = Element of string * t list | Text of string

exception Xml_error of string

type cursor = { src : string; mutable pos : int }

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.'

let read_name c =
  let start = c.pos in
  while c.pos < String.length c.src && is_name_char c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then raise (Xml_error (Printf.sprintf "expected tag name at %d" start));
  String.sub c.src start (c.pos - start)

let expect c ch =
  if c.pos < String.length c.src && c.src.[c.pos] = ch then c.pos <- c.pos + 1
  else raise (Xml_error (Printf.sprintf "expected %C at %d" ch c.pos))

(* Attributes are tolerated and discarded. *)
let skip_attributes c =
  let n = String.length c.src in
  let in_quote = ref None in
  let continue = ref true in
  while !continue do
    if c.pos >= n then raise (Xml_error "unterminated tag")
    else begin
      let ch = c.src.[c.pos] in
      match !in_quote with
      | Some q ->
        if ch = q then in_quote := None;
        c.pos <- c.pos + 1
      | None ->
        if ch = '>' || (ch = '/' && c.pos + 1 < n && c.src.[c.pos + 1] = '>') then
          continue := false
        else begin
          if ch = '"' || ch = '\'' then in_quote := Some ch;
          c.pos <- c.pos + 1
        end
    end
  done

let rec parse_nodes c depth stop_tag =
  let n = String.length c.src in
  let nodes = ref [] in
  let finished = ref false in
  while not !finished do
    if c.pos >= n then
      if stop_tag = None then finished := true
      else raise (Xml_error "unexpected end of input inside element")
    else if c.src.[c.pos] = '<' then begin
      if c.pos + 1 < n && c.src.[c.pos + 1] = '/' then begin
        match stop_tag with
        | None -> raise (Xml_error "unmatched closing tag")
        | Some tag ->
          c.pos <- c.pos + 2;
          let name = read_name c in
          if name <> tag then
            raise (Xml_error (Printf.sprintf "mismatched </%s>, expected </%s>" name tag));
          expect c '>';
          finished := true
      end
      else begin
        c.pos <- c.pos + 1;
        let name = read_name c in
        skip_attributes c;
        if c.src.[c.pos] = '/' then begin
          c.pos <- c.pos + 2;
          nodes := Element (name, []) :: !nodes
        end
        else begin
          expect c '>';
          if depth > 256 then raise (Xml_error "XML nesting too deep");
          let children = parse_nodes c (depth + 1) (Some name) in
          nodes := Element (name, children) :: !nodes
        end
      end
    end
    else begin
      let start = c.pos in
      while c.pos < n && c.src.[c.pos] <> '<' do
        c.pos <- c.pos + 1
      done;
      let text = String.sub c.src start (c.pos - start) in
      if String.trim text <> "" then nodes := Text text :: !nodes
    end
  done;
  List.rev !nodes

let parse src =
  let c = { src; pos = 0 } in
  match parse_nodes c 0 None with
  | nodes -> Ok nodes
  | exception Xml_error msg -> Error msg

let rec node_to_string = function
  | Text s -> s
  | Element (tag, []) -> Printf.sprintf "<%s></%s>" tag tag
  | Element (tag, children) ->
    Printf.sprintf "<%s>%s</%s>" tag
      (String.concat "" (List.map node_to_string children))
      tag

let to_string nodes = String.concat "" (List.map node_to_string nodes)

type step = { tag : string; index : int option }

let parse_xpath s =
  if s = "" || s.[0] <> '/' then Error "xpath must start with /"
  else begin
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
    (* each step is parsed as it is cut from [s], so the first bad
       step ends the scan before the rest of the path is split *)
    let n = String.length s in
    let rec go acc start =
      let stop = Option.value (String.index_from_opt s start '/') ~default:n in
      match parse_step (String.sub s start (stop - start)) with
      | Error _ as e -> e
      | Ok step ->
        if stop = n then Ok (List.rev (step :: acc)) else go (step :: acc) (stop + 1)
    in
    go [] 1
  end

let select_children nodes { tag; index } =
  let matching =
    List.filter (function Element (t, _) -> t = tag | Text _ -> false) nodes
  in
  match index with
  | None -> matching
  | Some k -> (match List.nth_opt matching (k - 1) with Some n -> [ n ] | None -> [])

let extract nodes path =
  let rec go nodes = function
    | [] -> nodes
    | step :: rest ->
      let selected = select_children nodes step in
      if rest = [] then selected
      else
        go
          (List.concat_map
             (function Element (_, children) -> children | Text _ -> [])
             selected)
          rest
  in
  go nodes path

let update nodes path replacement =
  let rec go nodes = function
    | [] -> nodes
    | [ step ] ->
      (* replace matching children at this level *)
      let count = ref 0 in
      List.concat_map
        (fun node ->
          match node with
          | Element (t, _) when t = step.tag ->
            incr count;
            (match step.index with
             | None -> replacement
             | Some k -> if !count = k then replacement else [ node ])
          | Element _ | Text _ -> [ node ])
        nodes
    | step :: rest ->
      let count = ref 0 in
      List.map
        (fun node ->
          match node with
          | Element (t, children) when t = step.tag ->
            incr count;
            (match step.index with
             | None -> Element (t, go children rest)
             | Some k ->
               if !count = k then Element (t, go children rest) else node)
          | Element _ | Text _ -> node)
        nodes
  in
  go nodes path

let rec node_depth = function
  | Text _ -> 1
  | Element (_, []) -> 1
  | Element (_, children) ->
    1 + List.fold_left (fun m c -> Stdlib.max m (node_depth c)) 0 children

let rec text_content = function
  | Text s -> s
  | Element (_, children) -> String.concat "" (List.map text_content children)
