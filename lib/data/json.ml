type t =
  | J_null
  | J_bool of bool
  | J_num of string
  | J_str of string
  | J_arr of t list
  | J_obj of (string * t) list

type error = Syntax of { msg : string; at : int } | Depth_exceeded of int

exception Err of error

type state = { src : string; mutable pos : int; max_depth : int }

let fail st msg = raise (Err (Syntax { msg; at = st.pos }))

let skip_ws st =
  let n = String.length st.src in
  while
    st.pos < n
    && (match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let peek st =
  if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected %C, found %C" c c')
  | None -> fail st (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string_body st =
  (* called after the opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' ->
      advance st;
      (match peek st with
       | None -> fail st "unterminated escape"
       | Some c ->
         advance st;
         (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            if st.pos + 4 > String.length st.src then fail st "bad \\u escape"
            else begin
              let hex = String.sub st.src st.pos 4 in
              (match int_of_string_opt ("0x" ^ hex) with
               | None -> fail st "bad \\u escape"
               | Some code ->
                 st.pos <- st.pos + 4;
                 (* UTF-8 encode the BMP code point *)
                 if code < 0x80 then Buffer.add_char buf (Char.chr code)
                 else if code < 0x800 then begin
                   Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                 end
                 else begin
                   Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                   Buffer.add_char buf
                     (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                 end)
            end
          | c -> fail st (Printf.sprintf "bad escape \\%c" c));
         go ())
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let n = String.length st.src in
  if peek st = Some '-' then advance st;
  let digits () =
    let before = st.pos in
    while st.pos < n && st.src.[st.pos] >= '0' && st.src.[st.pos] <= '9' do
      advance st
    done;
    if st.pos = before then fail st "expected digits"
  in
  digits ();
  if peek st = Some '.' then begin
    advance st;
    digits ()
  end;
  (match peek st with
   | Some ('e' | 'E') ->
     advance st;
     (match peek st with
      | Some ('+' | '-') -> advance st
      | _ -> ());
     digits ()
   | _ -> ());
  J_num (String.sub st.src start (st.pos - start))

let rec parse_value st depth =
  if depth > st.max_depth then raise (Err (Depth_exceeded st.max_depth));
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      J_obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        expect st '"';
        let key = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> fail st "expected , or } in object"
      in
      J_obj (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      J_arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st "expected , or ] in array"
      in
      J_arr (elements [])
    end
  | Some '"' ->
    advance st;
    J_str (parse_string_body st)
  | Some 't' -> literal st "true" (J_bool true)
  | Some 'f' -> literal st "false" (J_bool false)
  | Some 'n' -> literal st "null" J_null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let parse ?(max_depth = 512) src =
  let st = { src; pos = 0; max_depth } in
  match parse_value st 1 with
  | v ->
    skip_ws st;
    if st.pos <> String.length src then
      Error (Syntax { msg = "trailing characters"; at = st.pos })
    else Ok v
  | exception Err e -> Error e

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
        (* "\\u%04x" without the format interpreter *)
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
        Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec to_string = function
  | J_null -> "null"
  | J_bool true -> "true"
  | J_bool false -> "false"
  | J_num s -> s
  | J_str s -> "\"" ^ escape_json_string s ^ "\""
  | J_arr vs -> "[" ^ String.concat "," (List.map to_string vs) ^ "]"
  | J_obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> "\"" ^ escape_json_string k ^ "\":" ^ to_string v) kvs)
    ^ "}"

let rec depth = function
  | J_null | J_bool _ | J_num _ | J_str _ -> 1
  | J_arr [] | J_obj [] -> 1
  | J_arr vs -> 1 + List.fold_left (fun m v -> Stdlib.max m (depth v)) 0 vs
  | J_obj kvs ->
    1 + List.fold_left (fun m (_, v) -> Stdlib.max m (depth v)) 0 kvs

let length = function
  | J_arr vs -> List.length vs
  | J_obj kvs -> List.length kvs
  | J_null | J_bool _ | J_num _ | J_str _ -> 1

let typ = function
  | J_null -> "null"
  | J_bool _ -> "boolean"
  | J_num _ -> "number"
  | J_str _ -> "string"
  | J_arr _ -> "array"
  | J_obj _ -> "object"

type path_step = Key of string | Index of int

let parse_path s =
  let n = String.length s in
  if n = 0 || s.[0] <> '$' then Error "path must start with $"
  else begin
    let rec go i acc =
      if i >= n then Ok (List.rev acc)
      else
        match s.[i] with
        | '.' ->
          let rec stop j =
            if j < n && s.[j] <> '.' && s.[j] <> '[' then stop (j + 1) else j
          in
          let j = stop (i + 1) in
          if j = i + 1 then Error "empty key in path"
          else go j (Key (String.sub s (i + 1) (j - i - 1)) :: acc)
        | '[' ->
          let rec close j = if j < n && s.[j] <> ']' then close (j + 1) else j in
          let j = close (i + 1) in
          if j >= n then Error "unterminated [ in path"
          else
            (match int_of_string_opt (String.sub s (i + 1) (j - i - 1)) with
             | Some idx -> go (j + 1) (Index idx :: acc)
             | None -> Error "bad index in path")
        | c -> Error (Printf.sprintf "unexpected %C in path" c)
    in
    go 1 []
  end

let extract v path =
  let rec go v = function
    | [] -> Some v
    | Key k :: rest ->
      (match v with
       | J_obj kvs ->
         (match List.assoc_opt k kvs with
          | Some v' -> go v' rest
          | None -> None)
       | _ -> None)
    | Index i :: rest ->
      (match v with
       | J_arr vs ->
         (match List.nth_opt vs i with
          | Some v' -> go v' rest
          | None -> None)
       | _ -> None)
  in
  go v path

let error_to_string = function
  | Syntax { msg; at } -> Printf.sprintf "json syntax error at %d: %s" at msg
  | Depth_exceeded d -> Printf.sprintf "json nesting exceeds %d" d
