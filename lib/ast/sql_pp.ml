open Ast

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\'' -> Buffer.add_string buf "''"
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\000' -> Buffer.add_string buf "\\0"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec type_name = function
  | T_bool -> "BOOLEAN"
  | T_smallint -> "SMALLINT"
  | T_int -> "INT"
  | T_bigint -> "BIGINT"
  | T_unsigned -> "UNSIGNED"
  | T_decimal None -> "DECIMAL"
  | T_decimal (Some (p, s)) -> Printf.sprintf "DECIMAL(%d,%d)" p s
  | T_float -> "FLOAT"
  | T_double -> "DOUBLE"
  | T_char None -> "CHAR"
  | T_char (Some n) -> Printf.sprintf "CHAR(%d)" n
  | T_varchar None -> "VARCHAR"
  | T_varchar (Some n) -> Printf.sprintf "VARCHAR(%d)" n
  | T_text -> "TEXT"
  | T_blob -> "BLOB"
  | T_date -> "DATE"
  | T_time -> "TIME"
  | T_datetime -> "DATETIME"
  | T_interval_t -> "INTERVAL"
  | T_json -> "JSON"
  | T_array_t t -> Printf.sprintf "ARRAY(%s)" (type_name t)
  | T_map_t (k, v) -> Printf.sprintf "MAP(%s,%s)" (type_name k) (type_name v)
  | T_inet -> "INET"
  | T_uuid -> "UUID"
  | T_geometry -> "GEOMETRY"
  | T_xml -> "XML"
  | T_row_t -> "ROW"
  | T_named (n, []) -> n
  | T_named (n, args) ->
    Printf.sprintf "%s(%s)" n (String.concat "," (List.map string_of_int args))

let unop_str = function Neg -> "-" | Not -> "NOT " | Bit_not -> "~"

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Concat -> "||"
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "AND"
  | Or -> "OR"
  | Like -> "LIKE"
  | Bit_and -> "&"
  | Bit_or -> "|"
  | Bit_xor -> "^"
  | Shift_l -> "<<"
  | Shift_r -> ">>"

let rec expr = function
  | Null -> "NULL"
  | Bool_lit true -> "TRUE"
  | Bool_lit false -> "FALSE"
  | Int_lit s | Dec_lit s -> s
  | Str_lit s -> "'" ^ escape_string s ^ "'"
  | Hex_lit s -> Sqlfun_data.Codec.hex_encode ~prefix:"X'" s ^ "'"
  | Star -> "*"
  | Column (None, c) -> c
  | Column (Some t, c) -> t ^ "." ^ c
  | Call { fname; args; distinct } ->
    Printf.sprintf "%s(%s%s)" fname
      (if distinct then "DISTINCT " else "")
      (String.concat ", " (List.map expr args))
  | Cast (e, t) -> Printf.sprintf "CAST(%s AS %s)" (expr e) (type_name t)
  | Unop (op, e) -> Printf.sprintf "(%s%s)" (unop_str op) (expr e)
  | Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr a) (binop_str op) (expr b)
  | Row es -> Printf.sprintf "ROW(%s)" (String.concat ", " (List.map expr es))
  | Array_lit es ->
    Printf.sprintf "ARRAY[%s]" (String.concat ", " (List.map expr es))
  | Case { operand; branches; else_ } ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf "CASE";
    (match operand with
     | Some e -> Buffer.add_char buf ' '; Buffer.add_string buf (expr e)
     | None -> ());
    List.iter
      (fun (w, t) ->
        Buffer.add_string buf (Printf.sprintf " WHEN %s THEN %s" (expr w) (expr t)))
      branches;
    (match else_ with
     | Some e -> Buffer.add_string buf (" ELSE " ^ expr e)
     | None -> ());
    Buffer.add_string buf " END";
    Buffer.contents buf
  | In_list (e, es) ->
    Printf.sprintf "(%s IN (%s))" (expr e) (String.concat ", " (List.map expr es))
  | Is_null (e, negated) ->
    Printf.sprintf "(%s IS %sNULL)" (expr e) (if negated then "NOT " else "")
  | Between (e, lo, hi) ->
    Printf.sprintf "(%s BETWEEN %s AND %s)" (expr e) (expr lo) (expr hi)
  | Subquery q -> "(" ^ query q ^ ")"
  | Exists q -> "EXISTS (" ^ query q ^ ")"

and from_clause = function
  | From_table (t, None) -> t
  | From_table (t, Some a) -> Printf.sprintf "%s AS %s" t a
  | From_subquery (q, a) -> Printf.sprintf "(%s) AS %s" (query q) a
  | From_join { left; right; kind; on } ->
    let kw =
      match kind with
      | Inner -> "JOIN"
      | Left_outer -> "LEFT JOIN"
      | Cross -> "CROSS JOIN"
    in
    Printf.sprintf "%s %s %s%s" (from_clause left) kw (from_clause right)
      (match on with Some e -> " ON " ^ expr e | None -> "")

and proj_item = function
  | Proj_star -> "*"
  | Proj_expr (e, None) -> expr e
  | Proj_expr (e, Some a) -> expr e ^ " AS " ^ a

and select s =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "SELECT ";
  if s.sel_distinct then Buffer.add_string buf "DISTINCT ";
  Buffer.add_string buf (String.concat ", " (List.map proj_item s.projection));
  (match s.from with
   | Some f -> Buffer.add_string buf (" FROM " ^ from_clause f)
   | None -> ());
  (match s.where with
   | Some e -> Buffer.add_string buf (" WHERE " ^ expr e)
   | None -> ());
  (match s.group_by with
   | [] -> ()
   | es ->
     Buffer.add_string buf
       (" GROUP BY " ^ String.concat ", " (List.map expr es)));
  (match s.having with
   | Some e -> Buffer.add_string buf (" HAVING " ^ expr e)
   | None -> ());
  Buffer.contents buf

and body = function
  | Body_select s -> select s
  | Body_union { all; left; right } ->
    Printf.sprintf "%s UNION %s%s" (body left)
      (if all then "ALL " else "")
      (body right)

and query q =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (body q.body);
  (match q.order_by with
   | [] -> ()
   | items ->
     let item { ord_expr; asc } =
       expr ord_expr ^ if asc then "" else " DESC"
     in
     Buffer.add_string buf (" ORDER BY " ^ String.concat ", " (List.map item items)));
  (match q.limit with
   | Some n -> Buffer.add_string buf (Printf.sprintf " LIMIT %d" n)
   | None -> ());
  Buffer.contents buf

let column_def c =
  Printf.sprintf "%s %s%s%s" c.col_name (type_name c.col_type)
    (if c.col_not_null then " NOT NULL" else "")
    (match c.col_default with
     | Some e -> " DEFAULT " ^ expr e
     | None -> "")

let rec stmt = function
  | Select_stmt q -> query q
  | Explain s -> "EXPLAIN " ^ stmt s
  | Create_table { tbl_name; columns; if_not_exists } ->
    Printf.sprintf "CREATE TABLE %s%s (%s)"
      (if if_not_exists then "IF NOT EXISTS " else "")
      tbl_name
      (String.concat ", " (List.map column_def columns))
  | Insert { ins_table; ins_columns; rows } ->
    let cols =
      match ins_columns with
      | [] -> ""
      | cs -> " (" ^ String.concat ", " cs ^ ")"
    in
    let row r = "(" ^ String.concat ", " (List.map expr r) ^ ")" in
    Printf.sprintf "INSERT INTO %s%s VALUES %s" ins_table cols
      (String.concat ", " (List.map row rows))
  | Drop_table { drop_name; if_exists } ->
    Printf.sprintf "DROP TABLE %s%s"
      (if if_exists then "IF EXISTS " else "")
      drop_name

let stmts ss = String.concat ";\n" (List.map stmt ss) ^ ";"
