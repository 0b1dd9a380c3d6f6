type stage = Parsing | Optimization | Execution

type prereq = No_table | Empty_table | Table_with_data

type literal_subcause = Extreme_numeric | Empty_or_null | Crafted_string

type root_cause =
  | Boundary_literal of literal_subcause
  | Boundary_casting
  | Boundary_nested
  | Config_cause
  | Table_definition
  | Syntax_structure

type func_occurrence = { fn_type : string; fn_name : string }

type entry = {
  id : string;
  dbms : string;
  stage : stage option;
  occurrences : func_occurrence list;
  prereq : prereq;
  root_cause : root_cause;
  poc : string option;
}

let stage_to_string = function
  | Parsing -> "parsing"
  | Optimization -> "optimization"
  | Execution -> "execution"

let prereq_to_string = function
  | No_table -> "no table"
  | Empty_table -> "empty table"
  | Table_with_data -> "table with data"

(* ----- the curated subset: bugs quoted in the paper, with real PoCs ----- *)

let curated =
  [
    {
      id = "CVE-2016-0773";
      dbms = "postgresql";
      stage = Some Execution;
      occurrences = [ { fn_type = "string"; fn_name = "REGEXP_LIKE" } ];
      prereq = No_table;
      root_cause = Boundary_literal Extreme_numeric;
      poc = Some "SELECT REGEXP_LIKE('abc', 'a.c')";
    };
    {
      id = "CVE-2015-5289";
      dbms = "postgresql";
      stage = Some Execution;
      occurrences = [ { fn_type = "string"; fn_name = "REPEAT" } ];
      prereq = No_table;
      root_cause = Boundary_nested;
      poc = Some "SELECT REPEAT('[', 1000)::JSON";
    };
    {
      id = "CVE-2023-5868";
      dbms = "postgresql";
      stage = Some Execution;
      occurrences = [ { fn_type = "aggregate"; fn_name = "JSONB_OBJECT_AGG" } ];
      prereq = No_table;
      root_cause = Boundary_casting;
      poc = Some "SELECT JSONB_OBJECT_AGG(DISTINCT 'a', 'abc')";
    };
    {
      id = "MYSQL-104168";
      dbms = "mysql";
      stage = Some Execution;
      occurrences = [ { fn_type = "aggregate"; fn_name = "AVG" } ];
      prereq = No_table;
      root_cause = Boundary_literal Extreme_numeric;
      poc = Some ("SELECT AVG(1." ^ String.make 83 '9' ^ ")");
    };
    {
      id = "MYSQL-UPDATEXML";
      dbms = "mysql";
      stage = Some Execution;
      occurrences = [ { fn_type = "xml"; fn_name = "UPDATEXML" } ];
      prereq = No_table;
      root_cause = Boundary_literal Crafted_string;
      poc = Some "SELECT UPDATEXML('<a><c></c></a>', '/a/c[1]', '<c><b></b></c>')";
    };
    {
      id = "MDEV-23415";
      dbms = "mariadb";
      stage = Some Execution;
      occurrences = [ { fn_type = "string"; fn_name = "FORMAT" } ];
      prereq = No_table;
      root_cause = Boundary_literal Extreme_numeric;
      poc = Some "SELECT FORMAT('0', 50, 'de_DE')";
    };
    {
      id = "MDEV-8407";
      dbms = "mariadb";
      stage = Some Execution;
      occurrences =
        [
          { fn_type = "json"; fn_name = "COLUMN_JSON" };
          { fn_type = "json"; fn_name = "COLUMN_CREATE" };
        ];
      prereq = No_table;
      root_cause = Boundary_casting;
      poc =
        Some
          "SELECT COLUMN_JSON(COLUMN_CREATE('x', \
           123456789012345678901234567890123456789012346789))";
    };
    {
      id = "MDEV-11030";
      dbms = "mariadb";
      stage = Some Execution;
      occurrences =
        [
          { fn_type = "condition"; fn_name = "IFNULL" };
          { fn_type = "casting"; fn_name = "CONVERT" };
        ];
      prereq = No_table;
      root_cause = Boundary_casting;
      poc = Some "SELECT * FROM (SELECT IFNULL(CONVERT(NULL, UNSIGNED), NULL)) sq";
    };
    {
      id = "MDEV-14596";
      dbms = "mariadb";
      stage = Some Execution;
      occurrences = [ { fn_type = "condition"; fn_name = "INTERVAL" } ];
      prereq = No_table;
      root_cause = Boundary_nested;
      poc = Some "SELECT INTERVAL(ROW(1,1), ROW(1,2))";
    };
    {
      id = "MDEV-JSONLEN";
      dbms = "mariadb";
      stage = Some Execution;
      occurrences =
        [
          { fn_type = "json"; fn_name = "JSON_LENGTH" };
          { fn_type = "string"; fn_name = "REPEAT" };
        ];
      prereq = No_table;
      root_cause = Boundary_nested;
      poc = Some "SELECT JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]')";
    };
    {
      id = "MDEV-INETBOUNDARY";
      dbms = "mariadb";
      stage = Some Execution;
      occurrences =
        [
          { fn_type = "spatial"; fn_name = "ST_ASTEXT" };
          { fn_type = "spatial"; fn_name = "BOUNDARY" };
          { fn_type = "casting"; fn_name = "INET6_ATON" };
        ];
      prereq = No_table;
      root_cause = Boundary_nested;
      poc = Some "SELECT ST_ASTEXT(BOUNDARY(INET6_ATON('255.255.255.255')))";
    };
    {
      id = "MDEV-GROUPCONCAT";
      dbms = "mariadb";
      stage = Some Execution;
      occurrences = [ { fn_type = "aggregate"; fn_name = "GROUP_CONCAT" } ];
      prereq = Table_with_data;
      root_cause = Boundary_literal Empty_or_null;
      poc = Some "SELECT GROUP_CONCAT(c) FROM t1";
    };
  
    {
      id = "MDEV-REPEATJSON";
      dbms = "mariadb";
      stage = Some Execution;
      occurrences =
        [
          { fn_type = "json"; fn_name = "JSON_DEPTH" };
          { fn_type = "string"; fn_name = "REPEAT" };
        ];
      prereq = No_table;
      root_cause = Boundary_nested;
      poc = Some "SELECT JSON_DEPTH(REPEAT('[', 100))";
    };
    {
      id = "MDEV-EXTRACTVALUE";
      dbms = "mariadb";
      stage = Some Execution;
      occurrences = [ { fn_type = "xml"; fn_name = "EXTRACTVALUE" } ];
      prereq = No_table;
      root_cause = Boundary_literal Crafted_string;
      poc = Some "SELECT EXTRACTVALUE('<a><b>x</b></a>', '/a/b')";
    };
    {
      id = "MDEV-DATEFORMAT";
      dbms = "mariadb";
      stage = Some Execution;
      occurrences = [ { fn_type = "date"; fn_name = "DATE_FORMAT" } ];
      prereq = Table_with_data;
      root_cause = Boundary_literal Crafted_string;
      poc = Some "SELECT DATE_FORMAT(d, '%M %Y') FROM t1";
    };
    {
      id = "MDEV-GISWKB";
      dbms = "mariadb";
      stage = Some Execution;
      occurrences =
        [
          { fn_type = "spatial"; fn_name = "ST_GEOMFROMWKB" };
          { fn_type = "string"; fn_name = "UNHEX" };
        ];
      prereq = No_table;
      root_cause = Boundary_nested;
      poc = Some "SELECT ST_GEOMFROMWKB(UNHEX('0101'))";
    };
    {
      id = "MDEV-LPADNEG";
      dbms = "mariadb";
      stage = Some Execution;
      occurrences = [ { fn_type = "string"; fn_name = "LPAD" } ];
      prereq = No_table;
      root_cause = Boundary_literal Extreme_numeric;
      poc = Some "SELECT LPAD('x', -18446744073709551615, 'p')";
    };
    {
      id = "MDEV-CONVERTTZ";
      dbms = "mariadb";
      stage = Some Optimization;
      occurrences = [ { fn_type = "date"; fn_name = "CONVERT_TZ" } ];
      prereq = Table_with_data;
      root_cause = Table_definition;
      poc = Some "SELECT CONVERT_TZ(dt, tz1, tz2) FROM zones";
    };
    {
      id = "MYSQL-GEODIST";
      dbms = "mysql";
      stage = Some Execution;
      occurrences =
        [
          { fn_type = "spatial"; fn_name = "ST_DISTANCE" };
          { fn_type = "spatial"; fn_name = "ST_GEOMFROMTEXT" };
          { fn_type = "spatial"; fn_name = "ST_GEOMFROMTEXT" };
        ];
      prereq = No_table;
      root_cause = Boundary_nested;
      poc =
        Some
          "SELECT ST_DISTANCE(ST_GEOMFROMTEXT('POINT(0 0)'), \
           ST_GEOMFROMTEXT('POINT(1 1)'))";
    };
    {
      id = "PGSQL-REPEATCONCAT";
      dbms = "postgresql";
      stage = Some Execution;
      occurrences =
        [
          { fn_type = "string"; fn_name = "CONCAT" };
          { fn_type = "string"; fn_name = "REPEAT" };
        ];
      prereq = No_table;
      root_cause = Boundary_nested;
      poc = Some "SELECT CONCAT(REPEAT('a', 1000000000), 'b')";
    };
  ]

(* ----- schedules: the paper's marginal distributions ----- *)

(* Table 1 *)
let dbms_totals = [ ("postgresql", 39); ("mysql", 10); ("mariadb", 269) ]

(* Finding 1 (230 identifiable backtraces out of 318) *)
let stage_schedule =
  [ (Some Execution, 161); (Some Optimization, 45); (Some Parsing, 24); (None, 88) ]

(* Table 2 (sums to 318 bugs and 508 function-expression occurrences,
   taking the ">= 5" bucket at 5) *)
let size_schedule = [ (1, 191); (2, 87); (3, 23); (4, 11); (5, 6) ]

(* Finding 4 *)
let prereq_schedule =
  [ (Table_with_data, 151); (No_table, 132); (Empty_table, 35) ]

(* §5 root causes with §6's literal split *)
let cause_schedule =
  [
    (Boundary_literal Extreme_numeric, 32);
    (Boundary_literal Empty_or_null, 21);
    (Boundary_literal Crafted_string, 41);
    (Boundary_casting, 74);
    (Boundary_nested, 110);
    (Config_cause, 8);
    (Table_definition, 24);
    (Syntax_structure, 8);
  ]

(* Figure 1: occurrences per function type (sums to 508), with the pool
   size giving the "unique functions" series (string 117/57 and aggregate
   91 are from the paper; the remainder is a consistent completion). *)
let type_pools =
  [
    ( "string", 117,
      [
        "CONCAT"; "REPLACE"; "SUBSTRING"; "SUBSTR"; "FORMAT"; "REPEAT";
        "LENGTH"; "CHAR_LENGTH"; "UPPER"; "LOWER"; "TRIM"; "LTRIM"; "RTRIM";
        "LEFT"; "RIGHT"; "LPAD"; "RPAD"; "INSTR"; "POSITION"; "LOCATE";
        "REVERSE"; "SPACE"; "ASCII"; "CHAR_FN"; "HEX"; "UNHEX"; "ELT";
        "FIELD"; "QUOTE"; "INSERT_STR"; "MID"; "SUBSTRING_INDEX"; "LCASE";
        "UCASE"; "SOUNDEX"; "EXPORT_SET"; "MAKE_SET"; "OCTET_LENGTH";
        "BIT_LENGTH"; "TO_BASE64"; "FROM_BASE64"; "MD5"; "SHA1"; "SHA2";
        "CRC32"; "REGEXP_LIKE"; "REGEXP_REPLACE"; "REGEXP_INSTR";
        "REGEXP_SUBSTR"; "RLIKE"; "WEIGHT_STRING"; "LOAD_FILE"; "STRCMP";
        "CONCAT_WS"; "INITCAP"; "TRANSLATE"; "SPLIT_PART";
      ] );
    ( "aggregate", 91,
      [
        "COUNT"; "SUM"; "AVG"; "MIN"; "MAX"; "GROUP_CONCAT"; "STDDEV";
        "VARIANCE"; "STD"; "BIT_AND"; "BIT_OR"; "BIT_XOR"; "JSON_ARRAYAGG";
        "JSONB_OBJECT_AGG";
      ] );
    ( "date", 64,
      [
        "DATE_ADD"; "DATE_SUB"; "DATE_FORMAT"; "STR_TO_DATE"; "DATEDIFF";
        "LAST_DAY"; "YEAR"; "MONTH"; "DAY"; "DAYOFWEEK"; "DAYOFYEAR"; "WEEK";
        "QUARTER"; "MAKEDATE"; "FROM_DAYS"; "TO_DAYS"; "FROM_UNIXTIME";
        "UNIX_TIMESTAMP"; "ADDTIME"; "CONVERT_TZ";
      ] );
    ( "math", 52,
      [
        "ROUND"; "TRUNCATE"; "FLOOR"; "CEIL"; "ABS"; "MOD"; "POWER"; "EXP";
        "LN"; "LOG"; "SQRT"; "SIGN"; "RAND"; "ATAN"; "COT"; "DEGREES";
        "GREATEST"; "LEAST";
      ] );
    ( "json", 41,
      [
        "JSON_EXTRACT"; "JSON_LENGTH"; "JSON_VALID"; "JSON_DEPTH";
        "JSON_TYPE"; "JSON_KEYS"; "JSON_QUOTE"; "JSON_UNQUOTE"; "JSON_MERGE";
        "JSON_CONTAINS"; "JSON_SET"; "JSON_REMOVE"; "COLUMN_JSON";
        "COLUMN_CREATE"; "COLUMN_GET";
      ] );
    ( "spatial", 36,
      [
        "ST_ASTEXT"; "ST_GEOMFROMTEXT"; "ST_ASBINARY"; "ST_GEOMFROMWKB";
        "BOUNDARY"; "CENTROID"; "ENVELOPE"; "ST_X"; "ST_Y"; "ST_NUMPOINTS";
        "ST_LENGTH"; "ST_AREA";
      ] );
    ( "condition", 30,
      [ "IF"; "IFNULL"; "NULLIF"; "COALESCE"; "ISNULL"; "INTERVAL"; "CASE_FN"; "NVL" ] );
    ( "casting", 25,
      [
        "CAST_FN"; "CONVERT"; "BIN"; "OCT"; "CONV"; "INET_ATON"; "INET_NTOA";
        "INET6_ATON"; "INET6_NTOA";
      ] );
    ( "system", 16,
      [ "VERSION"; "DATABASE"; "USER_FN"; "SLEEP"; "BENCHMARK"; "UUID";
        "LAST_INSERT_ID" ] );
    ( "xml", 14, [ "UPDATEXML"; "EXTRACTVALUE"; "XMLSERIALIZE"; "XMLPARSE" ] );
    ( "sequence", 6, [ "NEXTVAL"; "LASTVAL"; "SETVAL" ] );
    ( "window", 16,
      [
        "ROW_NUMBER"; "RANK"; "DENSE_RANK"; "NTILE"; "LAG"; "LEAD";
        "FIRST_VALUE"; "NTH_VALUE";
      ] );
  ]

(* ----- deterministic construction ----- *)

let expand schedule = List.concat_map (fun (v, n) -> List.init n (fun _ -> v)) schedule

(* A fixed-permutation "shuffle": i -> (i * mult) mod n with mult coprime
   to n, so attribute schedules decorrelate without randomness. *)
let permute mult l =
  let arr = Array.of_list l in
  let n = Array.length arr in
  List.init n (fun i -> arr.(i * mult mod n))

let subtract_one schedule value =
  let rec go = function
    | [] -> []
    | (v, n) :: rest ->
      if v = value && n > 0 then (v, n - 1) :: rest else (v, n) :: go rest
  in
  go schedule

let build () =
  (* remove the curated entries' contributions from each schedule *)
  let dbms_totals =
    List.fold_left
      (fun acc e -> subtract_one acc e.dbms)
      dbms_totals curated
  in
  let stage_schedule =
    List.fold_left (fun acc e -> subtract_one acc e.stage) stage_schedule curated
  in
  let size_schedule =
    List.fold_left
      (fun acc e -> subtract_one acc (List.length e.occurrences))
      size_schedule curated
  in
  let prereq_schedule =
    List.fold_left (fun acc e -> subtract_one acc e.prereq) prereq_schedule curated
  in
  let cause_schedule =
    List.fold_left (fun acc e -> subtract_one acc e.root_cause) cause_schedule curated
  in
  let type_slots =
    (* occurrence-type slots minus the curated occurrences *)
    let counts = Hashtbl.create 16 in
    List.iter (fun (ty, n, _) -> Hashtbl.replace counts ty n) type_pools;
    List.iter
      (fun e ->
        List.iter
          (fun o ->
            match Hashtbl.find_opt counts o.fn_type with
            | Some n when n > 0 -> Hashtbl.replace counts o.fn_type (n - 1)
            | Some _ | None -> ())
          e.occurrences)
      curated;
    List.concat_map
      (fun (ty, _, _) ->
        let n = match Hashtbl.find_opt counts ty with Some n -> n | None -> 0 in
        List.init n (fun _ -> ty))
      type_pools
  in
  let n_rest = List.fold_left (fun acc (_, n) -> acc + n) 0 dbms_totals in
  let dbms_list = expand dbms_totals in
  let stages = permute 181 (expand stage_schedule) in
  let sizes = permute 89 (expand size_schedule) in
  let prereqs = permute 211 (expand prereq_schedule) in
  let causes = permute 131 (expand cause_schedule) in
  let slots = ref (permute 157 type_slots) in
  (* cycle each type pool so the unique-function count equals pool size *)
  let name_counters = Hashtbl.create 16 in
  let name_for ty =
    let pool =
      match List.find_opt (fun (t, _, _) -> t = ty) type_pools with
      | Some (_, _, pool) -> pool
      | None -> [ "UNKNOWN" ]
    in
    let k = match Hashtbl.find_opt name_counters ty with Some k -> k | None -> 0 in
    Hashtbl.replace name_counters ty (k + 1);
    List.nth pool (k mod List.length pool)
  in
  let take_occurrences n =
    let rec go acc n =
      if n = 0 then List.rev acc
      else
        match !slots with
        | ty :: rest ->
          slots := rest;
          go ({ fn_type = ty; fn_name = name_for ty } :: acc) (n - 1)
        | [] ->
          (* ran out (rounding safety): reuse a common type *)
          go ({ fn_type = "string"; fn_name = name_for "string" } :: acc) (n - 1)
    in
    go [] n
  in
  let counter = ref 0 in
  let rest =
    List.init n_rest (fun i ->
        incr counter;
        let dbms = List.nth dbms_list i in
        let prefix =
          match dbms with
          | "postgresql" -> "PGSQL"
          | "mysql" -> "MYSQL"
          | _ -> "MDEV"
        in
        {
          id = Printf.sprintf "%s-S%04d" prefix (10000 + !counter);
          dbms;
          stage = List.nth stages i;
          occurrences = take_occurrences (List.nth sizes i);
          prereq = List.nth prereqs i;
          root_cause = List.nth causes i;
          poc = None;
        })
  in
  curated @ rest

let all = lazy (build ())
