(** Direct unit tests for the built-in function library, one block per
    category. Expressions are evaluated through the public engine API on a
    strict-casting profile (and a lenient one where the distinction
    matters). *)

open Sqlfun_engine
open Sqlfun_functions
open Sqlfun_value

let strict_engine =
  lazy
    (Engine.create ~registry:(All_fns.registry ())
       ~cast_cfg:{ Cast.strictness = Cast.Strict; json_max_depth = Some 512 }
       ~dialect:"unit-strict" ())

let lenient_engine =
  lazy
    (Engine.create ~registry:(All_fns.registry ())
       ~cast_cfg:{ Cast.strictness = Cast.Lenient; json_max_depth = Some 512 }
       ~dialect:"unit-lenient" ())

let eval ?(lenient = false) expr =
  let e = Lazy.force (if lenient then lenient_engine else strict_engine) in
  match Engine.eval_expr_sql e expr with
  | Ok v -> Value.to_display v
  | Error err -> "!" ^ Engine.error_to_string err

let check ?lenient expr expected =
  Alcotest.(check string) expr expected (eval ?lenient expr)

let check_err ?lenient expr =
  let out = eval ?lenient expr in
  Alcotest.(check bool) (expr ^ " errors") true
    (String.length out > 0 && out.[0] = '!')

(* ----- string ----- *)

let test_string_basics () =
  check "LENGTH('hello')" "5";
  check "LENGTH('')" "0";
  check "CHAR_LENGTH('h\xc3\xa9llo')" "5";
  check "BIT_LENGTH('ab')" "16";
  check "UPPER('mIxEd')" "MIXED";
  check "LOWER('MiXeD')" "mixed";
  check "REVERSE('abc')" "cba";
  check "REVERSE('')" "";
  check "ASCII('A')" "65";
  check "ASCII('')" "0";
  check "CHR(66)" "B";
  check_err "CHR(999)";
  check "SPACE(3)" "   ";
  check "SPACE(0)" "";
  check "SPACE(-5)" ""

let test_string_concat_trim () =
  check "CONCAT('a', 'b', 'c')" "abc";
  check "CONCAT('n', 42)" "n42";
  check "CONCAT(NULL, 'x')" "NULL";
  check "CONCAT_WS('-', 'a', NULL, 'b')" "a-b";
  check "CONCAT_WS(NULL, 'a', 'b')" "NULL";
  check "TRIM('  pad  ')" "pad";
  check "LTRIM('  pad  ')" "pad  ";
  check "RTRIM('  pad  ')" "  pad";
  check "TRIM('xxpadxx', 'x')" "pad";
  check "INITCAP('hello  world')" "Hello  World";
  check "TRANSLATE('12345', '143', 'ax')" "a2x5"

let test_string_slicing () =
  check "SUBSTRING('hello', 2, 3)" "ell";
  check "SUBSTRING('hello', 2)" "ello";
  check "SUBSTRING('hello', -3)" "llo";
  check "SUBSTRING('hello', 0)" "hello";
  check "SUBSTRING('hello', 99)" "";
  check "SUBSTRING('hello', 2, 0)" "";
  check "LEFT('hello', 2)" "he";
  check "LEFT('hello', 99)" "hello";
  check "LEFT('hello', -1)" "";
  check "RIGHT('hello', 3)" "llo";
  check "LPAD('5', 3, '0')" "005";
  check "LPAD('hello', 3)" "hel";
  check "RPAD('5', 3, 'x')" "5xx";
  check "INSERT('Quadratic', 3, 4, 'What')" "QuWhattic";
  check "INSERT('Quadratic', 99, 4, 'What')" "Quadratic"

let test_string_search_replace () =
  check "INSTR('foobarbar', 'bar')" "4";
  check "INSTR('foobar', 'xyz')" "0";
  check "POSITION('ll', 'hello')" "3";
  check "LOCATE('o', 'hello world', 6)" "8";
  check "REPLACE('aaa', 'a', 'bb')" "bbbbbb";
  check "REPLACE('abc', '', 'x')" "abc";
  check "STRCMP('a', 'b')" "-1";
  check "STRCMP('b', 'b')" "0";
  check "SPLIT_PART('a,b,c', ',', 2)" "b";
  check "SPLIT_PART('a,b,c', ',', 9)" "";
  check_err "SPLIT_PART('a,b', '', 1)";
  check "ELT(2, 'a', 'b', 'c')" "b";
  check "ELT(9, 'a')" "NULL";
  check "FIELD('b', 'a', 'b', 'c')" "2";
  check "FIELD('z', 'a')" "0"

let test_string_codecs () =
  check "HEX('AB')" "4142";
  check "HEX(255)" "FF";
  check "UNHEX('4142')" "0x4142";
  check "UNHEX('zz')" "NULL";
  check "TO_BASE64('abc')" "YWJj";
  check "FROM_BASE64('YWJj')" "0x616263";
  check "FROM_BASE64('!bad!')" "NULL";
  check "QUOTE('it''s')" "'it''s'";
  check "QUOTE(NULL)" "NULL";
  Alcotest.(check int) "MD5 width" 32 (String.length (eval "MD5('abc')"));
  Alcotest.(check bool) "MD5 deterministic" true
    (eval "MD5('abc')" = eval "MD5('abc')");
  Alcotest.(check bool) "MD5 avalanche" true
    (eval "MD5('abc')" <> eval "MD5('abd')")

let test_string_repeat_format () =
  check "REPEAT('ab', 3)" "ababab";
  check "REPEAT('ab', 0)" "";
  check "REPEAT('', 1000)" "";
  check "FORMAT(1234567.891, 2)" "1,234,567.89";
  check "FORMAT(1234567.891, 0)" "1,234,568";
  check "FORMAT(0.5, 4)" "0.5000";
  check "FORMAT(-1234.5, 1)" "-1,234.5";
  check "FORMAT(1234567.891, 2, 'de_DE')" "1.234.567,89"

let test_string_regex () =
  check "REGEXP_LIKE('abc', 'a.c')" "TRUE";
  check "REGEXP_LIKE('abc', '^b')" "FALSE";
  check "REGEXP_LIKE('a1b2', '[0-9]+')" "TRUE";
  check "REGEXP_LIKE('xyz', 'x{1,2}y')" "TRUE";
  check "REGEXP_INSTR('abcd', 'c.')" "3";
  check "REGEXP_REPLACE('a1b2', '[0-9]', '#')" "a#b#";
  check "REGEXP_SUBSTR('abcd', 'b.')" "bc";
  check "REGEXP_SUBSTR('abcd', 'zz')" "NULL";
  check_err "REGEXP_LIKE('a', '(unclosed')";
  check_err "REGEXP_LIKE('a', 'a{5,2}')"

(* ----- math ----- *)

let test_math_rounding () =
  check "ABS(-5)" "5";
  check "ABS(-2.5)" "2.5";
  check "SIGN(-3)" "-1";
  check "SIGN(0)" "0";
  check "ROUND(2.567, 2)" "2.57";
  check "ROUND(2.5)" "3";
  check "ROUND(-2.5)" "-3";
  check "ROUND(1234.5, -2)" "1200";
  check "TRUNCATE(2.567, 1)" "2.5";
  check "TRUNCATE(-2.567, 1)" "-2.5";
  check "TRUNCATE(1234.5, -2)" "1200";
  check "CEIL(1.2)" "2";
  check "CEIL(-1.2)" "-1";
  check "FLOOR(1.8)" "1";
  check "FLOOR(-1.2)" "-2";
  check "CEIL(5)" "5"

let test_math_functions () =
  check "SQRT(9)" "3";
  check "SQRT(-1)" "NULL";
  check "POWER(2, 10)" "1024";
  check "POW(2, 0.5)" "1.41421356237";
  check "MOD(10, 3)" "1";
  check "MOD(10, 0)" "NULL";
  check "DIV(10, 3)" "3";
  check "LN(1)" "0";
  check "LN(0)" "NULL";
  check "LOG10(100)" "2";
  check "LOG2(8)" "3";
  check "LOG(2, 8)" "3";
  check "LOG(1, 8)" "NULL";
  check "EXP(0)" "1";
  check "GREATEST(1, 2, 3)" "3";
  check "LEAST(1.5, -2, 30)" "-2";
  check "GREATEST('a', 'b')" "b";
  check_err "GREATEST(1, 'a', ROW(1,2))";
  check "GCD(12, 18)" "6";
  check "FACTORIAL(5)" "120";
  check_err "FACTORIAL(25)";
  check_err "FACTORIAL(-1)";
  check "BIT_COUNT(7)" "3";
  check "BIT_COUNT(0)" "0";
  check "BIT_COUNT(-1)" "64";
  check "DEGREES(PI())" "180";
  check "SIN(0)" "0";
  check "COS(0)" "1";
  check_err "ACOS(5)"

(* ----- condition ----- *)

let test_condition () =
  check "IF(1 < 2, 'y', 'n')" "y";
  check "IF(NULL, 'y', 'n')" "n";
  check "IFNULL(NULL, 'x')" "x";
  check "IFNULL(5, 'x')" "5";
  check "NVL(NULL, 0)" "0";
  check "NULLIF(1, 1)" "NULL";
  check "NULLIF(1, 2)" "1";
  check "COALESCE(NULL, NULL, 3, 4)" "3";
  check "COALESCE(NULL, NULL)" "NULL";
  check "ISNULL(NULL)" "1";
  check "ISNULL(0)" "0";
  check "INTERVAL(23, 1, 15, 17, 30, 44, 200)" "3";
  check "INTERVAL(10, 20, 30)" "0";
  check "INTERVAL(NULL, 10)" "-1";
  check_err "INTERVAL(ROW(1,1), ROW(1,2))";
  check "CHOOSE(2, 'a', 'b', 'c')" "b";
  check "CHOOSE(9, 'a')" "NULL"

(* ----- date ----- *)

let test_date () =
  check "YEAR('2023-05-17')" "2023";
  check "MONTH('2023-05-17')" "5";
  check "DAY('2023-05-17')" "17";
  check "DAYOFWEEK('2023-01-01')" "1";
  check "DAYOFYEAR('2023-02-01')" "32";
  check "QUARTER('2023-05-17')" "2";
  check "LAST_DAY('2024-02-10')" "2024-02-29";
  check "DATEDIFF('2024-01-01', '2023-01-01')" "365";
  check "MONTHNAME('2023-05-17')" "May";
  check "DAYNAME('2023-01-02')" "Monday";
  check "MAKEDATE(2024, 60)" "2024-02-29";
  check "MAKEDATE(2024, 0)" "NULL";
  check "TO_DAYS('2000-01-01')" "2451545";
  check "FROM_DAYS(2451545)" "2000-01-01";
  check "DATE_FORMAT('2023-05-17', '%Y/%m/%d')" "2023/05/17";
  check "DATE_FORMAT('2023-05-17', '%W %M %e')" "Wednesday May 17";
  check "DATE_ADD('2023-01-31', INTERVAL 1 MONTH)" "2023-02-28 00:00:00";
  check "DATE_SUB('2023-01-01', INTERVAL 1 DAY)" "2022-12-31 00:00:00";
  check "UNIX_TIMESTAMP('1970-01-02')" "86400";
  check "FROM_UNIXTIME(86400)" "1970-01-02 00:00:00";
  check "HOUR('2023-05-17 13:45:10')" "13";
  check "MINUTE('2023-05-17 13:45:10')" "45";
  check "SECOND('2023-05-17 13:45:10')" "10";
  check_err "YEAR('not a date')";
  check ~lenient:true "YEAR('not a date')" "!ERROR: argument 1 is not a valid datetime"

(* ----- json ----- *)

let test_json () =
  check "JSON_VALID('{\"a\": 1}')" "TRUE";
  check "JSON_VALID('nope')" "FALSE";
  check "JSON_LENGTH('[1, 2, 3]')" "3";
  check "JSON_LENGTH('{\"a\": 1}')" "1";
  check "JSON_LENGTH('5')" "1";
  check "JSON_LENGTH('{\"a\": [1, 2]}', '$.a')" "2";
  check "JSON_LENGTH('{\"a\": 1}', '$.zzz')" "NULL";
  check "JSON_DEPTH('[[1]]')" "3";
  check "JSON_TYPE('[]')" "array";
  check "JSON_TYPE('\"s\"')" "string";
  check "JSON_EXTRACT('{\"a\": [1, 2]}', '$.a[1]')" "2";
  check "JSON_EXTRACT('{\"a\": 1}', '$.b')" "NULL";
  check_err "JSON_EXTRACT('{\"a\": 1}', 'bad path')";
  check "JSON_KEYS('{\"a\": 1, \"b\": 2}')" "[\"a\",\"b\"]";
  check "JSON_KEYS('[1]')" "NULL";
  check "JSON_ARRAY(1, 'a', NULL)" "[1,\"a\",null]";
  check "JSON_OBJECT('k', 1)" "{\"k\":1}";
  check_err "JSON_OBJECT('k')";
  check_err "JSON_OBJECT(NULL, 1)";
  check "JSON_QUOTE('a\"b')" "\"a\\\"b\"";
  check "JSON_UNQUOTE('\"abc\"')" "abc";
  check "JSON_MERGE('[1]', '[2]', '3')" "[1,2,3]";
  check "JSON_CONTAINS('[1, 2]', '2')" "TRUE";
  check "JSON_CONTAINS('{\"a\": {\"b\": 1}}', '1')" "TRUE";
  check "COLUMN_JSON(COLUMN_CREATE('x', 1.50))" "{\"x\":1.50}";
  check "COLUMN_GET(COLUMN_CREATE('x', 7), 'x')" "7";
  check "COLUMN_GET(COLUMN_CREATE('x', 7), 'y')" "NULL"

(* ----- array / map ----- *)

let test_array () =
  check "ARRAY_LENGTH(ARRAY[1, 2, 3])" "3";
  check "ARRAY_LENGTH(ARRAY[])" "0";
  check "ARRAY_APPEND(ARRAY[1], 2)" "[1, 2]";
  check "ARRAY_PREPEND(0, ARRAY[1])" "[0, 1]";
  check "ARRAY_CONCAT(ARRAY[1], ARRAY[2], ARRAY[3])" "[1, 2, 3]";
  check "ARRAY_CONTAINS(ARRAY[1, 2], 2)" "TRUE";
  check "ARRAY_CONTAINS(ARRAY[1, 2], 9)" "FALSE";
  check "ARRAY_POSITION(ARRAY['a', 'b'], 'b')" "2";
  check "ARRAY_POSITION(ARRAY['a'], 'z')" "NULL";
  check "ARRAY_ELEMENT(ARRAY[10, 20, 30], 2)" "20";
  check "ARRAY_ELEMENT(ARRAY[10, 20, 30], -1)" "30";
  check "ARRAY_ELEMENT(ARRAY[10], 99)" "NULL";
  check "ARRAY_SLICE(ARRAY[1, 2, 3, 4], 2, 2)" "[2, 3]";
  check_err "ARRAY_SLICE(ARRAY[1], 0, 1)";
  check "ARRAY_REVERSE(ARRAY[1, 2])" "[2, 1]";
  check "ARRAY_DISTINCT(ARRAY[1, 1, 2, 1])" "[1, 2]";
  check "ARRAY_SORT(ARRAY[3, 1, 2])" "[1, 2, 3]";
  check "ARRAY_MIN(ARRAY[3, 1, 2])" "1";
  check "ARRAY_MAX(ARRAY[3, 1, 2])" "3";
  check "ARRAY_MIN(ARRAY[])" "NULL";
  check "ARRAY_JOIN(ARRAY['a', 'b'], '-')" "a-b";
  check "ARRAY_FLATTEN(ARRAY[ARRAY[1], ARRAY[2, 3]])" "[1, 2, 3]";
  check "RANGE(4)" "[0, 1, 2, 3]";
  check "RANGE(2, 5)" "[2, 3, 4]";
  check "RANGE(5, 2)" "[]"

let test_map () =
  check "MAP_KEYS(MAP_FROM_ARRAYS(ARRAY['a', 'b'], ARRAY[1, 2]))" "[a, b]";
  check "MAP_VALUES(MAP_FROM_ARRAYS(ARRAY['a'], ARRAY[9]))" "[9]";
  check "MAP_SIZE(MAP_FROM_ARRAYS(ARRAY['a'], ARRAY[1]))" "1";
  check "MAP_CONTAINS(MAP_FROM_ARRAYS(ARRAY['a'], ARRAY[1]), 'a')" "TRUE";
  check "ELEMENT_AT(MAP_FROM_ARRAYS(ARRAY['a'], ARRAY[1]), 'a')" "1";
  check "ELEMENT_AT(MAP_FROM_ARRAYS(ARRAY['a'], ARRAY[1]), 'z')" "NULL";
  check "ELEMENT_AT(ARRAY[5, 6], 2)" "6";
  check_err "MAP_FROM_ARRAYS(ARRAY['a'], ARRAY[1, 2])"

(* ----- casting / conv ----- *)

let test_conv () =
  check "CONVERT('12', SIGNED)" "12";
  check "CONVERT(3.7, SIGNED)" "4";
  check "TOSTRING(42)" "42";
  check "TONUMBER('1.5')" "1.5";
  check "TODECIMALSTRING(3.14159, 2)" "3.14";
  check "TODECIMALSTRING(3.1, 4)" "3.1000";
  check_err "TODECIMALSTRING(1, 99)";
  check "BIN(12)" "1100";
  check "BIN(0)" "0";
  check "OCT(8)" "10";
  check "CONV('ff', 16, 10)" "255";
  check "CONV('255', 10, 16)" "ff";
  check "CONV('-ff', 16, 10)" "-255";
  check "CONV('zz', 16, 10)" "NULL";
  check_err "CONV('1', 1, 10)";
  check "INET_ATON('10.0.0.1')" "167772161";
  check "INET_ATON('nope')" "NULL";
  check "INET_NTOA(167772161)" "10.0.0.1";
  check "INET_NTOA(-1)" "NULL";
  check "INET6_NTOA(INET6_ATON('::1'))" "::1";
  check "INET6_NTOA(INET6_ATON('255.255.255.255'))" "255.255.255.255";
  check "IS_IPV4('1.2.3.4')" "1";
  check "IS_IPV6('1.2.3.4')" "0";
  check "IS_IPV6('fe80::1')" "1";
  check "BIN_TO_UUID(UUID_TO_BIN('6ccd780c-baba-1026-9564-5b8c656024db'))"
    "6ccd780c-baba-1026-9564-5b8c656024db";
  check_err "UUID_TO_BIN('nope')"

(* ----- spatial / xml ----- *)

let test_spatial () =
  check "ST_ASTEXT(POINT(1, 2))" "POINT(1 2)";
  check "ST_X(POINT(3, 4))" "3";
  check "ST_Y(POINT(3, 4))" "4";
  check_err "ST_X(ST_GEOMFROMTEXT('LINESTRING(0 0, 1 1)'))";
  check "ST_NUMPOINTS(ST_GEOMFROMTEXT('LINESTRING(0 0, 1 1, 2 2)'))" "3";
  check "ST_LENGTH(ST_GEOMFROMTEXT('LINESTRING(0 0, 3 4)'))" "5";
  check "ST_AREA(ST_GEOMFROMTEXT('POLYGON((0 0, 4 0, 4 4, 0 4, 0 0))'))" "16";
  check "ST_DISTANCE(POINT(0, 0), POINT(3, 4))" "5";
  check "ST_ASTEXT(CENTROID(ST_GEOMFROMTEXT('LINESTRING(0 0, 2 2)')))" "POINT(1 1)";
  check "ST_ASTEXT(BOUNDARY(ST_GEOMFROMTEXT('LINESTRING(0 0, 5 5)')))"
    "MULTIPOINT(0 0, 5 5)";
  check "BOUNDARY(POINT(1, 1))" "NULL";
  check "ST_ASTEXT(ST_GEOMFROMWKB(ST_ASBINARY(POINT(1, 2))))" "POINT(1 2)";
  check "ST_ASTEXT(ENVELOPE(ST_GEOMFROMTEXT('LINESTRING(0 0, 2 3)')))"
    "POLYGON((0 0, 2 0, 2 3, 0 3, 0 0))";
  check_err "ST_GEOMFROMTEXT('TRIANGLE(1)')";
  check_err "ST_ASTEXT(INET6_ATON('255.255.255.255'))"

let test_xml () =
  check "UPDATEXML('<a><c></c></a>', '/a/c[1]', '<c><b></b></c>')"
    "<a><c><b></b></c></a>";
  check "EXTRACTVALUE('<a><b>x</b></a>', '/a/b')" "x";
  check "EXTRACTVALUE('<a><b>x</b><b>y</b></a>', '/a/b[2]')" "y";
  check "EXTRACTVALUE('<a></a>', '/a/zzz')" "";
  check "XML_VALID('<a></a>')" "TRUE";
  check "XML_VALID('<a>')" "FALSE";
  check_err "UPDATEXML('<a></a>', 'bad', '<b></b>')";
  check_err "EXTRACTVALUE('<broken', '/a')"

(* ----- system / sequence ----- *)

let test_system () =
  check "DATABASE()" "main";
  check "CONNECTION_ID()" "1";
  check "TYPEOF(1.5)" "DECIMAL";
  check "TYPEOF('x')" "TEXT";
  check "TYPEOF(NULL)" "NULL";
  check "PG_TYPEOF(1)" "bigint";
  check "SLEEP(0)" "0";
  check_err "SLEEP(-1)";
  check "BENCHMARK(10, 1)" "0";
  check_err "BENCHMARK(-1, 1)";
  check "CURRENT_SETTING('server_version')" "16.1-sim";
  check_err "CURRENT_SETTING('no_such_setting')";
  Alcotest.(check int) "UUID format" 36 (String.length (eval "UUID()"))

(* ----- aggregates via GROUP BY paths (engine-level already covered; here
   the distinct/star cases) ----- *)

let test_aggregate_edges () =
  let e = Lazy.force strict_engine in
  let exec sql =
    match Engine.exec_sql e sql with
    | Ok (Engine.Rows { rows = [ [ v ] ]; _ }) -> Value.to_display v
    | Ok _ -> "?"
    | Error err -> "!" ^ Engine.error_to_string err
  in
  ignore (Engine.exec_sql e "DROP TABLE IF EXISTS agg_t");
  ignore (Engine.exec_sql e "CREATE TABLE agg_t (v INT, s TEXT)");
  ignore
    (Engine.exec_sql e
       "INSERT INTO agg_t VALUES (1, 'a'), (1, 'a'), (2, 'b'), (NULL, 'c')");
  Alcotest.(check string) "count star" "4" (exec "SELECT COUNT(*) FROM agg_t");
  Alcotest.(check string) "count distinct" "2" (exec "SELECT COUNT(DISTINCT v) FROM agg_t");
  Alcotest.(check string) "sum distinct" "3" (exec "SELECT SUM(DISTINCT v) FROM agg_t");
  Alcotest.(check string) "avg" "1.3333" (exec "SELECT AVG(v) FROM agg_t");
  Alcotest.(check string) "stddev of singleton" "0" (exec "SELECT STDDEV(1) ");
  Alcotest.(check string) "variance" "0.22222222222222224"
    (exec "SELECT VARIANCE(v) FROM agg_t WHERE v IS NOT NULL AND v < 3");
  Alcotest.(check string) "median" "1" (exec "SELECT MEDIAN(v) FROM agg_t");
  Alcotest.(check string) "array_agg" "[1, 1, 2, NULL]"
    (exec "SELECT ARRAY_AGG(v) FROM agg_t");
  Alcotest.(check string) "bit_and" "0" (exec "SELECT BIT_AND(v) FROM agg_t");
  Alcotest.(check string) "bit_or" "3" (exec "SELECT BIT_OR(v) FROM agg_t");
  Alcotest.(check string) "jsonb_object_agg distinct" "{\"a\":1,\"b\":2}"
    (exec "SELECT JSONB_OBJECT_AGG(DISTINCT s, v) FROM agg_t WHERE v IS NOT NULL");
  Alcotest.(check string) "group_concat sep" "1|1|2"
    (exec "SELECT GROUP_CONCAT(v, '|') FROM agg_t")

(* NULL propagation is uniform for null-propagating scalars *)
let test_null_propagation () =
  List.iter
    (fun expr -> check expr "NULL")
    [
      "LENGTH(NULL)"; "UPPER(NULL)"; "REPEAT(NULL, 3)"; "REPEAT('a', NULL)";
      "ABS(NULL)"; "ROUND(NULL)"; "SQRT(NULL)"; "YEAR(NULL)";
      "JSON_VALID(NULL)"; "HEX(NULL)"; "ST_ASTEXT(NULL)"; "INET_ATON(NULL)";
      "CONV(NULL, 16, 10)"; "DATEDIFF(NULL, '2023-01-01')";
    ]


(* ----- the catalog tail ----- *)

let test_tail_string () =
  check "MID('hello', 2, 3)" "ell";
  check "MID('hello', -3, 2)" "ll";
  check "UCASE('abc')" "ABC";
  check "LCASE('ABC')" "abc";
  check "OCTET_LENGTH('ab')" "2";
  check "SUBSTRING_INDEX('www.mysql.com', '.', 2)" "www.mysql";
  check "SUBSTRING_INDEX('www.mysql.com', '.', -2)" "mysql.com";
  check "SUBSTRING_INDEX('www.mysql.com', '.', 0)" "";
  check "SUBSTRING_INDEX('abc', '.', 5)" "abc";
  check "SOUNDEX('Robert')" "R163";
  check "SOUNDEX('Rupert')" "R163";
  check "SOUNDEX('')" "";
  check "EXPORT_SET(5, 'Y', 'N', ',', 4)" "Y,N,Y,N";
  check "MAKE_SET(3, 'a', 'b', 'c')" "a,b";
  check "MAKE_SET(0, 'a')" "";
  check "CHAR_FN(65, 66)" "AB"

let test_tail_math () =
  check "COT(PI() / 4)" "1";
  check "SINH(0)" "0";
  check "COSH(0)" "1";
  check "TANH(0)" "0";
  check "CBRT(27)" "3";
  check "SQUARE(3)" "9";
  check "SQUARE(1.5)" "2.25";
  check "LOG1P(0)" "0";
  check "LOG1P(-2)" "NULL";
  check "LCM(4, 6)" "12";
  check "LCM(0, 5)" "0"

let test_tail_date () =
  check "WEEKDAY('2023-01-02')" "0";
  check "WEEKDAY('2023-01-01')" "6";
  check "YEARWEEK('2023-02-01')" "202305";
  check "ADDTIME('2023-05-17 10:00:00', '01:30:00')" "2023-05-17 11:30:00";
  check "SUBTIME('2023-05-17 10:00:00', '01:30:00')" "2023-05-17 08:30:00";
  check "TIMEDIFF('2023-05-17 12:00:00', '2023-05-17 10:30:00')" "01:30:00";
  check "TIMEDIFF('2023-05-17 10:00:00', '2023-05-17 12:30:00')" "-02:30:00";
  check "PERIOD_ADD(202305, 3)" "202308";
  check "PERIOD_ADD(202311, 2)" "202401";
  check_err "PERIOD_ADD(202399, 1)"

let test_tail_json () =
  check "JSON_SET('{\"a\": 1}', '$.a', 2)" "{\"a\":2}";
  check "JSON_SET('{\"a\": 1}', '$.b', 2)" "{\"a\":1,\"b\":2}";
  check "JSON_INSERT('{\"a\": 1}', '$.a', 9)" "{\"a\":1}";
  check "JSON_INSERT('{\"a\": 1}', '$.b', 9)" "{\"a\":1,\"b\":9}";
  check "JSON_REPLACE('{\"a\": 1}', '$.a', 9)" "{\"a\":9}";
  check "JSON_REPLACE('{\"a\": 1}', '$.b', 9)" "{\"a\":1}";
  check "JSON_REMOVE('{\"a\": 1, \"b\": 2}', '$.b')" "{\"a\":1}";
  check "JSON_REMOVE('[1, 2, 3]', '$[1]')" "[1,3]";
  check_err "JSON_REMOVE('{}', '$')";
  check "JSON_SEARCH('{\"a\": \"x\", \"b\": [\"y\", \"x\"]}', 'x')" "$.a";
  check "JSON_SEARCH('[\"p\", \"q\"]', 'q')" "$[1]";
  check "JSON_SEARCH('{}', 'zzz')" "NULL";
  Alcotest.(check bool) "JSON_PRETTY multiline" true
    (String.contains (eval "JSON_PRETTY('{\"a\": [1]}')") '\n')

let test_tail_array_cond () =
  check "ARRAY_SUM(ARRAY[1, 2, 3])" "6";
  check "ARRAY_SUM(ARRAY[1.5, 2.5])" "4.0";
  check "ARRAY_AVG(ARRAY[1, 2, 3])" "2.0000";
  check "ARRAY_AVG(ARRAY[])" "NULL";
  check "ARRAY_UNION(ARRAY[1, 2], ARRAY[2, 3])" "[1, 2, 3]";
  check "ARRAY_INTERSECT(ARRAY[1, 2], ARRAY[2, 3])" "[2]";
  check "DECODE(2, 1, 'one', 2, 'two', 'other')" "two";
  check "DECODE(9, 1, 'one', 'other')" "other";
  check "DECODE(9, 1, 'one')" "NULL";
  check "IIF(2 > 1, 'y', 'n')" "y";
  check "IIF(NULL, 'y', 'n')" "n";
  check "TRY_CAST('12', 'SIGNED')" "12";
  check "TRY_CAST('nope', 'SIGNED')" "NULL";
  check_err "TRY_CAST(1, 'NO_SUCH_TYPE')";
  check "TO_CHAR(1234.5)" "1234.5";
  check "COERCIBILITY('abc')" "4";
  check "COERCIBILITY(NULL)" "6";
  check "CHARSET('abc')" "utf8mb4";
  check "CHARSET(UNHEX('41'))" "binary"

(* ----- compact representations ----- *)

(* Expected values are built from Stdlib alone, so the eager path below
   each compaction threshold and the compact path at and above it are
   checked against the same independent reference. *)

let str_rep s n = String.concat "" (List.init n (fun _ -> s))

(* [n] bytes cycling through [pad], as LPAD/RPAD fill *)
let cycle pad n = String.init n (fun i -> pad.[i mod String.length pad])

let ints lo hi = List.init (hi - lo) (fun i -> lo + i)
let arr_display cells = "[" ^ String.concat ", " (List.map string_of_int cells) ^ "]"

let utf8_chars s =
  String.fold_left
    (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 s

(* whether the default engine builds [expr] as a compact value *)
let compact_built expr =
  match Engine.eval_expr_sql (Lazy.force strict_engine) expr with
  | Ok (Value.Range_arr _ | Value.Rope_str _) -> true
  | Ok _ | Error _ -> false

(* display plus the byte and character counts of a string expression *)
let check_str expr expected =
  check expr expected;
  check ("LENGTH(" ^ expr ^ ")") (string_of_int (String.length expected));
  check ("CHAR_LENGTH(" ^ expr ^ ")") (string_of_int (utf8_chars expected))

(* display plus the cell count of an array expression *)
let check_arr expr cells =
  check expr (arr_display cells);
  check ("ARRAY_LENGTH(" ^ expr ^ ")") (string_of_int (List.length cells))

let test_compact_observational () =
  check_arr "RANGE(500)" (ints 0 500);
  check_arr "ARRAY_REVERSE(RANGE(300))" (List.rev (ints 0 300));
  check_arr "ARRAY_SLICE(RANGE(1000), 5, 600)" (ints 4 604);
  check_arr "ARRAY_SLICE(RANGE(1000), 900, 500)" (ints 899 1000);
  check "ELEMENT_AT(RANGE(2000), 1999)" "1998";
  check "ARRAY_ELEMENT(RANGE(2000), -1)" "1999";
  check "ARRAY_MIN(RANGE(5000))" "0";
  check "ARRAY_MAX(RANGE(5000))" "4999";
  check "ARRAY_LENGTH(RANGE(5000))" "5000";
  check_str "REPEAT('ab', 3000)" (str_rep "ab" 3000);
  check_str "REPEAT('\xc3\xa9', 3000)" (str_rep "\xc3\xa9" 3000);
  check_str "LPAD('x', 5000, 'ab')" (cycle "ab" 4999 ^ "x");
  check_str "RPAD('x', 5000, 'yz')" ("x" ^ cycle "yz" 4999);
  check_str "SPACE(5000)" (String.make 5000 ' ');
  check_str "CONCAT(REPEAT('a', 3000), REPEAT('b', 3000))"
    (String.make 3000 'a' ^ String.make 3000 'b');
  check_str "UPPER(REPEAT('ab', 3000))" (str_rep "AB" 3000);
  check_str "SUBSTRING(REPEAT('abc', 2000), 5999, 4)" "bc";
  check_str "REVERSE(REPEAT('ab', 2500))" (str_rep "ba" 2500);
  (* both sides of each threshold: one below takes the eager code, the
     threshold and one above build the compact value *)
  let bytes = Value.Compact.min_str_bytes in
  List.iter
    (fun n ->
      List.iter
        (fun (expr, expected) ->
          Alcotest.(check bool) (expr ^ " compact") (n >= bytes) (compact_built expr);
          check_str expr expected)
        [ (Printf.sprintf "REPEAT('a', %d)" n, String.make n 'a');
          (Printf.sprintf "SPACE(%d)" n, String.make n ' ');
          (Printf.sprintf "LPAD('x', %d, 'abc')" n, cycle "abc" (n - 1) ^ "x");
          (Printf.sprintf "RPAD('x', %d, 'abc')" n, "x" ^ cycle "abc" (n - 1));
          (Printf.sprintf "LPAD('\xc3\xa9', %d, 'ab')" n,
           cycle "ab" (n - 2) ^ "\xc3\xa9");
          (Printf.sprintf "CONCAT(REPEAT('a', %d), 'b')" (n - 1),
           String.make (n - 1) 'a' ^ "b");
          (Printf.sprintf "REPEAT('a', %d) || 'b'" (n - 1),
           String.make (n - 1) 'a' ^ "b") ])
    [ bytes - 1; bytes; bytes + 1 ];
  let cells = Value.Compact.min_array_len in
  List.iter
    (fun n ->
      List.iter
        (fun (expr, expected) ->
          Alcotest.(check bool) (expr ^ " compact") (n >= cells) (compact_built expr);
          check_arr expr expected)
        [ (Printf.sprintf "RANGE(%d)" n, ints 0 n);
          (Printf.sprintf "RANGE(7, %d)" (n + 7), ints 7 (n + 7)) ])
    [ cells - 1; cells; cells + 1 ]

(* spill paths exactly at the resource caps: at-cap succeeds through
   the compact path with the same totals the eager path enforces, one
   past the cap raises the resource error *)
let test_compact_resource_boundaries () =
  check "ARRAY_LENGTH(RANGE(1000000))" "1000000";
  check_err "RANGE(1000001)";
  check "ELEMENT_AT(RANGE(1000000), 1000000)" "999999";
  check "ARRAY_MIN(RANGE(1000000))" "0";
  check "ARRAY_MAX(RANGE(1000000))" "999999";
  check "ARRAY_LENGTH(ARRAY_SLICE(RANGE(1000000), 2, 999999))" "999999";
  check "LENGTH(REPEAT('ab', 4000000))" "8000000";
  check_err "REPEAT('ab', 4000001)";
  check "LENGTH(LPAD('x', 8000000, 'ab'))" "8000000";
  check_err "LPAD('x', 8000001, 'ab')";
  check "LENGTH(SPACE(8000000))" "8000000";
  check_err "SPACE(8000001)"

let suite =
  ( "functions",
    [
      Alcotest.test_case "string basics" `Quick test_string_basics;
      Alcotest.test_case "string concat/trim" `Quick test_string_concat_trim;
      Alcotest.test_case "string slicing" `Quick test_string_slicing;
      Alcotest.test_case "string search/replace" `Quick test_string_search_replace;
      Alcotest.test_case "string codecs" `Quick test_string_codecs;
      Alcotest.test_case "repeat/format" `Quick test_string_repeat_format;
      Alcotest.test_case "regex" `Quick test_string_regex;
      Alcotest.test_case "math rounding" `Quick test_math_rounding;
      Alcotest.test_case "math functions" `Quick test_math_functions;
      Alcotest.test_case "condition" `Quick test_condition;
      Alcotest.test_case "date" `Quick test_date;
      Alcotest.test_case "json" `Quick test_json;
      Alcotest.test_case "array" `Quick test_array;
      Alcotest.test_case "map" `Quick test_map;
      Alcotest.test_case "conv/inet/uuid" `Quick test_conv;
      Alcotest.test_case "spatial" `Quick test_spatial;
      Alcotest.test_case "xml" `Quick test_xml;
      Alcotest.test_case "system" `Quick test_system;
      Alcotest.test_case "aggregate edges" `Quick test_aggregate_edges;
      Alcotest.test_case "tail: string" `Quick test_tail_string;
      Alcotest.test_case "tail: math" `Quick test_tail_math;
      Alcotest.test_case "tail: date" `Quick test_tail_date;
      Alcotest.test_case "tail: json" `Quick test_tail_json;
      Alcotest.test_case "tail: array/cond/cast" `Quick test_tail_array_cond;
      Alcotest.test_case "null propagation" `Quick test_null_propagation;
      Alcotest.test_case "compact observational equality" `Quick
        test_compact_observational;
      Alcotest.test_case "compact resource boundaries" `Quick
        test_compact_resource_boundaries;
    ] )
