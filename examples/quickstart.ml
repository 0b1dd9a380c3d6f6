(** Quickstart: open a simulated DBMS, run some SQL, then let SOFT hunt
    for boundary bugs in it.

    Run with: [dune exec examples/quickstart.exe] *)

open Sqlfun_dialects
open Sqlfun_engine

let () =
  (* 1. A simulated MariaDB server, bugs disarmed: a normal SQL engine. *)
  let prof = Dialect.find_exn "mariadb" in
  let db = Dialect.make_engine prof in
  print_endline "-- plain SQL against the simulated server --";
  List.iter
    (fun sql ->
      match Engine.exec_sql db sql with
      | Ok outcome ->
        Printf.printf "sql> %s\n%s\n" sql (Engine.outcome_to_string outcome)
      | Error e ->
        Printf.printf "sql> %s\n%s\n" sql (Engine.error_to_string e))
    [
      "CREATE TABLE fruit (name TEXT, price DECIMAL(6,2))";
      "INSERT INTO fruit VALUES ('apple', 1.50), ('pear', 2.25)";
      "SELECT UPPER(name), price * 2 FROM fruit WHERE price > 1.99";
      "SELECT FORMAT(1234567.891, 2, 'de_DE')";
      "SELECT JSON_EXTRACT('{\"a\": [10, 20]}', '$.a[1]')";
    ];

  (* 2. The same dialect with its injected boundary bugs armed: a short
     SOFT campaign finds them. *)
  print_endline "\n-- a short SOFT campaign (budget: 40k statements) --";
  let result = Soft.Soft_runner.fuzz ~budget:40_000 prof in
  Printf.printf "executed %d generated statements; %d clean errors; %d bugs:\n"
    result.Soft.Soft_runner.cases_executed result.Soft.Soft_runner.clean_errors
    (List.length result.Soft.Soft_runner.bugs);
  List.iter
    (fun b -> Printf.printf "  %s\n" (Soft.Report.bug_summary_line b))
    result.Soft.Soft_runner.bugs
