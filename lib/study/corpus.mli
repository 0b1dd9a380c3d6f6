(** The studied-bug corpus: 318 built-in SQL function bugs from
    PostgreSQL, MySQL, and MariaDB (§3).

    Every attribute the paper aggregates is a field here: the DBMS, the
    crash stage (when a backtrace was identifiable), the function
    expressions in the PoC (type and name per occurrence), the
    prerequisite statements, and the root cause. The corpus is built
    deterministically so that each of the paper's reported marginals holds
    exactly; a curated subset carries real PoC SQL that the repository's
    own parser analyses (Table 2 is computed from parses, not hand
    counts). *)

type stage = Parsing | Optimization | Execution

type prereq =
  | No_table          (** crashes with literals only *)
  | Empty_table       (** needs a CREATE TABLE, no rows *)
  | Table_with_data   (** needs CREATE + INSERT *)

type literal_subcause =
  | Extreme_numeric   (** huge/tiny integers or decimals *)
  | Empty_or_null     (** '' or NULL arguments *)
  | Crafted_string    (** format-bearing strings (JSON, DATE, ...) *)

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
  dbms : string;  (** "postgresql" | "mysql" | "mariadb" *)
  stage : stage option;  (** [None]: no identifiable backtrace *)
  occurrences : func_occurrence list;
      (** one per function expression in the PoC; length = the Table 2
          bucket for this bug *)
  prereq : prereq;
  root_cause : root_cause;
  poc : string option;  (** real PoC SQL for the curated subset *)
}

val all : entry list Lazy.t
(** The 318 studied bugs. *)

val stage_to_string : stage -> string
val prereq_to_string : prereq -> string
