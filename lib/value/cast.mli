(** The explicit/implicit casting matrix.

    Casting is where the paper's second boundary source lives (23.3% of the
    studied bugs): conversions that produce *broken internal instances*
    rather than clean errors. Dialects differ in [strictness] —
    PostgreSQL-style strict casting rejects lossy conversions (and is why
    SOFT finds few bugs there), MySQL-style lenient casting coerces. *)

type strictness =
  | Strict   (** reject invalid/lossy conversions with an error *)
  | Lenient  (** coerce: garbage strings become 0, overflow clamps, bad
                 dates become NULL *)

type config = {
  strictness : strictness;
  json_max_depth : int option;
      (** [None] disables the JSON recursion budget — the CVE-2015-5289
          configuration, used by fault-injected dialects *)
}

type error =
  | Invalid of string      (** value does not fit the target type *)
  | Unsupported of string  (** the dialect has no such conversion *)
  | Depth_blown of int
      (** JSON nesting exceeded with the budget disabled upstream; the
          fault layer converts this into a simulated stack overflow *)

val convert :
  config -> Value.t -> Sqlfun_ast.Ast.type_name -> (Value.t, error) result
(** [convert cfg v ty] converts [v] to [ty]. [NULL] converts to [NULL]
    for every target. Records no coverage. *)

val cast :
  cov:Sqlfun_coverage.Coverage.t ->
  config ->
  Value.t ->
  Sqlfun_ast.Ast.type_name ->
  (Value.t, error) result
(** {!convert}, recording one coverage point per (source, target,
    outcome), named by {!coverage_point}. For an argument-free target
    the name comes from a table built at module initialisation and the
    hit goes through the recorder's kept cell, so such a cast formats,
    hashes and allocates nothing beyond its result. *)

val coverage_point : Value.ty -> Sqlfun_ast.Ast.type_name -> ok:bool -> string
(** ["cast/SOURCE->TARGET/ok"] (or [/err]): the point a cast from a
    value tagged [SOURCE] records. *)

val error_to_string : error -> string

val ty_of_type_name : Sqlfun_ast.Ast.type_name -> Value.ty
(** The runtime tag a successful cast to this type yields. *)
