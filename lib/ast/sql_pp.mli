(** Rendering ASTs back to SQL text.

    Output is accepted by [Sqlfun_parse] (round-trip tested), which is what
    lets generators build ASTs and hand executable SQL to the engines. *)

val type_name : Ast.type_name -> string
val expr : Ast.expr -> string
val proj_item : Ast.proj_item -> string
val query : Ast.query -> string
val stmt : Ast.stmt -> string

val stmts : Ast.stmt list -> string
(** Semicolon-separated script. *)
