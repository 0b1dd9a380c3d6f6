(** Traversals over {!Ast} used by the study statistics and by SOFT's
    enumerate-and-substitute generation step. *)

val fold_exprs : ('a -> Ast.expr -> 'a) -> 'a -> Ast.expr -> 'a
(** Pre-order fold over an expression and all of its subexpressions,
    descending into subqueries. *)

val fold_stmt_exprs : ('a -> Ast.expr -> 'a) -> 'a -> Ast.stmt -> 'a
(** Pre-order fold over every expression contained in a statement. *)

val function_calls : Ast.stmt -> Ast.call list
(** All function-call nodes in the statement, in pre-order — the unit the
    paper counts in Table 2 and that SOFT enumerates. *)

val count_function_exprs : Ast.stmt -> int

val call_depth : Ast.expr -> int
(** Maximum function-call nesting depth ([f(g(x))] has depth 2). *)

val replace_nth_call : Ast.stmt -> int -> Ast.expr -> Ast.stmt option
(** [replace_nth_call stmt n e] replaces the [n]-th (0-based, pre-order)
    function-call node with [e]; [None] when there are fewer calls. *)

val map_exprs : (Ast.expr -> Ast.expr) -> Ast.stmt -> Ast.stmt
(** Bottom-up rewrite of every expression in the statement. *)

val equal_stmt : Ast.stmt -> Ast.stmt -> bool
(** Structural equality of statements. *)

val referenced_tables : Ast.stmt -> string list
(** Table names mentioned in FROM clauses (deduplicated, in order). *)
