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

val fold_slots : ('a -> Ast.expr -> 'a) -> 'a -> Ast.stmt -> 'a
(** Pre-order fold over the slot nodes of a statement (its literal
    leaves outside subquery interiors — always one of the six literal
    constructors), in the compiler's slot order:
    projection, then from/where/group_by/having, then ORDER BY
    expressions. Subquery interiors contribute no slots. *)

val equal_skeleton_expr : Ast.expr -> Ast.expr -> bool
(** Structural equality modulo slot nodes: any literal leaf matches
    any literal leaf, and subquery interiors are compared in full. Two
    expressions that are skeleton-equal occupy interchangeable
    positions in a shared compiled plan — the test [Patterns] cuts a
    position family into runs with. *)

val expr_slots : Ast.expr -> Ast.expr list option
(** The literal leaves of one expression in {!fold_slots} order, or
    [None] when the expression contains a [Subquery]/[Exists] interior
    (whose leaves are invisible to the slot traversal, so the
    expression cannot be described as a slot window). Splicing an
    expression with [expr_slots e = Some leaves] into a statement
    occupies a contiguous slot window of width [List.length leaves]. *)

val referenced_tables : Ast.stmt -> string list
(** Table names mentioned in FROM clauses (deduplicated, in order). *)
