(** Branch/point coverage recorder for the SQL-function component.

    Function implementations and the casting layer mark decision points
    with {!hit}; distinct point counts are what Table 6 compares across
    testing tools. Recorders are cheap to create and merge, so each
    experiment run gets its own.

    {b Cells.} Every point a recorder has seen owns one {!cell} for the
    recorder's lifetime. Hot callers look a point's cell up once and
    keep it: the function registry keeps each function's ["fn/NAME"]
    cell, a {!table} keeps one cell per entry, {!branch} keeps the two
    cells of a branch id. A hit through a kept cell ({!hit_cell}) is two
    increments, with no hashing and no allocation. A cell exists before
    its point's first hit, but a point whose cell reads 0 is invisible:
    it never appears in {!count}, {!points}, {!mem} or {!diff}. A
    recorder, and so its cells, belongs to one domain. *)

type t

val create : unit -> t
val hit : t -> string -> unit
(** Record one execution of the named branch point. *)

type cell
(** One point's counter in one recorder. *)

val cell : t -> string -> cell
(** The point's cell in this recorder, created (at 0 hits, so still
    invisible) on first request. *)

val owns : t -> cell -> bool
(** The cell belongs to this recorder: how a holder of kept cells
    checks, by identity, that it is charging the recorder it was bound
    to. *)

val hit_cell : cell -> unit
(** Record one execution of the cell's point in its recorder. *)

val branch : t -> string -> bool -> unit
(** [branch t id b] records [id ^ "/t"] or [id ^ "/f"]. The two cells
    are kept per [id], so a hit allocates nothing. *)

type table
(** A fixed array of point names, built once (at module
    initialisation), shared read-only by every recorder. Each recorder
    fills one cell per entry lazily, on the entry's first hit. *)

val table : string array -> table
val table_name : table -> int -> string

val hit_entry : t -> table -> int -> unit
(** [hit_entry t tb i] records one execution of [table_name tb i]: an
    array read once the entry's cell exists. *)

val count : t -> int
(** Number of distinct points hit. *)

val total_hits : t -> int

val points : t -> (string * int) list
(** Distinct points with their hit counts, sorted by name. *)

val mem : t -> string -> bool

val reset : t -> unit
(** Zero every point. Cells are zeroed in place, not dropped, so a cell
    a caller kept still counts into this recorder; afterwards the
    recorder is observably a fresh one. *)

val merge_into : dst:t -> t -> unit
(** Adds every point of the source into [dst]. *)

val merge : t -> t -> t
(** Fresh recorder holding the union of both inputs (per-point hit
    counts add). Commutative and associative, with a fresh recorder as
    identity — the algebra the sharded campaign merge relies on. *)

val diff : t -> t -> string list
(** [diff a b] is the points hit in [a] but not in [b]. *)

val prefixed_count : t -> string -> int
(** Distinct points whose name starts with the given prefix — used to
    slice coverage per function or per module. *)

val to_json : t -> Sqlfun_telemetry.Json.t
(** [{"distinct": n, "total_hits": n, "points": {point: hits, ...}}] —
    the coverage slice embedded in telemetry snapshots. *)
