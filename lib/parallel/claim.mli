(** Dynamic claiming of work items from a stream that every worker
    enumerates.

    Every worker domain walks the same deterministic stream of work
    items, indexed 0, 1, 2, … in the same order, and runs only the
    items it claimed. Claims come from one shared atomic counter: a
    worker that has passed its last claim takes the next unclaimed
    index. So every index is claimed by exactly one worker, a worker's
    claims strictly increase (it runs its items in stream order), and a
    fast worker takes more items than a slow one: no worker idles while
    another still has a share left to run. *)

type t
(** The shared counter, one per campaign. *)

val create : unit -> t

type cursor
(** One worker's claim. A cursor belongs to one domain. *)

val cursor : t -> cursor
(** A worker's cursor; it claims nothing until {!mine} first asks. *)

exception Stopped

val mine : cursor -> int -> bool
(** [mine c i] is true when item [i] is this worker's to run. Ask it
    for every item in stream order, [i] = 0, 1, 2, …: a cursor whose
    claim is behind [i] claims again, and its new claim is never behind
    [i], because every index below the counter has been claimed.
    Raises {!Stopped} instead of claiming once {!stop} has been
    called. *)

val stop : t -> unit
(** Moves the counter past every index, so each worker raises {!Stopped}
    at its next claim. A worker that fails calls it before re-raising,
    so its peers stop instead of running the rest of the stream. *)
