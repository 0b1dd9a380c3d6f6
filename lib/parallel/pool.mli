(** A fixed-size pool of OCaml 5 domains fed by a FIFO job queue.

    Domains are expensive to spawn (each carries a minor heap and takes
    part in every stop-the-world section), so a campaign creates one
    pool and pushes many jobs through it rather than spawning a domain
    per task. Jobs are closures; results come back through typed
    handles, so one pool can carry jobs of different result types.

    The pool makes no fairness or ordering promise between jobs — any
    idle worker takes the next job. Determinism of the fuzzing
    campaigns is established one level up, by the shard/merge protocol
    in [Soft_runner], never by scheduling. *)

type t

val create : int -> t
(** [create n] spawns [max 1 n] worker domains immediately. *)

val size : t -> int
(** Number of worker domains. *)

val max_domains : int
(** Domains the OCaml 5.1 runtime can run at once, the main domain
    included ([Max_domains] in [caml/domain.h] on 64-bit hosts).
    [Domain.spawn] fails past it only after the domains that fit are
    running, so a domain count taken from user input is checked against
    it before any spawn. *)

type 'a handle

val submit : t -> (unit -> 'a) -> 'a handle
(** Enqueues a job; returns immediately. The job runs on some worker
    domain; exceptions it raises are captured into the handle. *)

val await : 'a handle -> 'a
(** Blocks until the job finishes; re-raises (with its backtrace) any
    exception the job raised. *)

val run : t -> (unit -> 'a) list -> 'a list
(** Submits every thunk, then awaits them all; results are returned in
    input order. Every job is awaited even when one fails, then the
    first failure (in input order) is re-raised. *)

val shutdown : t -> unit
(** Closes the job queue and joins the workers. Jobs already submitted
    finish first; submitting afterwards raises. Idempotent. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool n f] runs [f] with a fresh pool and always shuts it
    down, including on exceptions. *)
