(** Shared per-shard case counters for live campaign progress.

    One atomic counter per shard; while a timeseries recorder is live,
    workers {!tick} their own slot after each case, and any domain may
    {!read} the whole array at any time — the recorders do, so every
    snapshot carries a campaign-wide per-shard progress view. Reads are
    racy across slots (each slot is individually atomic) which is
    exactly right for a progress display. *)

type t

val create : int -> t
(** [create n] — [n] shard slots ([max 1 n]). All zero. *)

val tick : t -> int -> unit
(** [tick t shard] — one more case done on [shard]. Wait-free. *)

val read : t -> int array
(** Current per-shard counts. *)
