(** Arbitrary-precision fixed-point decimal numbers.

    A value is [sign * digits * 10^-scale] where [digits] is an unbounded
    decimal digit string. This is the substrate for every digit-count
    boundary behaviour studied in the paper (e.g. MariaDB's decimal2string
    flaw past 40 digits, MySQL's AVG precision overflow): the
    representation deliberately tracks precision and scale exactly, with no
    hidden binary rounding. *)

type t

(** {1 Construction} *)

val zero : t
val one : t

val make : neg:bool -> digits:string -> scale:int -> t
(** [make ~neg ~digits ~scale] builds a decimal from a raw digit string
    (['0'..'9'] only). Leading integer zeros are stripped; a zero value
    loses its sign. @raise Invalid_argument on a malformed digit string or
    negative scale. *)

val of_int : int -> t
val of_int64 : int64 -> t

val of_string : string -> (t, string) result
(** Parses [[+|-]digits[.digits][(e|E)[+|-]digits]]. Exponents are folded
    into the scale, so ["1.5e3"] is [1500] and ["1e-2"] is [0.01]. *)

val of_string_exn : string -> t
(** @raise Invalid_argument when {!of_string} fails. *)

(** {1 Observation} *)

val is_zero : t -> bool
val is_negative : t -> bool
val scale : t -> int

val precision : t -> int
(** Count of significant digits, at least 1 (zero has precision 1). *)

val int_digits : t -> int
(** Digits left of the decimal point in the canonical rendering, at least
    1 — the quantity MariaDB's MDEV-11030 miscounted for NULL-as-zero. *)

val to_string : t -> string

val to_scientific : t -> string
(** Normalized scientific notation, e.g. ["-1.5e-32"]. Mirrors the library
    rendering that MariaDB switches to past 31 digits (MDEV-23415). *)

val to_float : t -> float
val to_int64 : t -> int64 option
(** [None] when the truncated integer part overflows [int64]. *)

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : scale:int -> t -> t -> t option
(** [div ~scale a b] is [a / b] rounded half-up to [scale] fractional
    digits, or [None] when [b] is zero. *)

val round : scale:int -> t -> t
(** Half-up rounding to the given scale; padding with zeros when the
    requested scale exceeds the current one. *)

val rescale : scale:int -> t -> t
(** Like {!round} (kept separate so call sites can state intent: rescale
    for alignment, round for arithmetic results). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
