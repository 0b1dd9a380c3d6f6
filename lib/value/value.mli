(** The runtime value universe shared by every simulated dialect.

    Besides the boxed constructors, two {e compact} representations
    (PR 8) describe the paper's boundary-value monsters without
    materializing them: [Range_arr] is an arithmetic integer sequence
    (what [RANGE] returns) as first/step/length, [Rope_str] is a
    repetition/concatenation tree over flat segments (what
    [REPEAT]/[LPAD]/[RPAD]/[CONCAT] return). Both are observationally
    identical to their boxed spelling — [type_of], [size_of],
    [depth_of], {!compare_values}, {!to_display} and friends agree
    exactly — and spill to the boxed form lazily through {!view} when
    a consumer genuinely needs the elements/bytes. Compact values are
    only built above {!Compact.min_array_len}/{!Compact.min_str_bytes}
    and are never empty. *)

open Sqlfun_num
open Sqlfun_data

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Dec of Decimal.t
  | Float of float
  | Str of string
  | Blob of string
  | Date of Calendar.date
  | Time of Calendar.time
  | Datetime of Calendar.datetime
  | Interval of Calendar.interval
  | Json of Json.t
  | Arr of t list
  | Map of (t * t) list
  | Row of t list
  | Inet of Inet.t
  | Uuid of string
  | Geom of Geometry.t
  | Xml of Xml_doc.t list
  | Range_arr of range_arr
  | Rope_str of rope_str

and range_arr = {
  rg_first : int64;
  rg_step : int64;  (** +1 or -1 *)
  rg_len : int;  (** >= 1 *)
  mutable rg_spill : t list option;  (** cached boxed materialization *)
}

and rope_str = {
  mutable rp_node : rope;  (** collapses to [R_leaf] on first flatten *)
  rp_bytes : int;  (** total flat length, >= 1 *)
}

and rope =
  | R_leaf of string
  | R_rep of string * int  (** segment repeated n times, segment <> "" *)
  | R_cat of rope * rope

(** Runtime type tags (the names DBMS error messages use). *)
type ty =
  | Ty_null
  | Ty_bool
  | Ty_int
  | Ty_dec
  | Ty_float
  | Ty_str
  | Ty_blob
  | Ty_date
  | Ty_time
  | Ty_datetime
  | Ty_interval
  | Ty_json
  | Ty_array
  | Ty_map
  | Ty_row
  | Ty_inet
  | Ty_uuid
  | Ty_geometry
  | Ty_xml

val type_of : t -> ty
val ty_name : ty -> string

val all_tys : ty array
(** Every tag, each once. *)

val ty_index : ty -> int
(** The tag's position in {!all_tys}. *)

val is_null : t -> bool

(** Compact-representation thresholds and domain-local hit/spill
    accounting (throughput metadata — counts never feed a verdict). *)
module Compact : sig
  type counters = { hits : int; spills : int }

  val read : unit -> counters
  (** This domain's cumulative construction (hit) and materialization
      (spill) counts. *)

  val since : counters -> counters
  (** [since c0] is the delta between {!read}[ ()] now and [c0]. *)

  val min_array_len : int
  (** Arrays shorter than this stay boxed. *)

  val min_str_bytes : int
  (** Strings shorter than this stay boxed. *)
end

val view : t -> t
(** Shallow normalization: the boxed spelling of the top constructor
    ([Range_arr] spills to [Arr] of [Int]s, [Rope_str] flattens to
    [Str]; anything else is returned unchanged). Materializations are
    cached on the value, so repeated views pay once. *)

val range_arr : first:int64 -> step:int64 -> len:int -> t
(** O(1) compact array [first, first+step, ..]; requires [len >= 1] and
    unit [step]. Callers enforce the {!Compact.min_array_len}
    threshold. *)

val range_nth : range_arr -> int -> t
(** O(1) element access, 0-based (in range by precondition). *)

val range_last : range_arr -> int64
val range_rev : range_arr -> t
(** O(1) reversal (flips first/step). *)

val range_slice : range_arr -> offset:int -> len:int -> t
(** O(1) sub-range ([len >= 1]; boxed when the result falls below the
    compact threshold, keeping the size invariant). *)

val range_spill : range_arr -> t list
(** The boxed elements, built once and cached. *)

val str_rope_rep : string -> int -> t
(** O(1) compact [REPEAT]: segment repeated [n] times (nonempty segment,
    [n >= 1]). Callers enforce the {!Compact.min_str_bytes} threshold
    on the product. *)

val rope_concat : t -> t -> t option
(** O(1) concatenation when both operands are strings ([Str] or
    [Rope_str]) with a nonempty result; [None] otherwise. *)

val rope_flatten : rope_str -> string
(** The flat string, built once (single [Bytes] allocation, repeated
    segments filled by doubling blits) and cached in place. *)

val rope_measure : (string -> int) -> rope_str -> int
(** Sums a per-segment measure without flattening — exact for measures
    additive across concatenation (byte length, UTF-8 char count). *)

val str_bytes : t -> int option
(** O(1) byte length of a string value ([Str] or [Rope_str]). *)

val arr_length : t -> int option
(** Array length — O(1) on [Range_arr], O(n) on [Arr]. *)

val to_display : t -> string
(** Result-set rendering (what a client would print). Arrays, rows and
    maps render into one buffer. A [Range_arr] renders from
    first/step/len into a string of exactly its size, byte-equal to
    its spilled cells' rendering, and is never spilled. *)

val compare_values : t -> t -> int option
(** SQL comparison with numeric coercion across [Int]/[Dec]/[Float];
    [None] when the two values are not comparable (e.g. [Row] against
    anything, geometry, maps) — exactly the gap MDEV-14596 fell into.
    Range-vs-range compares in O(1); other compact operands are viewed
    first, so the result always equals the boxed comparison. *)

val equal : t -> t -> bool
(** Structural equality after numeric coercion; [false] when incomparable. *)

val size_of : t -> int
(** Rough heap footprint in bytes, used by the evaluator's resource
    accounting (the paper's REPEAT false-positive class). O(1) on
    compact values and numerically identical to their boxed spelling,
    so step budgets cannot depend on the representation. *)

val depth_of : t -> int
(** Structural nesting depth across arrays/rows/maps/JSON/XML. *)

val pp : Format.formatter -> t -> unit

val quote_max_bytes : int
(** 64: the most bytes of an argument an error message quotes. *)

val quote : string -> string
(** An argument as an error message quotes it. A string of at most
    {!quote_max_bytes} bytes renders exactly as [Printf.sprintf "%S"]
    does. A longer one renders its first {!quote_max_bytes} bytes in
    that form, then a marker with its full length
    ([{|"..."... (2460000 bytes)|}] with the 64 bytes inside the
    quotes), so a message never copies a
    boundary-sized argument: the output is at most 290 bytes. Messages
    are not identity keys (DESIGN.md, "Compact-representation
    soundness"). *)
