(** Argument access and coercion helpers shared by every built-in function
    implementation. Coercions follow the context's casting strictness, so
    a lenient dialect turns ['12abc'] into [12] where a strict one raises
    a clean SQL error. *)

open Sqlfun_value
open Sqlfun_fault
open Sqlfun_data

val value : Fault.arg list -> int -> Value.t
(** The argument, normalized through {!Value.view} so function bodies
    only ever match boxed spellings (a compact range/rope argument is
    materialized here).
    @raise Fn_ctx.Sql_error when the index is out of range. *)

val value_opt : Fault.arg list -> int -> Value.t option

val raw : Fault.arg list -> int -> Value.t
(** Like {!value} but without the normalization: may return a compact
    [Range_arr]/[Rope_str]. Only for accessors/implementations that
    provably treat the compact and boxed spellings identically. *)

(* The scalar accessors [str], [int_], [dec], [float_], [bool_], [date]
   and [datetime] reject an array, map or row argument from its raw
   value, with the error its boxed spelling gets, so a compact range
   is rejected without being spilled. *)

val str : Fn_ctx.t -> Fault.arg list -> int -> string
val int_ : Fn_ctx.t -> Fault.arg list -> int -> int64
val int_opt : Fn_ctx.t -> Fault.arg list -> int -> int64 option
val dec : Fn_ctx.t -> Fault.arg list -> int -> Sqlfun_num.Decimal.t
val float_ : Fn_ctx.t -> Fault.arg list -> int -> float
val bool_ : Fn_ctx.t -> Fault.arg list -> int -> bool
val json : Fn_ctx.t -> Fault.arg list -> int -> Json.t
val json_path : Fn_ctx.t -> Fault.arg list -> int -> Json.path_step list
val date : Fn_ctx.t -> Fault.arg list -> int -> Calendar.date
val datetime : Fn_ctx.t -> Fault.arg list -> int -> Calendar.datetime
val array : Fn_ctx.t -> Fault.arg list -> int -> Value.t list
val map : Fn_ctx.t -> Fault.arg list -> int -> (Value.t * Value.t) list
val geometry : Fn_ctx.t -> Fault.arg list -> int -> Geometry.t
val blob : Fn_ctx.t -> Fault.arg list -> int -> string
val xml : Fn_ctx.t -> Fault.arg list -> int -> Xml_doc.t list
val xpath : Fn_ctx.t -> Fault.arg list -> int -> Xml_doc.step list

val small_int : Fn_ctx.t -> Fault.arg list -> int -> int
(** Like {!int_} but also requires the value to fit in [int]. *)

val str_value : Fn_ctx.t -> Fault.arg list -> int -> Value.t
(** Like {!str} — same casts, errors and coverage points — but returns
    the string as a [Value.t], keeping a rope argument compact. Always
    [Str] or [Rope_str]. *)

val str_byte_length : Fn_ctx.t -> Fault.arg list -> int -> int
(** The byte length {!str} would observe, in O(1) for rope arguments. *)

val array_length : Fn_ctx.t -> Fault.arg list -> int -> int
(** The length {!array} would observe, in O(1) for range arrays. *)

val array_value : Fn_ctx.t -> Fault.arg list -> int -> Value.t
(** Like {!array} but as a [Value.t], keeping a range argument compact.
    Always [Arr] or [Range_arr]. *)
