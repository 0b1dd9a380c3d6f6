(** Substring search over argument payloads.

    The one search behind REPLACE, INSTR, LOCATE, POSITION, SPLIT_PART,
    SUBSTRING_INDEX, CONTAINS and the fault table's substring triggers.
    It compares bytes in place, so a search allocates nothing but its
    [Some]. *)

val find : string -> string -> int -> int option
(** [find hay needle from] is the first index [i >= from] where
    [needle] occurs in [hay]. An empty needle is found at [from], even
    when [from] is past the end of [hay]. [from] must not be negative:
    [Invalid_argument] when a non-empty needle would fit there. *)
