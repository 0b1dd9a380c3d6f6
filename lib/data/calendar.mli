(** Proleptic-Gregorian calendar arithmetic for DATE/TIME/DATETIME values.

    Date functions are the third-largest bug category in the study; the
    boundary surface here is real calendar logic (leap years, month ends,
    zero/denormal dates), not a wrapper over the C library. *)

type date = private { year : int; month : int; day : int }
type time = private { hour : int; minute : int; second : int }
type datetime = { date : date; time : time }

type unit_ =
  | Year
  | Month
  | Day
  | Hour
  | Minute
  | Second

type interval = { amount : int64; unit_ : unit_ }

val make_date : year:int -> month:int -> day:int -> date option
(** [None] unless 1 <= year <= 9999 and the day exists in that month. *)

val make_time : hour:int -> minute:int -> second:int -> time option

val is_leap_year : int -> bool
val days_in_month : year:int -> month:int -> int

val split_on_any : char list -> string -> string list
(** [split_on_any seps s] cuts [s] at every byte in [seps]: [n]
    separators give [n + 1] parts, empty ones included. *)

val date_of_string : string -> date option
(** Accepts [YYYY-MM-DD] (also [/] separators). *)

val time_of_string : string -> time option
(** Accepts [HH:MM:SS] and [HH:MM]. *)

val datetime_of_string : string -> datetime option
(** Accepts [YYYY-MM-DD HH:MM:SS] or a bare date (midnight). *)

val date_to_string : date -> string
val time_to_string : time -> string
val datetime_to_string : datetime -> string

val to_julian_day : date -> int
(** Day number for date arithmetic; inverse of {!of_julian_day}. *)

val of_julian_day : int -> date option
(** [None] when the result leaves the supported year range. *)

val add_days : date -> int -> date option
val diff_days : date -> date -> int

val day_of_week : date -> int
(** 0 = Sunday ... 6 = Saturday. *)

val day_of_year : date -> int
val last_day : date -> date

val add_interval : datetime -> interval -> datetime option
(** Month/year arithmetic clamps to the target month's last day, like
    MySQL. [None] on range overflow. *)

val unit_of_string : string -> unit_ option
val unit_to_string : unit_ -> string

val compare_date : date -> date -> int
val compare_datetime : datetime -> datetime -> int
