(** Built-in date and time functions. [NOW()] is pinned to a fixed instant
    so every run (and every test) is deterministic. *)

open Sqlfun_value
open Sqlfun_data

let cat = "date"
let scalar = Func_sig.scalar ~category:cat

let fixed_now =
  match Calendar.datetime_of_string "2024-03-15 10:30:00" with
  | Some dt -> dt
  | None -> assert false

let now_fn =
  scalar "NOW" ~min_args:0 ~max_args:(Some 0) ~hints:[] ~examples:[ "NOW()" ]
    (fun _ctx _args -> Value.Datetime fixed_now)

let curdate_fn =
  scalar "CURDATE" ~min_args:0 ~max_args:(Some 0) ~hints:[]
    ~examples:[ "CURDATE()" ]
    (fun _ctx _args -> Value.Date fixed_now.Calendar.date)

let curtime_fn =
  scalar "CURTIME" ~min_args:0 ~max_args:(Some 0) ~hints:[]
    ~examples:[ "CURTIME()" ]
    (fun _ctx _args -> Value.Time fixed_now.Calendar.time)

let date_fn =
  scalar "DATE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_date ]
    ~examples:[ "DATE('2023-05-17 10:00:00')" ]
    (fun ctx args -> Value.Date (Args.datetime ctx args 0).Calendar.date)

let field name hint extract =
  scalar name ~min_args:1 ~max_args:(Some 1) ~hints:[ hint ]
    ~examples:[ Printf.sprintf "%s('2023-05-17')" name ]
    (fun ctx args -> Value.Int (Int64.of_int (extract (Args.datetime ctx args 0))))

let year_fn = field "YEAR" Func_sig.H_date (fun dt -> dt.Calendar.date.Calendar.year)
let month_fn = field "MONTH" Func_sig.H_date (fun dt -> dt.Calendar.date.Calendar.month)
let day_fn = field "DAY" Func_sig.H_date (fun dt -> dt.Calendar.date.Calendar.day)
let dayofmonth_fn =
  field "DAYOFMONTH" Func_sig.H_date (fun dt -> dt.Calendar.date.Calendar.day)
let hour_fn = field "HOUR" Func_sig.H_datetime (fun dt -> dt.Calendar.time.Calendar.hour)
let minute_fn =
  field "MINUTE" Func_sig.H_datetime (fun dt -> dt.Calendar.time.Calendar.minute)
let second_fn =
  field "SECOND" Func_sig.H_datetime (fun dt -> dt.Calendar.time.Calendar.second)

let dayofweek_fn =
  field "DAYOFWEEK" Func_sig.H_date (fun dt ->
      (* MySQL: 1 = Sunday *)
      Calendar.day_of_week dt.Calendar.date + 1)

let dayofyear_fn =
  field "DAYOFYEAR" Func_sig.H_date (fun dt -> Calendar.day_of_year dt.Calendar.date)

let quarter_fn =
  field "QUARTER" Func_sig.H_date (fun dt ->
      ((dt.Calendar.date.Calendar.month - 1) / 3) + 1)

let week_fn =
  field "WEEK" Func_sig.H_date (fun dt ->
      (Calendar.day_of_year dt.Calendar.date + 6) / 7)

let last_day_fn =
  scalar "LAST_DAY" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_date ]
    ~examples:[ "LAST_DAY('2024-02-10')" ]
    (fun ctx args -> Value.Date (Calendar.last_day (Args.date ctx args 0)))

let datediff_fn =
  scalar "DATEDIFF" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_date; Func_sig.H_date ]
    ~examples:[ "DATEDIFF('2024-01-01', '2023-01-01')" ]
    (fun ctx args ->
      Value.Int
        (Int64.of_int (Calendar.diff_days (Args.date ctx args 0) (Args.date ctx args 1))))

let interval_of ctx args i =
  match Args.value args i with
  | Value.Interval iv -> iv
  | Value.Int n -> { Calendar.amount = n; unit_ = Calendar.Day }
  | Value.Str _ ->
    (match Fn_ctx.cast_value ctx (Args.value args i) Sqlfun_ast.Ast.T_interval_t with
     | Value.Interval iv -> iv
     | _ -> Fn_ctx.err "argument %d is not an interval" (i + 1))
  | v -> Fn_ctx.err "argument %d is not an interval (%s)" (i + 1)
      (Value.ty_name (Value.type_of v))

let date_shift name sign =
  scalar name ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_datetime; Func_sig.H_any ]
    ~examples:[ Printf.sprintf "%s('2023-01-31', INTERVAL 1 MONTH)" name ]
    (fun ctx args ->
      let dt = Args.datetime ctx args 0 in
      let iv = interval_of ctx args 1 in
      let iv = { iv with Calendar.amount = Int64.mul (Int64.of_int sign) iv.Calendar.amount } in
      match Calendar.add_interval dt iv with
      | Some r -> Value.Datetime r
      | None ->
        Fn_ctx.point ctx "dateshift/out-of-range";
        Fn_ctx.err "%s: resulting date out of range" name)

let date_add_fn = date_shift "DATE_ADD" 1
let adddate_fn = date_shift "ADDDATE" 1
let date_sub_fn = date_shift "DATE_SUB" (-1)
let subdate_fn = date_shift "SUBDATE" (-1)

let makedate_fn =
  scalar "MAKEDATE" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_int; Func_sig.H_int ] ~examples:[ "MAKEDATE(2024, 60)" ]
    (fun ctx args ->
      let year = Args.small_int ctx args 0 in
      let doy = Args.small_int ctx args 1 in
      if Fn_ctx.branch ctx "makedate/range" (doy < 1 || year < 1 || year > 9999)
      then Value.Null
      else
        match Calendar.make_date ~year ~month:1 ~day:1 with
        | None -> Value.Null
        | Some jan1 ->
          (match Calendar.add_days jan1 (doy - 1) with
           | Some d -> Value.Date d
           | None -> Value.Null))

let to_days_fn =
  scalar "TO_DAYS" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_date ]
    ~examples:[ "TO_DAYS('2023-05-17')" ]
    (fun ctx args ->
      Value.Int (Int64.of_int (Calendar.to_julian_day (Args.date ctx args 0))))

let from_days_fn =
  scalar "FROM_DAYS" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_int ]
    ~examples:[ "FROM_DAYS(2460000)" ]
    (fun ctx args ->
      match Calendar.of_julian_day (Args.small_int ctx args 0) with
      | Some d -> Value.Date d
      | None -> Value.Null)

let month_names =
  [| "January"; "February"; "March"; "April"; "May"; "June"; "July";
     "August"; "September"; "October"; "November"; "December" |]

let day_names =
  [| "Sunday"; "Monday"; "Tuesday"; "Wednesday"; "Thursday"; "Friday";
     "Saturday" |]

let monthname_fn =
  scalar "MONTHNAME" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_date ]
    ~examples:[ "MONTHNAME('2023-05-17')" ]
    (fun ctx args ->
      Value.Str month_names.((Args.date ctx args 0).Calendar.month - 1))

let dayname_fn =
  scalar "DAYNAME" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_date ]
    ~examples:[ "DAYNAME('2023-05-17')" ]
    (fun ctx args ->
      Value.Str day_names.(Calendar.day_of_week (Args.date ctx args 0)))

(* [n >= 0] zero-padded to [width] digits, as [Printf "%0*d"] prints
   it; calendar fields are never negative. *)
let pad width n =
  let s = string_of_int n in
  if String.length s >= width then s else String.make (width - String.length s) '0' ^ s

(* DATE_FORMAT with the common MySQL % specifiers. Each field is
   rendered once per call, so a format repeating a specifier thousands
   of times costs one copy per occurrence. *)
let date_format_fn =
  scalar "DATE_FORMAT" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_datetime; Func_sig.H_format ]
    ~examples:[ "DATE_FORMAT('2023-05-17', '%Y/%m/%d')" ]
    (fun ctx args ->
      let dt = Args.datetime ctx args 0 in
      let fmt = Args.str ctx args 1 in
      let d = dt.Calendar.date and t = dt.Calendar.time in
      let year = pad 4 d.Calendar.year
      and year2 = pad 2 (d.Calendar.year mod 100)
      and month = pad 2 d.Calendar.month
      and month_c = string_of_int d.Calendar.month
      and day = pad 2 d.Calendar.day
      and day_e = string_of_int d.Calendar.day
      and hour = pad 2 t.Calendar.hour
      and minute = pad 2 t.Calendar.minute
      and second = pad 2 t.Calendar.second
      and month_name = month_names.(d.Calendar.month - 1)
      and day_name = day_names.(Calendar.day_of_week d)
      and yday = pad 3 (Calendar.day_of_year d) in
      let buf = Buffer.create (String.length fmt + 8) in
      let n = String.length fmt in
      let rec go i =
        if i >= n then ()
        else if fmt.[i] = '%' && i + 1 < n then begin
          (match fmt.[i + 1] with
           | 'Y' -> Buffer.add_string buf year
           | 'y' -> Buffer.add_string buf year2
           | 'm' -> Buffer.add_string buf month
           | 'c' -> Buffer.add_string buf month_c
           | 'd' -> Buffer.add_string buf day
           | 'e' -> Buffer.add_string buf day_e
           | 'H' -> Buffer.add_string buf hour
           | 'i' -> Buffer.add_string buf minute
           | 's' | 'S' -> Buffer.add_string buf second
           | 'M' -> Buffer.add_string buf month_name
           | 'W' -> Buffer.add_string buf day_name
           | 'j' -> Buffer.add_string buf yday
           | '%' -> Buffer.add_char buf '%'
           | c ->
             Fn_ctx.point ctx "date-format/unknown-spec";
             Buffer.add_char buf c);
          go (i + 2)
        end
        else begin
          Buffer.add_char buf fmt.[i];
          go (i + 1)
        end
      in
      go 0;
      Value.Str (Buffer.contents buf))

let str_to_date_fn =
  scalar "STR_TO_DATE" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_format ]
    ~examples:[ "STR_TO_DATE('2023-05-17', '%Y-%m-%d')" ]
    (fun ctx args ->
      (* only the %Y-%m-%d family is recognized; anything else is NULL *)
      let s = Args.str ctx args 0 in
      let fmt = Args.str ctx args 1 in
      ignore fmt;
      match Calendar.datetime_of_string s with
      | Some dt ->
        Fn_ctx.point ctx "strtodate/parsed";
        Value.Datetime dt
      | None ->
        Fn_ctx.point ctx "strtodate/null";
        Value.Null)

let unix_days_epoch =
  match Calendar.date_of_string "1970-01-01" with
  | Some d -> Calendar.to_julian_day d
  | None -> assert false

let unix_timestamp_fn =
  scalar "UNIX_TIMESTAMP" ~min_args:0 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_datetime ] ~examples:[ "UNIX_TIMESTAMP('2023-05-17')" ]
    (fun ctx args ->
      let dt =
        match Args.value_opt args 0 with
        | Some _ -> Args.datetime ctx args 0
        | None -> fixed_now
      in
      let days = Calendar.to_julian_day dt.Calendar.date - unix_days_epoch in
      let t = dt.Calendar.time in
      let secs =
        (days * 86400) + (t.Calendar.hour * 3600) + (t.Calendar.minute * 60)
        + t.Calendar.second
      in
      Value.Int (Int64.of_int secs))

let from_unixtime_fn =
  scalar "FROM_UNIXTIME" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_int ]
    ~examples:[ "FROM_UNIXTIME(1684300000)" ]
    (fun ctx args ->
      let secs = Args.int_ ctx args 0 in
      if Fn_ctx.branch ctx "fromunix/neg" (secs < 0L) then Value.Null
      else begin
        let days = Int64.to_int (Int64.div secs 86400L) in
        let rem = Int64.to_int (Int64.rem secs 86400L) in
        match Calendar.of_julian_day (unix_days_epoch + days) with
        | Some date ->
          (match
             Calendar.make_time ~hour:(rem / 3600) ~minute:(rem mod 3600 / 60)
               ~second:(rem mod 60)
           with
           | Some time -> Value.Datetime { Calendar.date; time }
           | None -> Value.Null)
        | None -> Value.Null
      end)

(* INTERVAL_LIT is the parser's encoding of [INTERVAL 3 DAY]. *)
let interval_lit_fn =
  scalar "INTERVAL_LIT" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_int; Func_sig.H_interval_unit ]
    ~examples:[ "INTERVAL_LIT(3, 'DAY')" ]
    (fun ctx args ->
      let amount = Args.int_ ctx args 0 in
      let unit_str = Args.str ctx args 1 in
      match Calendar.unit_of_string unit_str with
      | Some unit_ -> Value.Interval { Calendar.amount; unit_ }
      | None -> Fn_ctx.err "unknown interval unit %s" (Value.quote unit_str))

let specs =
  [
    now_fn; curdate_fn; curtime_fn; date_fn; year_fn; month_fn; day_fn;
    dayofmonth_fn; hour_fn; minute_fn; second_fn; dayofweek_fn; dayofyear_fn;
    quarter_fn; week_fn; last_day_fn; datediff_fn; date_add_fn; adddate_fn;
    date_sub_fn; subdate_fn; makedate_fn; to_days_fn; from_days_fn;
    monthname_fn; dayname_fn; date_format_fn; str_to_date_fn;
    unix_timestamp_fn; from_unixtime_fn; interval_lit_fn;
  ]
