type date = { year : int; month : int; day : int }
type time = { hour : int; minute : int; second : int }
type datetime = { date : date; time : time }
type unit_ = Year | Month | Day | Hour | Minute | Second
type interval = { amount : int64; unit_ : unit_ }

let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month ~year ~month =
  match month with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap_year year then 29 else 28
  | _ -> 0

let make_date ~year ~month ~day =
  if
    year >= 1 && year <= 9999 && month >= 1 && month <= 12 && day >= 1
    && day <= days_in_month ~year ~month
  then Some { year; month; day }
  else None

let make_time ~hour ~minute ~second =
  if hour >= 0 && hour < 24 && minute >= 0 && minute < 60 && second >= 0 && second < 60
  then Some { hour; minute; second }
  else None

(* Linear in [s]: one table lookup per byte, scanning from the end so
   the parts come out in order. The only allocation besides the
   256-byte table is the result, and [s] without a separator is its own
   single part, not a copy. *)
let split_on_any seps s =
  let is_sep = Bytes.make 256 '\000' in
  List.iter (fun c -> Bytes.set is_sep (Char.code c) '\001') seps;
  let parts = ref [] and stop = ref (String.length s) in
  for i = String.length s - 1 downto 0 do
    if Bytes.unsafe_get is_sep (Char.code (String.unsafe_get s i)) <> '\000' then begin
      parts := String.sub s (i + 1) (!stop - i - 1) :: !parts;
      stop := i
    end
  done;
  (if !stop = String.length s then s else String.sub s 0 !stop) :: !parts

let date_of_string s =
  match split_on_any [ '-'; '/' ] (String.trim s) with
  | [ y; m; d ] ->
    (match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d) with
     | Some year, Some month, Some day -> make_date ~year ~month ~day
     | _ -> None)
  | _ -> None

let time_of_string s =
  match split_on_any [ ':' ] (String.trim s) with
  | [ h; m; sec ] ->
    (match (int_of_string_opt h, int_of_string_opt m, int_of_string_opt sec) with
     | Some hour, Some minute, Some second -> make_time ~hour ~minute ~second
     | _ -> None)
  | [ h; m ] ->
    (match (int_of_string_opt h, int_of_string_opt m) with
     | Some hour, Some minute -> make_time ~hour ~minute ~second:0
     | _ -> None)
  | _ -> None

let midnight = { hour = 0; minute = 0; second = 0 }

let datetime_of_string s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | Some i ->
    let d = String.sub s 0 i
    and t = String.sub s (i + 1) (String.length s - i - 1) in
    (match (date_of_string d, time_of_string t) with
     | Some date, Some time -> Some { date; time }
     | _ -> None)
  | None ->
    (match date_of_string s with
     | Some date -> Some { date; time = midnight }
     | None -> None)

(* Rendering is on the campaign's hot path (every DATE/TIME value a
   boundary case produces is formatted), so the fixed-width fields are
   written digit-by-digit into an exact-size byte buffer instead of
   going through the format-string interpreter. Components outside the
   fixed widths (never produced by [make_date]/[make_time], but
   possible on hand-built records) take the sprintf path so the output
   stays byte-identical to the historical rendering either way. *)
let two_digits b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + (n / 10)));
  Bytes.unsafe_set b (i + 1) (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let date_to_string d =
  if
    d.year >= 0 && d.year <= 9999 && d.month >= 0 && d.month <= 99
    && d.day >= 0 && d.day <= 99
  then begin
    let b = Bytes.create 10 in
    two_digits b 0 (d.year / 100);
    two_digits b 2 (d.year mod 100);
    Bytes.unsafe_set b 4 '-';
    two_digits b 5 d.month;
    Bytes.unsafe_set b 7 '-';
    two_digits b 8 d.day;
    Bytes.unsafe_to_string b
  end
  else Printf.sprintf "%04d-%02d-%02d" d.year d.month d.day

let time_to_string t =
  if
    t.hour >= 0 && t.hour <= 99 && t.minute >= 0 && t.minute <= 99
    && t.second >= 0 && t.second <= 99
  then begin
    let b = Bytes.create 8 in
    two_digits b 0 t.hour;
    Bytes.unsafe_set b 2 ':';
    two_digits b 3 t.minute;
    Bytes.unsafe_set b 5 ':';
    two_digits b 6 t.second;
    Bytes.unsafe_to_string b
  end
  else Printf.sprintf "%02d:%02d:%02d" t.hour t.minute t.second

let datetime_to_string dt =
  date_to_string dt.date ^ " " ^ time_to_string dt.time

(* Fliegel & Van Flandern Julian day conversion. *)
let to_julian_day { year; month; day } =
  let a = (14 - month) / 12 in
  let y = year + 4800 - a in
  let m = month + (12 * a) - 3 in
  day
  + (((153 * m) + 2) / 5)
  + (365 * y) + (y / 4) - (y / 100) + (y / 400) - 32045

let of_julian_day jd =
  let a = jd + 32044 in
  let b = ((4 * a) + 3) / 146097 in
  let c = a - (146097 * b / 4) in
  let d = ((4 * c) + 3) / 1461 in
  let e = c - (1461 * d / 4) in
  let m = ((5 * e) + 2) / 153 in
  let day = e - (((153 * m) + 2) / 5) + 1 in
  let month = m + 3 - (12 * (m / 10)) in
  let year = (100 * b) + d - 4800 + (m / 10) in
  make_date ~year ~month ~day

let add_days d n = of_julian_day (to_julian_day d + n)
let diff_days a b = to_julian_day a - to_julian_day b
let day_of_week d = (to_julian_day d + 1) mod 7

let day_of_year d =
  diff_days d { year = d.year; month = 1; day = 1 } + 1

let last_day d =
  { d with day = days_in_month ~year:d.year ~month:d.month }

let add_months d n =
  let total = (d.year * 12) + (d.month - 1) + n in
  let year = total / 12 and month = (total mod 12) + 1 in
  if year < 1 || year > 9999 then None
  else
    let day = Stdlib.min d.day (days_in_month ~year ~month) in
    make_date ~year ~month ~day

let seconds_of_time t = (t.hour * 3600) + (t.minute * 60) + t.second

let add_interval dt { amount; unit_ } =
  (* Interval amounts are bounded so calendar arithmetic stays in [int]
     territory; out-of-range amounts are an overflow, reported as None. *)
  if Int64.abs amount > 4_000_000L then None
  else begin
    let n = Int64.to_int amount in
    match unit_ with
    | Year ->
      (match add_months dt.date (n * 12) with
       | Some date -> Some { dt with date }
       | None -> None)
    | Month ->
      (match add_months dt.date n with
       | Some date -> Some { dt with date }
       | None -> None)
    | Day ->
      (match add_days dt.date n with
       | Some date -> Some { dt with date }
       | None -> None)
    | Hour | Minute | Second ->
      let per = match unit_ with Hour -> 3600 | Minute -> 60 | _ -> 1 in
      let total = seconds_of_time dt.time + (n * per) in
      let day_shift = if total >= 0 then total / 86400 else ((total + 1) / 86400) - 1 in
      let rem = total - (day_shift * 86400) in
      let time =
        {
          hour = rem / 3600;
          minute = rem mod 3600 / 60;
          second = rem mod 60;
        }
      in
      (match add_days dt.date day_shift with
       | Some date -> Some { date; time }
       | None -> None)
  end

let unit_of_string s =
  (* no unit name is longer than 7 bytes: skip the uppercase copy of a
     longer argument *)
  if String.length s > 7 then None
  else
    match String.uppercase_ascii s with
    | "YEAR" | "YEARS" -> Some Year
    | "MONTH" | "MONTHS" -> Some Month
    | "DAY" | "DAYS" -> Some Day
    | "HOUR" | "HOURS" -> Some Hour
    | "MINUTE" | "MINUTES" -> Some Minute
    | "SECOND" | "SECONDS" -> Some Second
    | _ -> None

let unit_to_string = function
  | Year -> "YEAR"
  | Month -> "MONTH"
  | Day -> "DAY"
  | Hour -> "HOUR"
  | Minute -> "MINUTE"
  | Second -> "SECOND"

let compare_date a b = compare (a.year, a.month, a.day) (b.year, b.month, b.day)

let compare_datetime a b =
  let c = compare_date a.date b.date in
  if c <> 0 then c else compare (seconds_of_time a.time) (seconds_of_time b.time)
