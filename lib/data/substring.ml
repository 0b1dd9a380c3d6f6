(* Whether [needle] matches [hay] at [i] from byte [k] on, given
   [i + length needle <= length hay]. Top-level, so a candidate position
   allocates no closure. *)
let rec matches_at hay needle i k =
  k = String.length needle
  || (String.unsafe_get hay (i + k) = String.unsafe_get needle k
      && matches_at hay needle i (k + 1))

let find hay needle from =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then Some from
  else begin
    let first = String.unsafe_get needle 0 and last = nh - nn in
    let rec go i =
      if i > last then None
      else if String.unsafe_get hay i = first && matches_at hay needle i 1 then Some i
      else go (i + 1)
    in
    if from < 0 && from <= last then invalid_arg "Substring.find";
    go from
  end
