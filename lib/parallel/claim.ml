type t = int Atomic.t

(* far past any stream's length, and far enough below [max_int] that
   the claims the workers still take after [stop] cannot wrap *)
let stop_mark = max_int / 2

let create () = Atomic.make 0

type cursor = { shared : t; mutable claim : int }

let cursor shared = { shared; claim = -1 }

exception Stopped

let mine c i =
  if c.claim < i then begin
    c.claim <- Atomic.fetch_and_add c.shared 1;
    if c.claim >= stop_mark then raise Stopped
  end;
  c.claim = i

let stop t = Atomic.set t stop_mark
