type t = int Atomic.t array

let create n = Array.init (max 1 n) (fun _ -> Atomic.make 0)
let tick t shard = Atomic.incr t.(shard)
let read t = Array.map Atomic.get t
