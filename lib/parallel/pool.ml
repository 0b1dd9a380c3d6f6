type job = unit -> unit

(* the job queue: FIFO under one mutex; [nonempty] wakes idle workers
   on a push and on [shutdown] *)
type queue = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  jobs : job Queue.t;
  mutable closed : bool;
}

type t = {
  queue : queue;
  domains : unit Domain.t array;
  mutable joined : bool;
}

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a handle = {
  h_mutex : Mutex.t;
  h_cond : Condition.t;
  mutable state : 'a state;
}

(* the next job, or [None] once the queue is closed and drained *)
let pop q =
  Mutex.lock q.mutex;
  while Queue.is_empty q.jobs && not q.closed do
    Condition.wait q.nonempty q.mutex
  done;
  let job = Queue.take_opt q.jobs in
  Mutex.unlock q.mutex;
  job

let rec worker q () =
  match pop q with
  | None -> ()
  | Some job ->
    (* [submit]'s wrapper already catches everything the job raises;
       the extra handler keeps a misbehaving raw job from killing the
       worker and starving the pool. *)
    (try job () with _ -> ());
    worker q ()

let create n =
  let queue =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      closed = false;
    }
  in
  {
    queue;
    domains = Array.init (Stdlib.max 1 n) (fun _ -> Domain.spawn (worker queue));
    joined = false;
  }

let size t = Array.length t.domains

let max_domains = 128

let submit t f =
  let h = { h_mutex = Mutex.create (); h_cond = Condition.create (); state = Pending } in
  let finish state =
    Mutex.lock h.h_mutex;
    h.state <- state;
    Condition.broadcast h.h_cond;
    Mutex.unlock h.h_mutex
  in
  let job () =
    match f () with
    | v -> finish (Done v)
    | exception e -> finish (Failed (e, Printexc.get_raw_backtrace ()))
  in
  let q = t.queue in
  Mutex.lock q.mutex;
  if q.closed then begin
    Mutex.unlock q.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.add job q.jobs;
  Condition.signal q.nonempty;
  Mutex.unlock q.mutex;
  h

let await h =
  Mutex.lock h.h_mutex;
  while (match h.state with Pending -> true | Done _ | Failed _ -> false) do
    Condition.wait h.h_cond h.h_mutex
  done;
  let state = h.state in
  Mutex.unlock h.h_mutex;
  match state with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let run t thunks =
  let handles = List.map (submit t) thunks in
  let outcomes =
    List.map (fun h -> try Ok (await h) with e -> Error e) handles
  in
  List.map (function Ok v -> v | Error e -> raise e) outcomes

let shutdown t =
  let q = t.queue in
  Mutex.lock q.mutex;
  q.closed <- true;
  Condition.broadcast q.nonempty;
  let first = not t.joined in
  t.joined <- true;
  Mutex.unlock q.mutex;
  if first then Array.iter Domain.join t.domains

let with_pool n f =
  let t = create n in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
