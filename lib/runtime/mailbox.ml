type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  has_waiters : Condition.t;
  queue : 'a Queue.t;
  mutable closed : bool;
  mutable waiters : int;
  mutable watcher : Thread.t option;
}

let create () =
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    has_waiters = Condition.create ();
    queue = Queue.create ();
    closed = false;
    waiters = 0;
    watcher = None;
  }

let push t x =
  Mutex.lock t.mutex;
  if not t.closed then begin
    Queue.push x t.queue;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.mutex

(* The stdlib [Condition] has no timed wait, but only arrival latency needs
   to be sharp — timeouts fire when nothing is arriving, so their precision
   is unimportant. Poppers therefore block on [Condition.wait] (a push wakes
   them immediately), and blocked poppers re-check their deadlines at a
   coarse tick from one lazily-spawned watcher thread per mailbox. The
   watcher sleeps on [has_waiters] while nobody is blocked, so an idle or
   drained mailbox costs nothing, and it is joined by {!close}. *)
let tick_interval = 0.005

let watcher_loop t () =
  let rec loop () =
    Mutex.lock t.mutex;
    while t.waiters = 0 && not t.closed do
      Condition.wait t.has_waiters t.mutex
    done;
    let stop = t.closed in
    Mutex.unlock t.mutex;
    if not stop then begin
      Thread.delay tick_interval;
      Mutex.lock t.mutex;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let pop ~timeout t =
  let deadline = Unix.gettimeofday () +. timeout in
  Mutex.lock t.mutex;
  if t.watcher = None && not t.closed then
    t.watcher <- Some (Thread.create (watcher_loop t) ());
  t.waiters <- t.waiters + 1;
  Condition.signal t.has_waiters;
  let rec wait () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.closed then None
    else if Unix.gettimeofday () >= deadline then None
    else begin
      Condition.wait t.nonempty t.mutex;
      wait ()
    end
  in
  let result = wait () in
  t.waiters <- t.waiters - 1;
  Mutex.unlock t.mutex;
  result

let take_all t =
  Mutex.lock t.mutex;
  let xs = List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  Mutex.unlock t.mutex;
  xs

let close t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Condition.broadcast t.has_waiters;
  let watcher = t.watcher in
  t.watcher <- None;
  Mutex.unlock t.mutex;
  (* Join outside the lock: the watcher needs it to observe [closed], and
     blocks at most one tick in [Thread.delay]. *)
  Option.iter Thread.join watcher

let length t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n
