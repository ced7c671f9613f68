open Dex_stdext

(* [Unix.file_descr] is an int on every Unix; [select] only accepts
   descriptors below FD_SETSIZE, so the reactor needs the number to fail
   fast at registration instead of dying with EINVAL mid-loop. *)
external fd_int : Unix.file_descr -> int = "%identity"

let max_fds = 1024

let check_fd ~who fd =
  let n = fd_int fd in
  if n < 0 || n >= max_fds then
    invalid_arg
      (Printf.sprintf "%s: fd %d exceeds the select FD_SETSIZE limit (%d)" who n max_fds)

type handler = {
  mutable read_cb : (unit -> unit) option;
  mutable write_cb : (unit -> unit) option;
}

type timer = int

type timer_entry = { id : int; fire : unit -> unit; period : float option }

type t = {
  mutex : Mutex.t;
  fds : (Unix.file_descr, handler) Hashtbl.t;
  timers : timer_entry Pqueue.t;
  cancelled : (int, unit) Hashtbl.t;
  posted : (unit -> unit) Queue.t;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  name : string;
  mutable running : bool;
  mutable next_id : int;  (** timer ids and heap tie-break sequence *)
  mutable thread : Thread.t option;
  mutable thread_id : int;
  mutable exited : bool;  (** the loop thread has returned *)
  called : Condition.t;  (** broadcast when a {!call} completes and when the loop exits *)
  (* Reusable I/O scratch, touched only by the loop thread. *)
  rbuf : Bytes.t;
  wbuf : Bytes.t;
  m_loops : Dex_metrics.Registry.counter option;
  m_errors : Dex_metrics.Registry.counter option;
}

let on_loop t = Thread.id (Thread.self ()) = t.thread_id

let wake t =
  (* The loop thread never needs waking: it is not asleep in [select] while
     it runs this, and every iteration rebuilds interest lists and re-checks
     timers and posted work from scratch. *)
  if not (on_loop t) then
    (* Nonblocking pipe: a full pipe already guarantees a pending wake-up. *)
    try ignore (Unix.write t.pipe_w (Bytes.make 1 '\000') 0 1)
    with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

let report_error t context exn =
  Option.iter Dex_metrics.Registry.incr t.m_errors;
  Printf.eprintf "[reactor %s] %s raised: %s\n%!" t.name context (Printexc.to_string exn)

let guarded t context f = try f () with exn -> report_error t context exn

(* One loop iteration: sleep in [select] until I/O, a timer deadline or a
   wake-up; then dispatch ready descriptors, run posted closures and fire due
   timers — all outside the lock, re-checking registration per callback so a
   handler removed during dispatch never fires afterwards. *)
let iteration t =
  Mutex.lock t.mutex;
  let now = Unix.gettimeofday () in
  let timeout =
    match Pqueue.peek t.timers with
    | None -> 0.5
    | Some (deadline, _, _) -> Float.max 0.0 (Float.min 0.5 (deadline -. now))
  in
  let timeout = if Queue.is_empty t.posted then timeout else 0.0 in
  let reads = ref [ t.pipe_r ] and writes = ref [] in
  Hashtbl.iter
    (fun fd h ->
      if h.read_cb <> None then reads := fd :: !reads;
      if h.write_cb <> None then writes := fd :: !writes)
    t.fds;
  Mutex.unlock t.mutex;
  let ready_r, ready_w =
    match Unix.select !reads !writes [] timeout with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error (EINTR, _, _) -> ([], [])
    | exception Unix.Unix_error (EBADF, _, _) ->
      (* A registered descriptor was closed behind our back: prune it rather
         than spinning on the error. *)
      Mutex.lock t.mutex;
      let bad =
        Hashtbl.fold
          (fun fd _ acc ->
            match Unix.fstat fd with
            | _ -> acc
            | exception Unix.Unix_error _ -> fd :: acc)
          t.fds []
      in
      List.iter (Hashtbl.remove t.fds) bad;
      Mutex.unlock t.mutex;
      ([], [])
  in
  (* Drain the wake pipe. *)
  if List.memq t.pipe_r ready_r then begin
    let scratch = Bytes.create 64 in
    let rec drain () =
      match Unix.read t.pipe_r scratch 0 64 with
      | 64 -> drain ()
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    drain ()
  end;
  let dispatch ready pick =
    List.iter
      (fun fd ->
        if fd != t.pipe_r then begin
          Mutex.lock t.mutex;
          let cb = match Hashtbl.find_opt t.fds fd with None -> None | Some h -> pick h in
          Mutex.unlock t.mutex;
          match cb with None -> () | Some f -> guarded t "handler" f
        end)
      ready
  in
  dispatch ready_r (fun h -> h.read_cb);
  dispatch ready_w (fun h -> h.write_cb);
  (* Posted closures. *)
  Mutex.lock t.mutex;
  let jobs = Queue.create () in
  Queue.transfer t.posted jobs;
  Mutex.unlock t.mutex;
  Queue.iter (fun f -> guarded t "posted" f) jobs;
  (* Due timers: pop everything due now, run in deadline order, reschedule
     periodics. Cancellation tombstones are consumed as entries pop. *)
  let now = Unix.gettimeofday () in
  let due = ref [] in
  Mutex.lock t.mutex;
  let rec collect () =
    match Pqueue.peek t.timers with
    | Some (deadline, _, _) when deadline <= now -> (
      match Pqueue.pop t.timers with
      | Some (_, _, e) ->
        if Hashtbl.mem t.cancelled e.id then Hashtbl.remove t.cancelled e.id
        else due := e :: !due;
        collect ()
      | None -> ())
    | _ -> ()
  in
  collect ();
  Mutex.unlock t.mutex;
  List.iter
    (fun e ->
      guarded t "timer" e.fire;
      match e.period with
      | None -> ()
      | Some p ->
        Mutex.lock t.mutex;
        (* A periodic cancelled from its own callback must not resurrect. *)
        if Hashtbl.mem t.cancelled e.id then Hashtbl.remove t.cancelled e.id
        else begin
          let seq = t.next_id in
          t.next_id <- t.next_id + 1;
          Pqueue.push t.timers ~time:(Unix.gettimeofday () +. p) ~seq e
        end;
        Mutex.unlock t.mutex)
    (List.rev !due);
  Option.iter Dex_metrics.Registry.incr t.m_loops

let loop t () =
  t.thread_id <- Thread.id (Thread.self ());
  while t.running do
    iteration t
  done;
  Mutex.lock t.mutex;
  t.exited <- true;
  Condition.broadcast t.called;
  Mutex.unlock t.mutex;
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  try Unix.close t.pipe_w with Unix.Unix_error _ -> ()

let create ?metrics ?(name = "reactor") () =
  let pipe_r, pipe_w = Unix.pipe () in
  check_fd ~who:"Reactor.create (wake pipe)" pipe_r;
  check_fd ~who:"Reactor.create (wake pipe)" pipe_w;
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let t =
    {
      mutex = Mutex.create ();
      fds = Hashtbl.create 32;
      timers = Pqueue.create ();
      cancelled = Hashtbl.create 8;
      posted = Queue.create ();
      pipe_r;
      pipe_w;
      name;
      running = true;
      next_id = 0;
      thread = None;
      thread_id = -1;
      exited = false;
      called = Condition.create ();
      rbuf = Bytes.create 65536;
      wbuf = Bytes.create 262144;
      m_loops = Option.map (fun r -> Dex_metrics.Registry.counter r "reactor/loops") metrics;
      m_errors =
        Option.map (fun r -> Dex_metrics.Registry.counter r "reactor/handler_errors") metrics;
    }
  in
  Option.iter
    (fun r ->
      Dex_metrics.Registry.gauge_fn r "reactor/fds" (fun () -> Hashtbl.length t.fds);
      Dex_metrics.Registry.gauge_fn r "reactor/timers" (fun () -> Pqueue.length t.timers))
    metrics;
  t.thread <- Some (Thread.create (loop t) ());
  t

let stop t =
  Mutex.lock t.mutex;
  let was_running = t.running in
  t.running <- false;
  Mutex.unlock t.mutex;
  if was_running then begin
    wake t;
    if not (on_loop t) then Option.iter Thread.join t.thread
  end

let stopped t = not t.running

let on_interest t fd ~who set =
  check_fd ~who fd;
  Mutex.lock t.mutex;
  let h =
    match Hashtbl.find_opt t.fds fd with
    | Some h -> h
    | None ->
      let h = { read_cb = None; write_cb = None } in
      Hashtbl.replace t.fds fd h;
      h
  in
  set h;
  Mutex.unlock t.mutex;
  wake t

let on_readable t fd f = on_interest t fd ~who:"Reactor.on_readable" (fun h -> h.read_cb <- Some f)

let on_writable t fd f = on_interest t fd ~who:"Reactor.on_writable" (fun h -> h.write_cb <- Some f)

let clear_writable t fd =
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.fds fd with
  | Some h ->
    h.write_cb <- None;
    if h.read_cb = None then Hashtbl.remove t.fds fd
  | None -> ());
  Mutex.unlock t.mutex

let remove t fd =
  Mutex.lock t.mutex;
  Hashtbl.remove t.fds fd;
  Mutex.unlock t.mutex;
  wake t

let fd_count t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.fds in
  Mutex.unlock t.mutex;
  n

let schedule t ~delay ~period fire =
  Mutex.lock t.mutex;
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  Pqueue.push t.timers ~time:(Unix.gettimeofday () +. delay) ~seq:id { id; fire; period };
  Mutex.unlock t.mutex;
  wake t;
  id

let after t delay f = schedule t ~delay ~period:None f

let every t period f = schedule t ~delay:period ~period:(Some period) f

let cancel t id =
  Mutex.lock t.mutex;
  Hashtbl.replace t.cancelled id ();
  Mutex.unlock t.mutex

let timer_count t =
  Mutex.lock t.mutex;
  let n = Pqueue.length t.timers in
  Mutex.unlock t.mutex;
  n

(* Only the post that makes the queue non-empty wakes the loop: until the
   loop takes the queue, later posts ride on that wake-up (the loop never
   sleeps in [select] while the queue is non-empty), so a burst of posts
   costs one pipe write. *)
let post t f =
  Mutex.lock t.mutex;
  let idle = Queue.is_empty t.posted in
  Queue.push f t.posted;
  Mutex.unlock t.mutex;
  if idle then wake t

(* Post [f] and sleep until it has run. The loop sets the result before
   it can exit, so a loop that exited with no result never ran the job and
   never will: the caller runs it then, and a stopped loop can never
   strand a caller. *)
let call t f =
  if on_loop t || Mutex.protect t.mutex (fun () -> t.exited) then f ()
  else begin
    let result = ref None in
    post t (fun () ->
        let r = match f () with v -> Ok v | exception e -> Error e in
        Mutex.protect t.mutex (fun () ->
            result := Some r;
            Condition.broadcast t.called));
    Mutex.lock t.mutex;
    while Option.is_none !result && not t.exited do
      Condition.wait t.called t.mutex
    done;
    let r = !result in
    Mutex.unlock t.mutex;
    match r with Some (Ok v) -> v | Some (Error e) -> raise e | None -> f ()
  end

module Conn = struct
  type reactor = t

  type t = {
    r : reactor;
    cfd : Unix.file_descr;
    wmutex : Mutex.t;
    q : string Queue.t;
    mutable head_off : int;  (** bytes of the head frame already written *)
    mutable pending : int;
    mutable high : int;
    mutable opened : bool;
    mutable armed : bool;
    mutable pbuf : Bytes.t;  (** lazily-allocated scratch for {!pump} *)
    on_close : unit -> unit;
  }

  let fd c = c.cfd

  let is_open c = c.opened

  (* Tear down from inside the loop (EOF, error, on_bytes failure): close
     under the write lock, release it, then fire [on_close] so the callback
     can inspect {!unsent} without deadlocking. *)
  let teardown c =
    Mutex.lock c.wmutex;
    let was_open = c.opened in
    if was_open then begin
      c.opened <- false;
      remove c.r c.cfd;
      try Unix.close c.cfd with Unix.Unix_error _ -> ()
    end;
    Mutex.unlock c.wmutex;
    if was_open then c.on_close ()

  let close c =
    Mutex.lock c.wmutex;
    if c.opened then begin
      c.opened <- false;
      remove c.r c.cfd;
      (try Unix.close c.cfd with Unix.Unix_error _ -> ())
    end;
    Mutex.unlock c.wmutex

  (* Coalesce as many queued frames as fit into [buf] and push them out with
     a single [write] — the frame boundary bookkeeping ([head_off]) survives
     partial writes. Caller holds [wmutex]. *)
  exception Buffer_full

  let fill_from_queue c buf =
    let cap = Bytes.length buf in
    let filled = ref 0 in
    let first = ref true in
    (try
       Queue.iter
         (fun s ->
           let off = if !first then c.head_off else 0 in
           first := false;
           let rem = String.length s - off in
           let space = cap - !filled in
           if space <= 0 then raise Buffer_full;
           let k = min rem space in
           Bytes.blit_string s off buf !filled k;
           filled := !filled + k;
           if k < rem then raise Buffer_full)
         c.q
     with Buffer_full -> ());
    !filled

  let consume c n =
    let rec go n =
      if n > 0 then begin
        let s = Queue.peek c.q in
        let rem = String.length s - c.head_off in
        if n >= rem then begin
          ignore (Queue.pop c.q);
          c.head_off <- 0;
          go (n - rem)
        end
        else c.head_off <- c.head_off + n
      end
    in
    go n

  (* Loop-thread flush (the writability callback): uses the reactor's shared
     write buffer; a hard write error tears the connection down here, where
     [on_close] can run without a caller's locks held. *)
  let flush c () =
    Mutex.lock c.wmutex;
    if c.opened then begin
      let filled = fill_from_queue c c.r.wbuf in
      let result =
        if filled = 0 then Ok 0
        else
          match Unix.write c.cfd c.r.wbuf 0 filled with
          | n -> Ok n
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> Ok 0
          | exception (Unix.Unix_error _ | Sys_error _) -> Error ()
      in
      match result with
      | Error () ->
        Mutex.unlock c.wmutex;
        teardown c
      | Ok n ->
        consume c n;
        c.pending <- c.pending - n;
        if Queue.is_empty c.q then begin
          c.armed <- false;
          clear_writable c.r c.cfd
        end;
        Mutex.unlock c.wmutex
    end
    else Mutex.unlock c.wmutex

  let enqueue c s =
    Queue.push s c.q;
    c.pending <- c.pending + String.length s;
    if c.pending > c.high then c.high <- c.pending

  let send c s =
    Mutex.lock c.wmutex;
    if c.opened then begin
      enqueue c s;
      if not c.armed then begin
        c.armed <- true;
        on_writable c.r c.cfd (flush c)
      end
    end;
    Mutex.unlock c.wmutex

  (* Deferred variant of {!send}: enqueue without scheduling the loop-side
     flush at all. Only for callers that {!pump} in the same breath — a
     buffered frame nobody pumps sits until some other send arms the
     connection. The payoff on the latency path: a buffer+pump wave whose
     pump drains everything never touches the reactor (no interest change,
     no wake pipe, no loop turn). *)
  let buffer c s =
    Mutex.lock c.wmutex;
    if c.opened then enqueue c s;
    Mutex.unlock c.wmutex

  (* Caller-thread coalesced flush: write everything queued right now, from
     the sending thread, instead of waiting a loop turn for the armed [flush].
     Senders enqueue a wave of frames and pump once at the wave boundary —
     the wave leaves in one [write]. Uses a per-connection scratch buffer
     (the reactor's [wbuf] belongs to the loop thread). Whatever the socket
     refuses is handed to the loop (arm + wake); hard write errors are left
     for that armed flush to discover, because teardown runs [on_close] and
     callers pump while holding their own locks — failing here would
     deadlock the close callback. *)
  let pump c =
    Mutex.lock c.wmutex;
    if c.opened && not (Queue.is_empty c.q) then begin
      if Bytes.length c.pbuf = 0 then c.pbuf <- Bytes.create 65536;
      let filled = fill_from_queue c c.pbuf in
      (match Unix.write c.cfd c.pbuf 0 filled with
      | n ->
        consume c n;
        c.pending <- c.pending - n
      | exception Unix.Unix_error _ -> ());
      if Queue.is_empty c.q then begin
        if c.armed then begin
          c.armed <- false;
          clear_writable c.r c.cfd
        end
      end
      else if not c.armed then begin
        c.armed <- true;
        on_writable c.r c.cfd (flush c)
      end
    end;
    Mutex.unlock c.wmutex

  let attach r cfd ~on_bytes ~on_close =
    check_fd ~who:"Reactor.Conn.attach" cfd;
    Unix.set_nonblock cfd;
    let c =
      {
        r;
        cfd;
        wmutex = Mutex.create ();
        q = Queue.create ();
        head_off = 0;
        pending = 0;
        high = 0;
        opened = true;
        armed = false;
        pbuf = Bytes.create 0;
        on_close;
      }
    in
    let read_ready () =
      let rec drain () =
        if c.opened then
          match Unix.read cfd r.rbuf 0 (Bytes.length r.rbuf) with
          | 0 -> teardown c
          | n -> (
            match on_bytes r.rbuf n with
            | () -> if n = Bytes.length r.rbuf then drain ()
            | exception _ -> teardown c)
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
          | exception Unix.Unix_error _ -> teardown c
      in
      drain ()
    in
    on_readable r cfd read_ready;
    c

  let unsent c =
    Mutex.lock c.wmutex;
    let frames = List.of_seq (Queue.to_seq c.q) in
    Mutex.unlock c.wmutex;
    frames

  let pending_bytes c =
    Mutex.lock c.wmutex;
    let n = c.pending in
    Mutex.unlock c.wmutex;
    n

  let hwm c =
    Mutex.lock c.wmutex;
    let n = c.high in
    Mutex.unlock c.wmutex;
    n
end
