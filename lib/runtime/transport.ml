open Dex_net

open Dex_stdext

type link_stats = { reconnects : int; backoffs : int; drops : int }

type 'msg t = {
  send : src:Pid.t -> dst:Pid.t -> 'msg -> unit;
  recv : me:Pid.t -> timeout:float -> (Pid.t * 'msg) option;
  deliver : me:Pid.t -> (Pid.t -> 'msg -> unit) option -> unit;
  close : unit -> unit;
  drop_count : dst:Pid.t -> int;
  link_stats : unit -> link_stats;
  peer_links : unit -> (Pid.t * link_stats) list;
}

(* Per-destination link-health accounting, optionally mirrored into a
   metrics registry: per-peer counter handles are created once per
   destination and cached here, so the send path never formats a metric
   name. *)
module Links = struct
  open Dex_metrics

  type entry = {
    mutable reconnects : int;
    mutable backoffs : int;
    mutable drops : int;
    m_reconnects : Registry.counter option;
    m_backoffs : Registry.counter option;
    m_drops : Registry.counter option;
  }

  type t = {
    mutex : Mutex.t;
    peers : (Pid.t, entry) Hashtbl.t;
    metrics : Registry.t option;
    t_reconnects : Registry.counter option;
    t_backoffs : Registry.counter option;
    t_drops : Registry.counter option;
  }

  let create ?metrics () =
    let c name = Option.map (fun r -> Registry.counter r name) metrics in
    {
      mutex = Mutex.create ();
      peers = Hashtbl.create 8;
      metrics;
      t_reconnects = c "net/reconnects";
      t_backoffs = c "net/backoffs";
      t_drops = c "net/drops";
    }

  let entry t dst =
    match Hashtbl.find_opt t.peers dst with
    | Some e -> e
    | None ->
      let c kind =
        Option.map (fun r -> Registry.counter r (Printf.sprintf "net/%s/peer%d" kind dst)) t.metrics
      in
      let e =
        {
          reconnects = 0;
          backoffs = 0;
          drops = 0;
          m_reconnects = c "reconnects";
          m_backoffs = c "backoffs";
          m_drops = c "drops";
        }
      in
      Hashtbl.replace t.peers dst e;
      e

  let bump = Option.iter Registry.incr

  let record_drop t dst =
    Mutex.lock t.mutex;
    let e = entry t dst in
    e.drops <- e.drops + 1;
    bump e.m_drops;
    bump t.t_drops;
    Mutex.unlock t.mutex

  let record_reconnect t dst =
    Mutex.lock t.mutex;
    let e = entry t dst in
    e.reconnects <- e.reconnects + 1;
    bump e.m_reconnects;
    bump t.t_reconnects;
    Mutex.unlock t.mutex

  let record_backoff t dst =
    Mutex.lock t.mutex;
    let e = entry t dst in
    e.backoffs <- e.backoffs + 1;
    bump e.m_backoffs;
    bump t.t_backoffs;
    Mutex.unlock t.mutex

  let drop_count t dst =
    Mutex.lock t.mutex;
    let n = match Hashtbl.find_opt t.peers dst with Some e -> e.drops | None -> 0 in
    Mutex.unlock t.mutex;
    n

  let totals t =
    Mutex.lock t.mutex;
    let s =
      Hashtbl.fold
        (fun _ e (acc : link_stats) ->
          {
            reconnects = acc.reconnects + e.reconnects;
            backoffs = acc.backoffs + e.backoffs;
            drops = acc.drops + e.drops;
          })
        t.peers
        { reconnects = 0; backoffs = 0; drops = 0 }
    in
    Mutex.unlock t.mutex;
    s

  let per_peer t =
    Mutex.lock t.mutex;
    let s =
      Hashtbl.fold
        (fun dst e acc ->
          (dst, { reconnects = e.reconnects; backoffs = e.backoffs; drops = e.drops }) :: acc)
        t.peers []
    in
    Mutex.unlock t.mutex;
    List.sort compare s
end

(* One local endpoint: its receive mailbox plus an optional delivery hook.
   Arrivals go to the hook when one is installed, else to the mailbox; the
   lock keeps arrival order across a hook installation, which first hands
   the hook everything already queued. *)
module Endpoint = struct
  type 'msg t = {
    box : (Pid.t * 'msg) Mailbox.t;
    lock : Mutex.t;
    mutable hook : (Pid.t -> 'msg -> unit) option;
  }

  let create () = { box = Mailbox.create (); lock = Mutex.create (); hook = None }

  let push ep (src, msg) =
    Mutex.protect ep.lock (fun () ->
        match ep.hook with Some h -> h src msg | None -> Mailbox.push ep.box (src, msg))

  let set_hook ep hook =
    Mutex.protect ep.lock (fun () ->
        ep.hook <- hook;
        Option.iter (fun h -> List.iter (fun (src, msg) -> h src msg) (Mailbox.take_all ep.box)) hook)

  let close ep =
    Mutex.protect ep.lock (fun () ->
        ep.hook <- None;
        Mailbox.close ep.box)
end

(* The endpoint-table half of a transport record: [recv] and [deliver]
   over the local endpoints, nothing for pids hosted elsewhere. *)
let recv_of eps ~me ~timeout =
  match Hashtbl.find_opt eps me with None -> None | Some ep -> Mailbox.pop ~timeout ep.Endpoint.box

let deliver_of eps ~me hook = Option.iter (fun ep -> Endpoint.set_hook ep hook) (Hashtbl.find_opt eps me)

(* A joined scheduler thread executing thunks at deadlines — the delayed
   half of fault injection ({!with_faults}) and {!Mem}'s delivery jitter. *)
module Delay_queue = struct
  type t = {
    mutex : Mutex.t;
    cond : Condition.t;
    q : (unit -> unit) Pqueue.t;
    mutable seq : int;
    mutable closed : bool;
    mutable thread : Thread.t option;
  }

  let loop d () =
    let rec go () =
      Mutex.lock d.mutex;
      while Pqueue.is_empty d.q && not d.closed do
        Condition.wait d.cond d.mutex
      done;
      if d.closed then Mutex.unlock d.mutex
      else begin
        let now = Unix.gettimeofday () in
        let rec due acc =
          match Pqueue.peek d.q with
          | Some (at, _, _) when at <= now -> (
            match Pqueue.pop d.q with
            | Some (_, _, f) -> due (f :: acc)
            | None -> acc)
          | _ -> acc
        in
        let ready = due [] in
        let next = match Pqueue.peek d.q with Some (at, _, _) -> Some at | None -> None in
        Mutex.unlock d.mutex;
        List.iter (fun f -> f ()) (List.rev ready);
        (match next with
        | Some at ->
          let nap = Float.min 0.001 (Float.max 0.0 (at -. Unix.gettimeofday ())) in
          if nap > 0.0 then Thread.delay nap
        | None -> ());
        go ()
      end
    in
    go ()

  let create () =
    let d =
      {
        mutex = Mutex.create ();
        cond = Condition.create ();
        q = Pqueue.create ();
        seq = 0;
        closed = false;
        thread = None;
      }
    in
    d.thread <- Some (Thread.create (loop d) ());
    d

  let push d ~delay f =
    Mutex.lock d.mutex;
    if not d.closed then begin
      Pqueue.push d.q ~time:(Unix.gettimeofday () +. delay) ~seq:d.seq f;
      d.seq <- d.seq + 1;
      Condition.signal d.cond
    end;
    Mutex.unlock d.mutex

  let close d =
    Mutex.lock d.mutex;
    d.closed <- true;
    Condition.broadcast d.cond;
    let th = d.thread in
    d.thread <- None;
    Mutex.unlock d.mutex;
    Option.iter Thread.join th
end

(* Fault injection wraps the abstract transport, so every implementation —
   in-memory mailboxes and TCP — faces the same adversarial network. The plan decides per send; delayed copies are delivered by one
   joined scheduler thread. *)
let with_faults plan inner =
  let dq = lazy (Delay_queue.create ()) in
  let send ~src ~dst msg =
    match Fault_plan.decide plan ~now:(Fault_plan.elapsed plan) ~src ~dst with
    | [] -> ()
    | delays ->
      List.iter
        (fun d ->
          if d <= 0.0 then inner.send ~src ~dst msg
          else Delay_queue.push (Lazy.force dq) ~delay:d (fun () -> inner.send ~src ~dst msg))
        delays
  in
  let close () =
    if Lazy.is_val dq then Delay_queue.close (Lazy.force dq);
    inner.close ()
  in
  { inner with send; close }

(* A pid-namespaced window onto a larger mesh: local pids [0 .. count-1]
   map to global pids [base .. base+count-1]. Several consensus groups can
   then share one transport (one listener set, one reactor set, one metrics
   registry) while each sees a private, zero-based pid space — the stream
   namespacing the sharded service is built on. Close is a no-op: the view
   is borrowed, the mesh owner tears the real transport down. *)
let offset ~base ~count inner =
  if base < 0 || count < 1 then invalid_arg "Transport.offset: base >= 0, count >= 1";
  {
    send = (fun ~src ~dst msg -> inner.send ~src:(src + base) ~dst:(dst + base) msg);
    recv =
      (fun ~me ~timeout ->
        match inner.recv ~me:(me + base) ~timeout with
        | Some (src, msg) -> Some (src - base, msg)
        | None -> None);
    deliver =
      (fun ~me hook ->
        inner.deliver ~me:(me + base)
          (Option.map (fun h src msg -> h (src - base) msg) hook));
    close = (fun () -> ());
    drop_count = (fun ~dst -> inner.drop_count ~dst:(dst + base));
    link_stats = inner.link_stats;
    peer_links =
      (fun () ->
        List.filter_map
          (fun (p, s) -> if p >= base && p < base + count then Some (p - base, s) else None)
          (inner.peer_links ()));
  }

module Mem = struct
  (* Jittered deliveries go through one joined delay-queue thread, so
     [close] leaves no threads behind. *)
  let create ?metrics ?faults ?(jitter = 0.0) ?(seed = 0) ~pids () =
    let eps = Hashtbl.create 16 in
    List.iter (fun p -> Hashtbl.replace eps p (Endpoint.create ())) pids;
    let links = Links.create ?metrics () in
    let rng = Prng.create ~seed in
    let rng_mutex = Mutex.create () in
    let draw_delay () =
      Mutex.lock rng_mutex;
      let d = Prng.float rng jitter in
      Mutex.unlock rng_mutex;
      d
    in
    let delayed = if jitter > 0.0 then Some (Delay_queue.create ()) else None in
    let send ~src ~dst msg =
      match (Hashtbl.find_opt eps dst, delayed) with
      | None, _ -> Links.record_drop links dst
      | Some ep, Some dq ->
        Delay_queue.push dq ~delay:(draw_delay ()) (fun () -> Endpoint.push ep (src, msg))
      | Some ep, None -> Endpoint.push ep (src, msg)
    in
    let close () =
      Option.iter Delay_queue.close delayed;
      Hashtbl.iter (fun _ ep -> Endpoint.close ep) eps
    in
    let t =
      {
        send;
        recv = recv_of eps;
        deliver = deliver_of eps;
        close;
        drop_count = (fun ~dst -> Links.drop_count links dst);
        (* No connections to lose in-process: only drops are meaningful. *)
        link_stats = (fun () -> Links.totals links);
        peer_links = (fun () -> Links.per_peer links);
      }
    in
    match faults with None -> t | Some plan -> with_faults plan t
end

(* Reactor-driven TCP with typed codec frames: every socket is nonblocking
   and registered on an event loop — no thread per connection, no thread
   per accept loop. Outbound frames queue on buffered connections that
   coalesce multiple frames per [write]: a frame sent from the loop that
   owns its connection waits for one flush per connection at the end of
   that loop turn, a frame sent from any other thread is pumped at once.
   Inbound chunks reassemble through {!Dex_codec.Codec.Frame.Reader}.
   Reconnects preserve frame boundaries: a dead connection's unsent frames
   (including a partially-written head, resent whole — the peer discards
   the partial tail with the dead connection) are replayed on the fresh
   one. *)
module Tcp_codec = struct
  type out_pending = {
    mutable queued : string list;  (** newest first *)
    mutable count : int;  (** [List.length queued], kept so the cap check is O(1) *)
    mutable attempt : int;
    mutable retry : Reactor.timer option;
  }

  type out_state = Up of Reactor.Conn.t | Down of out_pending

  type out_link = {
    mutable state : out_state;
    mutable flush_posted : bool;  (** an end-of-turn flush is posted on the owning loop *)
  }

  let max_down_queue = 4096

  (* Outbound send failures are retried with a fresh connection and a short
     backoff before a message is abandoned: a peer restarting its listener,
     or a reader torn down over one malformed frame, costs a reconnect
     instead of silently severing the link forever. *)
  let retry_backoffs = [| 0.001; 0.005; 0.02 |]

  let create ~codec ?metrics ?faults ?(remotes = []) ?on_bind ~reactor ?reactor_for ~pids () =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    (* [reactor_for pid] is the loop that owns pid's inbound listener and
       accepted connections (and the outbound connections pid originates):
       a node running on that loop receives without a thread handoff, and
       its sends flush once per loop turn. Reconnect backoff timers stay on
       the primary [reactor]. *)
    let reactor_for = match reactor_for with Some f -> f | None -> fun _ -> reactor in
    let counter name = Option.map (fun r -> Dex_metrics.Registry.counter r name) metrics in
    (* Frames handed to a connection, and the pumps that carried them out:
       their ratio is the coalescing the end-of-turn flush buys. *)
    let m_frames = counter "net/frames" and m_flushes = counter "net/flushes" in
    let pump c =
      Option.iter Dex_metrics.Registry.incr m_flushes;
      Reactor.Conn.pump c
    in
    let frame_codec = Dex_codec.Codec.pair Dex_codec.Codec.int codec in
    let eps = Hashtbl.create 16 in
    List.iter (fun p -> Hashtbl.replace eps p (Endpoint.create ())) pids;
    let ports = Hashtbl.create 16 in
    List.iter (fun (pid, port) -> Hashtbl.replace ports pid port) remotes;
    let links = Links.create ?metrics () in
    let closed = ref false in
    (* One lock for connection state: outbound links, accepted connections,
       reconnect bookkeeping, the shared frame-encode scratch. Lock order is
       state_mutex -> Conn write lock -> reactor lock; connection callbacks
       run with no lock held. *)
    let state_mutex = Mutex.create () in
    let out : (Pid.t * Pid.t, out_link) Hashtbl.t = Hashtbl.create 16 in
    let accepted : (Unix.file_descr, Reactor.Conn.t) Hashtbl.t = Hashtbl.create 16 in
    let ever_connected : (Pid.t * Pid.t, unit) Hashtbl.t = Hashtbl.create 16 in
    let listeners = Hashtbl.create 16 in
    let enc_buf = Buffer.create 1024 in
    let wbuf_gauges : (Pid.t, Dex_metrics.Registry.gauge) Hashtbl.t = Hashtbl.create 8 in
    (* Per-peer write-buffer high-water marks, visible in [--stats]. *)
    let note_hwm dst conn =
      match metrics with
      | None -> ()
      | Some reg ->
        let g =
          match Hashtbl.find_opt wbuf_gauges dst with
          | Some g -> g
          | None ->
            let g =
              Dex_metrics.Registry.gauge reg (Printf.sprintf "net/wbuf_hwm/peer%d" dst)
            in
            Hashtbl.replace wbuf_gauges dst g;
            g
        in
        Dex_metrics.Registry.set_max g (Reactor.Conn.hwm conn)
    in
    let mark_connected ~src ~dst =
      let again = Hashtbl.mem ever_connected (src, dst) in
      if not again then Hashtbl.replace ever_connected (src, dst) ();
      if again then Links.record_reconnect links dst
    in

    (* Outbound connection teardown -> buffered reconnect. Forward
       declarations untangle the retry cycle. *)
    let rec out_conn_closed ~src ~dst c =
      Mutex.lock state_mutex;
      (if not !closed then
         match Hashtbl.find_opt out (src, dst) with
         | Some ({ state = Up c'; _ } as l) when c' == c ->
           let queued = List.rev (Reactor.Conn.unsent c) in
           let pending = { queued; count = List.length queued; attempt = 0; retry = None } in
           l.state <- Down pending;
           schedule_retry ~src ~dst pending
         | _ -> ());
      Mutex.unlock state_mutex

    and schedule_retry ~src ~dst pending =
      (* Caller holds state_mutex. Every scheduled wait is a recorded
         backoff; the budget exhausts into drops. *)
      Links.record_backoff links dst;
      let delay = retry_backoffs.(pending.attempt) in
      pending.retry <- Some (Reactor.after reactor delay (fun () -> retry ~src ~dst))

    and retry ~src ~dst =
      Mutex.lock state_mutex;
      (if not !closed then
         match Hashtbl.find_opt out (src, dst) with
         | Some ({ state = Down pending; _ } as l) -> (
           pending.retry <- None;
           match Hashtbl.find_opt ports dst with
           | None -> Hashtbl.remove out (src, dst)
           | Some port -> (
             match try_connect ~src ~dst ~port with
             | Some c ->
               mark_connected ~src ~dst;
               l.state <- Up c;
               List.iter (Reactor.Conn.buffer c) (List.rev pending.queued);
               Reactor.Conn.pump c;
               note_hwm dst c
             | None ->
               pending.attempt <- pending.attempt + 1;
               if pending.attempt >= Array.length retry_backoffs then begin
                 List.iter (fun _ -> Links.record_drop links dst) pending.queued;
                 Hashtbl.remove out (src, dst)
               end
               else schedule_retry ~src ~dst pending))
         | _ -> ());
      Mutex.unlock state_mutex

    and try_connect ~src ~dst ~port =
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | () -> (
        Unix.setsockopt sock Unix.TCP_NODELAY true;
        (* The cell closes over the connection for the close callback; a
           peer that dies before the cell is filled is caught by the
           liveness re-check in [send]. *)
        let cell = ref None in
        match
          Reactor.Conn.attach (reactor_for src) sock
            ~on_bytes:(fun _ _ -> ())
            ~on_close:(fun () ->
              match !cell with Some c -> out_conn_closed ~src ~dst c | None -> ())
        with
        | c ->
          cell := Some c;
          Some c
        | exception Invalid_argument msg ->
          prerr_endline msg;
          (try Unix.close sock with Unix.Unix_error _ -> ());
          None)
      | exception Unix.Unix_error _ ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        None
    in

    let encode_frame env =
      Buffer.clear enc_buf;
      Dex_codec.Codec.Frame.write enc_buf frame_codec env;
      Buffer.contents enc_buf
    in

    (* The end-of-turn flush: pump whatever connection the link has now —
       a reconnect since the post replaced the one the frames went to. *)
    let flush_link l () =
      Mutex.lock state_mutex;
      l.flush_posted <- false;
      let conn = match l.state with Up c -> Some c | Down _ -> None in
      Mutex.unlock state_mutex;
      Option.iter pump conn
    in

    let send ~src ~dst msg =
      if not !closed then
        match Hashtbl.find_opt ports dst with
        | None -> Links.record_drop links dst
        | Some port ->
          (* On the loop that owns the link's connection, a frame only
             buffers: one flush per connection is posted for the end of the
             turn, so a step's frames to a peer leave in one [write]. Any
             other thread pumps at once, outside [state_mutex]: the write
             syscall must not serialize every sender on the transport's one
             lock. *)
          let loop = reactor_for src in
          let on_owner = Reactor.on_loop loop in
          let to_pump = ref None and to_post = ref None in
          let buffer l c frame =
            Reactor.Conn.buffer c frame;
            Option.iter Dex_metrics.Registry.incr m_frames;
            note_hwm dst c;
            if not on_owner then to_pump := Some c
            else if not l.flush_posted then begin
              l.flush_posted <- true;
              to_post := Some l
            end
          in
          Mutex.lock state_mutex;
          (if not !closed then begin
             let frame = encode_frame (src, msg) in
             match Hashtbl.find_opt out (src, dst) with
             | Some ({ state = Up c; _ } as l) when Reactor.Conn.is_open c -> buffer l c frame
             | Some ({ state = Up c; _ } as l) ->
               (* The close callback lost a race; recover its work here. *)
               let queued = frame :: List.rev (Reactor.Conn.unsent c) in
               let pending = { queued; count = List.length queued; attempt = 0; retry = None } in
               l.state <- Down pending;
               schedule_retry ~src ~dst pending
             | Some { state = Down pending; _ } ->
               if pending.count < max_down_queue then begin
                 pending.queued <- frame :: pending.queued;
                 pending.count <- pending.count + 1
               end
               else Links.record_drop links dst
             | None -> (
               match try_connect ~src ~dst ~port with
               | Some c ->
                 mark_connected ~src ~dst;
                 let l = { state = Up c; flush_posted = false } in
                 Hashtbl.replace out (src, dst) l;
                 buffer l c frame
               | None ->
                 let pending = { queued = [ frame ]; count = 1; attempt = 0; retry = None } in
                 Hashtbl.replace out (src, dst) { state = Down pending; flush_posted = false };
                 schedule_retry ~src ~dst pending)
           end);
          Mutex.unlock state_mutex;
          Option.iter pump !to_pump;
          Option.iter (fun l -> Reactor.post loop (flush_link l)) !to_post
    in

    (* Listeners: nonblocking accept driven by the reactor. Each accepted
       connection gets an incremental frame reader feeding the destination
       mailbox; a malformed frame raises out of [on_bytes], which tears down
       exactly that connection (Byzantine peer). *)
    let attach_inbound ~dst sock =
      Unix.setsockopt sock Unix.TCP_NODELAY true;
      let reader = Dex_codec.Codec.Frame.Reader.create frame_codec in
      let ep = Hashtbl.find_opt eps dst in
      let cell = ref None in
      match
        Reactor.Conn.attach (reactor_for dst) sock
          ~on_bytes:(fun bytes len ->
            let frames = Dex_codec.Codec.Frame.Reader.feed reader bytes len in
            Option.iter (fun ep -> List.iter (Endpoint.push ep) frames) ep)
          ~on_close:(fun () ->
            Mutex.lock state_mutex;
            (match !cell with
            | Some c -> (
              match Hashtbl.find_opt accepted (Reactor.Conn.fd c) with
              | Some c' when c' == c -> Hashtbl.remove accepted (Reactor.Conn.fd c)
              | _ -> ())
            | None -> ());
            Mutex.unlock state_mutex)
      with
      | c ->
        cell := Some c;
        Mutex.lock state_mutex;
        if !closed then begin
          Mutex.unlock state_mutex;
          Reactor.Conn.close c
        end
        else begin
          Hashtbl.replace accepted (Reactor.Conn.fd c) c;
          Mutex.unlock state_mutex
        end
      | exception Invalid_argument msg ->
        (* FD_SETSIZE exhausted: refuse the connection loudly. *)
        prerr_endline msg;
        (try Unix.close sock with Unix.Unix_error _ -> ())
    in
    List.iter
      (fun pid ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen sock 64;
        let port =
          match Unix.getsockname sock with
          | Unix.ADDR_INET (_, port) -> port
          | _ -> assert false
        in
        Hashtbl.replace ports pid port;
        Hashtbl.replace listeners pid sock;
        Option.iter (fun f -> f pid port) on_bind;
        Unix.set_nonblock sock;
        Reactor.on_readable (reactor_for pid) sock (fun () ->
            let rec accept_ready () =
              match Unix.accept sock with
              | conn, _ ->
                attach_inbound ~dst:pid conn;
                accept_ready ()
              | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
              | exception Unix.Unix_error _ -> ()
            in
            accept_ready ()))
      pids;

    let close () =
      Mutex.lock state_mutex;
      if !closed then Mutex.unlock state_mutex
      else begin
        closed := true;
        let conns =
          Hashtbl.fold (fun _ c acc -> c :: acc) accepted []
          @ Hashtbl.fold
              (fun _ l acc ->
                match l.state with
                | Up c -> c :: acc
                | Down pending ->
                  Option.iter (Reactor.cancel reactor) pending.retry;
                  acc)
              out []
        in
        Hashtbl.reset accepted;
        Hashtbl.reset out;
        Mutex.unlock state_mutex;
        Hashtbl.iter
          (fun pid sock ->
            Reactor.remove (reactor_for pid) sock;
            (* Shut down before closing: a loop still parked in [select]
               holds the socket, and a merely closed one keeps listening
               until that loop wakes, so rebinding the port would fail. *)
            (try Unix.shutdown sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
            try Unix.close sock with Unix.Unix_error _ -> ())
          listeners;
        List.iter Reactor.Conn.close conns;
        Hashtbl.iter (fun _ ep -> Endpoint.close ep) eps
      end
    in
    let t =
      {
        send;
        recv = recv_of eps;
        deliver = deliver_of eps;
        close;
        drop_count = (fun ~dst -> Links.drop_count links dst);
        link_stats = (fun () -> Links.totals links);
        peer_links = (fun () -> Links.per_peer links);
      }
    in
    match faults with None -> t | Some plan -> with_faults plan t
end
