(* Open-loop load generator: one thread, one TCP connection per replica,
   many logical clients multiplexed over those connections.

   Arrivals are seeded Poisson at a fixed absolute rate. A due request takes
   a free logical client — at most one outstanding request per client, which
   the replicas' (client, rid) session dedupe requires — and waits for one
   when none is free. Either way its latency runs from the due time to the
   first [Applied] reply, so a stall is charged to every request it delays,
   and how late the generator ran (due to first send) is recorded too. *)

open Dex_service
open Util
module Prng = Dex_stdext.Prng
module Frame = Dex_codec.Codec.Frame

type command = State_machine.command * string option
(** a command, with the counter key it increments ([Add] or [Blob]) *)

let keys = 1000

(* The seeded command stream: [dex_client --workload mixed]'s ratios (Set,
   Add, Get and Nop, a quarter each), drawn at random over [keys] keys.
   Counter keys (c<i>) only ever receive [Add 1], so each one's final value
   must equal its acknowledged increments — the exactly-once gate; Set and
   Get go to the register keys (k<i>). *)
let commands ~seed : unit -> command =
  let g = Prng.create ~seed in
  fun () ->
    let i = Prng.int g keys in
    match Prng.int g 4 with
    | 0 -> (State_machine.Set (Printf.sprintf "k%d" i, Prng.int g 1_000_000), None)
    | 1 ->
      let k = Printf.sprintf "c%d" i in
      (State_machine.Add (k, 1), Some k)
    | 2 -> (State_machine.Get (Printf.sprintf "k%d" i), None)
    | _ -> (State_machine.Nop, None)

(* Blob writes of [bytes]-byte seeded payloads over 16 keys; like [Add 1],
   a Blob increments its key, so the exactly-once gate covers them too. *)
let blobs ~seed ~bytes : unit -> command =
  let g = Prng.create ~seed in
  let payload = String.init bytes (fun _ -> Char.chr (Prng.int g 256)) in
  fun () ->
    let k = Printf.sprintf "b%d" (Prng.int g 16) in
    (State_machine.Blob (k, payload), Some k)

(* Seeded Poisson due offsets (seconds from phase start). *)
let arrivals ~seed ~rate ~duration =
  let g = Prng.create ~seed in
  let b = Fbuf.create () in
  let rec go t =
    let t = t +. Prng.exponential g ~mean:(1.0 /. rate) in
    if t < duration then begin
      Fbuf.push b t;
      go t
    end
  in
  go 0.0;
  Fbuf.to_array b

type phase = {
  mutable attempted : int;
  mutable committed : int;
  lat_ms : Fbuf.t;  (** due -> first Applied *)
  late_ms : Fbuf.t;  (** due -> first transmission *)
  mutable one_step : int;
  mutable two_step : int;
  mutable busy : int;  (** Busy answers to this phase's requests *)
  mutable started : float;
  mutable last_commit : float;
}

let new_phase () =
  { attempted = 0; committed = 0; lat_ms = Fbuf.create (); late_ms = Fbuf.create ();
    one_step = 0; two_step = 0; busy = 0; started = now (); last_commit = 0.0 }

type client = {
  id : int;
  mutable rid : int;
  mutable pending : bool;  (** a request is outstanding *)
  mutable counted : bool;  (** ... and it belongs to the running phase *)
  mutable due : float;
  mutable sent : float;
  mutable frame : string;
  mutable key : string option;
}

type conn = { fd : Unix.file_descr; reader : Wire.reply Frame.Reader.reader; out : Buffer.t }

type t = {
  conns : conn array;
  clients : client array;
  free : int Queue.t;
  waiting : (float * command) Queue.t;  (** due, no free client yet *)
  mutable in_flight : int;  (** counted requests awaiting a reply *)
  acked : (string, int) Hashtbl.t;  (** counter key -> acknowledged increments *)
  issued : (string, int) Hashtbl.t;
  keep : int;  (** how many requests/replies to keep for the codec replay *)
  mutable sent_reqs : Wire.request list;
  mutable replies : Wire.reply list;
  rbuf : Bytes.t;
  mutable phase : phase;
}

let client_base = 1000

(* logical clients: enough that a due request rarely waits for a free one *)
let pool = 2048

let connect ?(keep = 0) ports =
  let conn port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    { fd; reader = Frame.Reader.create Wire.reply_codec; out = Buffer.create 65536 }
  in
  let free = Queue.create () in
  for i = 0 to pool - 1 do
    Queue.push i free
  done;
  {
    conns = Array.of_list (List.map conn ports);
    clients =
      Array.init pool (fun i ->
          { id = client_base + i; rid = 0; pending = false; counted = false; due = 0.0;
            sent = 0.0; frame = ""; key = None });
    free;
    waiting = Queue.create ();
    in_flight = 0;
    acked = Hashtbl.create 1024;
    issued = Hashtbl.create 1024;
    keep;
    sent_reqs = [];
    replies = [];
    rbuf = Bytes.create 65536;
    phase = new_phase ();
  }

let close g = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) g.conns

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let on_reply g (r : Wire.reply) =
  let i = r.Wire.client - client_base in
  if i >= 0 && i < Array.length g.clients then begin
    let c = g.clients.(i) in
    if c.pending && r.Wire.rid = c.rid then
      match r.Wire.outcome with
      | Wire.Busy -> if c.counted then g.phase.busy <- g.phase.busy + 1
      | Wire.Applied { provenance; _ } ->
        c.pending <- false;
        Queue.push i g.free;
        Option.iter (bump g.acked) c.key;
        if List.compare_length_with g.replies g.keep < 0 then g.replies <- r :: g.replies;
        if c.counted then begin
          c.counted <- false;
          g.in_flight <- g.in_flight - 1;
          let t = now () in
          let p = g.phase in
          p.committed <- p.committed + 1;
          Fbuf.push p.lat_ms ((t -. c.due) *. 1000.0);
          (match provenance with
          | Dex_core.Dex.One_step -> p.one_step <- p.one_step + 1
          | Dex_core.Dex.Two_step -> p.two_step <- p.two_step + 1
          | Dex_core.Dex.Underlying -> ());
          p.last_commit <- t
        end
  end

let read_conn g c =
  match Unix.read c.fd g.rbuf 0 (Bytes.length g.rbuf) with
  | 0 -> failwith "a replica closed its client connection"
  | k -> List.iter (on_reply g) (Frame.Reader.feed c.reader g.rbuf k)

let poll g timeout =
  let fds = Array.to_list (Array.map (fun c -> c.fd) g.conns) in
  match Unix.select fds [] [] timeout with
  | ready, _, _ -> Array.iter (fun c -> if List.memq c.fd ready then read_conn g c) g.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Blocking writes, one per connection per loop turn: the replicas' reactors
   never block on their side, so this cannot deadlock, and a slow write
   shows up as generator lateness. *)
let flush g =
  Array.iter
    (fun c ->
      let len = Buffer.length c.out in
      if len > 0 then begin
        let s = Buffer.contents c.out in
        Buffer.clear c.out;
        let rec go off = if off < len then go (off + Unix.write_substring c.fd s off (len - off)) in
        go 0
      end)
    g.conns

let send_all g frame = Array.iter (fun c -> Buffer.add_string c.out frame) g.conns

(* Hand due requests to free clients. *)
let assign g =
  while (not (Queue.is_empty g.waiting)) && not (Queue.is_empty g.free) do
    let due, (cmd, key) = Queue.pop g.waiting in
    let c = g.clients.(Queue.pop g.free) in
    let t = now () in
    c.rid <- c.rid + 1;
    c.pending <- true;
    c.counted <- true;
    c.due <- due;
    c.sent <- t;
    c.key <- key;
    let req = { Wire.client = c.id; rid = c.rid; command = cmd } in
    if g.keep > 0 && List.compare_length_with g.sent_reqs g.keep < 0 then
      g.sent_reqs <- req :: g.sent_reqs;
    c.frame <- Frame.to_string Wire.request_codec req;
    send_all g c.frame;
    Option.iter (bump g.issued) key;
    g.in_flight <- g.in_flight + 1;
    Fbuf.push g.phase.late_ms ((t -. due) *. 1000.0)
  done

(* Idempotent retransmission ((client, rid) dedupe) of requests unanswered
   for [after] seconds — covers Busy answers and lost proposals. *)
let retransmit g ~after =
  let t = now () in
  Array.iter
    (fun c ->
      if c.pending && t -. c.sent > after then begin
        c.sent <- t;
        send_all g c.frame
      end)
    g.clients

let retry_after = 5.0

(* End a phase: whatever is still unanswered failed. A client whose request
   is unanswered stays reserved until a late reply frees it, so it never
   carries two outstanding requests. *)
let close_phase g =
  Queue.clear g.waiting;
  Array.iter (fun c -> c.counted <- false) g.clients;
  g.in_flight <- 0

(* The driving loop shared by open- and closed-loop phases: [admit t] queues
   whatever became due by [t] and returns the next due time (infinity when
   nothing more will arrive); [finished ()] ends the phase early. *)
let drive g ~admit ~finished ~deadline =
  let last_check = ref (now ()) in
  let rec loop () =
    let t = now () in
    if t < deadline && not (finished ()) then begin
      let next_due = admit t in
      assign g;
      if t -. !last_check > 0.1 then begin
        last_check := t;
        retransmit g ~after:retry_after
      end;
      flush g;
      let wait = Float.min 0.005 (next_due -. now ()) in
      poll g (Float.max 0.0 wait);
      loop ()
    end
  in
  loop ();
  close_phase g

(* Open loop at [rate] req/s for [duration] s, then up to [drain] s for the
   stragglers. *)
let run_open g ~next ~seed ~rate ~duration ~drain =
  let dues = arrivals ~seed ~rate ~duration in
  let p = new_phase () in
  g.phase <- p;
  let t0 = now () in
  p.started <- t0;
  let n = Array.length dues in
  let i = ref 0 in
  let admit t =
    while !i < n && t0 +. dues.(!i) <= t do
      Queue.push (t0 +. dues.(!i), next ()) g.waiting;
      p.attempted <- p.attempted + 1;
      incr i
    done;
    if !i < n then t0 +. dues.(!i) else infinity
  in
  let finished () = !i >= n && Queue.is_empty g.waiting && g.in_flight = 0 in
  drive g ~admit ~finished ~deadline:(t0 +. duration +. drain);
  p

(* Closed loop: [count] requests with at most [window] outstanding, as fast
   as they commit — a fixed job whose wall time is the metric. *)
let run_burst g ~next ~count ~window ~timeout =
  let p = new_phase () in
  g.phase <- p;
  let t0 = now () in
  p.started <- t0;
  let admit t =
    while p.attempted < count && g.in_flight + Queue.length g.waiting < window do
      Queue.push (t, next ()) g.waiting;
      p.attempted <- p.attempted + 1
    done;
    infinity
  in
  let finished () = p.attempted >= count && Queue.is_empty g.waiting && g.in_flight = 0 in
  drive g ~admit ~finished ~deadline:(t0 +. timeout);
  p

(* Collect late replies until no request is outstanding, at most [secs]. *)
let quiesce g secs =
  let until = now () +. secs in
  let pending () = Array.exists (fun c -> c.pending) g.clients in
  while now () < until && pending () do
    retransmit g ~after:retry_after;
    flush g;
    poll g 0.005
  done;
  not (pending ())

type summary = {
  rate : float;  (** offered req/s (0 for closed loop) *)
  s_attempted : int;
  s_committed : int;
  s_failed : int;
  p50_ms : float;
  tail_ms : float;
  tail_q : float;  (** the percentile [tail_ms] is (0.99 when supported) *)
  samples : int;
  fast : float;  (** one-step share of committed requests *)
  two : float;  (** two-step share *)
  late_p50_ms : float;
  late_p99_ms : float;
  s_busy : int;
}

(* One figure set over phases run at the same rate. When every phase has
   at least 200 samples, p50 and tail are trimmed means of the per-phase
   figures (the tail at the highest percentile every phase supports), so a
   host stall that hits one phase is trimmed away, not averaged in;
   otherwise all samples are pooled. *)
let summarize_all ~rate phases =
  let lat p = Fbuf.to_array p.lat_ms in
  let pooled = Array.concat (List.map lat phases) in
  let sorted = Array.copy pooled in
  Array.sort Float.compare sorted;
  let smallest = List.fold_left (fun acc p -> min acc (Fbuf.length p.lat_ms)) max_int phases in
  let p50, (tail, q) =
    if smallest >= 200 && List.length phases > 1 then begin
      let q = tail_q smallest in
      let figs = List.map (fun p -> let a = Fbuf.sorted p.lat_ms in (quantile a 0.5, quantile a q)) phases in
      (trimmed_mean (List.map fst figs), (trimmed_mean (List.map snd figs), q))
    end
    else (quantile sorted 0.5, chunked_tail pooled)
  in
  let late = Array.concat (List.map (fun p -> Fbuf.to_array p.late_ms) phases) in
  Array.sort Float.compare late;
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 phases in
  let committed = sum (fun p -> p.committed) and attempted = sum (fun p -> p.attempted) in
  {
    rate;
    s_attempted = attempted;
    s_committed = committed;
    s_failed = attempted - committed;
    p50_ms = p50;
    tail_ms = tail;
    tail_q = q;
    samples = Array.length pooled;
    fast = idiv (sum (fun p -> p.one_step)) committed;
    two = idiv (sum (fun p -> p.two_step)) committed;
    late_p50_ms = quantile late 0.5;
    late_p99_ms = quantile late (tail_q (Array.length late));
    s_busy = sum (fun p -> p.busy);
  }

let summarize ~rate p = summarize_all ~rate [ p ]

let summary_json s =
  Printf.sprintf
    "{\"rate\": %.1f, \"attempted\": %d, \"committed\": %d, \"failed\": %d, \"p50_ms\": %.4f, \
     \"tail_ms\": %.4f, \"tail_q\": %.4f, \"samples\": %d, \"one_step\": %.4f, \"two_step\": %.4f, \
     \"late_p50_ms\": %.4f, \"late_tail_ms\": %.4f, \"busy\": %d}"
    s.rate s.s_attempted s.s_committed s.s_failed s.p50_ms s.tail_ms s.tail_q s.samples s.fast s.two
    s.late_p50_ms s.late_p99_ms s.s_busy
