open Dex_runtime

(* One event-driven connection per replica on the client's own reactor:
   frames reassembled incrementally, writes coalesced. *)
type t = {
  client : int;
  conns : Reactor.Conn.t list;
  inbox : Wire.reply Mailbox.t;
  reactor : Reactor.t;  (* owned *)
  mutable next_rid : int;
  mutable closed : bool;
}

let dial r ~on_reply port =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> None
  | sock -> (
    let frames = Dex_codec.Codec.Frame.Reader.create Wire.reply_codec in
    let on_bytes buf len = List.iter on_reply (Dex_codec.Codec.Frame.Reader.feed frames buf len) in
    match
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt sock Unix.TCP_NODELAY true;
      Reactor.Conn.attach r sock ~on_bytes ~on_close:(fun () -> ())
    with
    | c -> Some c
    | exception (Unix.Unix_error _ | Invalid_argument _) ->
      (* [attach] refuses descriptors the reactor cannot select on; the
         socket is still ours to close. *)
      (try Unix.close sock with Unix.Unix_error _ -> ());
      None)

let connect ~client ports =
  if ports = [] then invalid_arg "Client.connect: no server ports";
  let reactor = Reactor.create ~name:"client" () in
  let inbox = Mailbox.create () in
  let conns = List.filter_map (dial reactor ~on_reply:(Mailbox.push inbox)) ports in
  if conns = [] then begin
    Reactor.stop reactor;
    invalid_arg "Client.connect: no server reachable"
  end;
  { client; conns; inbox; reactor; next_rid = 0; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    Mailbox.close t.inbox;
    List.iter Reactor.Conn.close t.conns;
    Reactor.stop t.reactor
  end

type result = {
  output : State_machine.output;
  slot : int;
  provenance : Dex_core.Dex.provenance;
  latency : float;
  retries : int;
}

(* Buffered write of one request to every live connection; pair with
   [flush_all] once per wave, which pumps the wave out coalesced, from this
   thread, in one [write] per connection. *)
let write_all t req =
  let frame = Dex_codec.Codec.Frame.to_string Wire.request_codec req in
  List.iter (fun c -> if Reactor.Conn.is_open c then Reactor.Conn.buffer c frame) t.conns

let flush_all t = List.iter (fun c -> if Reactor.Conn.is_open c then Reactor.Conn.pump c) t.conns

let send_all t req =
  write_all t req;
  flush_all t

(* Submit-to-all, first-commit-wins. Replies for older rids (every replica
   answers every request it applies) are drained and ignored; [Busy] from a
   loaded replica is not terminal — another replica may still commit the
   request, so the attempt keeps waiting until its timeout before
   retransmitting. Retransmits are idempotent by the session dedupe. *)
let submit ?(timeout = 1.0) ?(attempts = 5) t command =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  let req = { Wire.client = t.client; rid; command } in
  let started = Unix.gettimeofday () in
  let rec attempt k =
    if k >= attempts then None
    else begin
      send_all t req;
      let deadline = Unix.gettimeofday () +. timeout in
      wait k deadline
    end
  and wait k deadline =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then attempt (k + 1)
    else
      match Mailbox.pop ~timeout:remaining t.inbox with
      | None -> attempt (k + 1)
      | Some (reply : Wire.reply) ->
        if reply.Wire.rid <> rid then wait k deadline
        else begin
          match reply.Wire.outcome with
          | Wire.Busy -> wait k deadline
          | Wire.Applied { output; slot; provenance } ->
            Some
              {
                output;
                slot;
                provenance;
                latency = Unix.gettimeofday () -. started;
                retries = k;
              }
        end
  in
  attempt 0

module Load = struct
  type report = {
    issued : int;
    committed : int;
    failed : int;
    duration : float;
    throughput : float;
    latency : Dex_metrics.Stats.summary option;
    latency_hist : Dex_metrics.Histogram.t;
    one_step : int;
    two_step : int;
    underlying : int;
    retries : int;
  }

  (* Latency histogram key: log2 of the latency in microseconds — a compact
     multi-decade resolution (key 10 ≈ 1 ms, key 20 ≈ 1 s). *)
  let latency_key seconds =
    let us = int_of_float (seconds *. 1e6) in
    if us <= 1 then 0
    else
      let rec bits n acc = if n <= 1 then acc else bits (n lsr 1) (acc + 1) in
      bits us 0

  let finalize ~issued ~duration ~latencies ~hist ~prov ~retries ~failed =
    let one, two, uc = prov in
    let committed = List.length latencies in
    {
      issued;
      committed;
      failed;
      duration;
      throughput = (if duration > 0.0 then float_of_int committed /. duration else 0.0);
      latency =
        (if latencies = [] then None
         else Some (Dex_metrics.Stats.summarize (List.map (fun l -> l *. 1e3) latencies)));
      latency_hist = hist;
      one_step = one;
      two_step = two;
      underlying = uc;
      retries;
    }

  (* Closed loop: one outstanding request; issue the next the moment the
     previous commits. [pace] turns it into a fixed-rate open(ish) loop:
     request [i] is not issued before [start + i * pace] (still one
     outstanding — a cheap approximation that bounds, rather than measures,
     queueing effects). *)
  let run ?(pace = 0.0) ?(timeout = 1.0) ?(attempts = 5) ~duration t workload =
    let hist = Dex_metrics.Histogram.create () in
    let latencies = ref [] in
    let one = ref 0 and two = ref 0 and uc = ref 0 in
    let retries = ref 0 and failed = ref 0 and issued = ref 0 in
    let started = Unix.gettimeofday () in
    let deadline = started +. duration in
    let i = ref 0 in
    while Unix.gettimeofday () < deadline do
      if pace > 0.0 then begin
        let due = started +. (float_of_int !i *. pace) in
        let now = Unix.gettimeofday () in
        if due > now then Thread.delay (min (due -. now) (deadline -. now))
      end;
      if Unix.gettimeofday () < deadline then begin
        incr issued;
        (match submit ~timeout ~attempts t (workload !i) with
        | None -> incr failed
        | Some r ->
          latencies := r.latency :: !latencies;
          Dex_metrics.Histogram.add hist (latency_key r.latency);
          retries := !retries + r.retries;
          (match r.provenance with
          | Dex_core.Dex.One_step -> incr one
          | Dex_core.Dex.Two_step -> incr two
          | Dex_core.Dex.Underlying -> incr uc));
        incr i
      end
    done;
    let wall = Unix.gettimeofday () -. started in
    finalize ~issued:!issued ~duration:wall ~latencies:!latencies ~hist
      ~prov:(!one, !two, !uc) ~retries:!retries ~failed:!failed

  let pp_report ppf r =
    Format.fprintf ppf
      "@[<v>issued %d, committed %d, failed %d in %.2fs — %.0f ops/s@,\
       provenance: one-step %d, two-step %d, underlying %d (retransmits %d)@,%a@]"
      r.issued r.committed r.failed r.duration r.throughput r.one_step r.two_step
      r.underlying r.retries
      (fun ppf -> function
        | None -> Format.fprintf ppf "latency: n/a"
        | Some s ->
          Format.fprintf ppf "latency ms: p50 %.2f p90 %.2f p99 %.2f max %.2f" s.Dex_metrics.Stats.p50
            s.p90 s.p99 s.max)
      r.latency
end
