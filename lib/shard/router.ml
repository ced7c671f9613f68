open Dex_runtime
open Dex_service

(* ------------------------------ dedupe core ------------------------------ *)

module Dedupe = struct
  (* One session per client: the shard its live rid was dispatched to, and
     the watermark of settled rids. Closed-loop clients issue rids in order,
     so a single integer watermark is the whole history. *)
  type session = { mutable owner : int; mutable owner_rid : int; mutable settled : int }

  type t = {
    sessions : (int, session) Hashtbl.t;
    mutable duplicates : int;
    mutable misroutes : int;
  }

  let create () = { sessions = Hashtbl.create 256; duplicates = 0; misroutes = 0 }

  let session t client =
    match Hashtbl.find_opt t.sessions client with
    | Some s -> s
    | None ->
      let s = { owner = -1; owner_rid = -1; settled = -1 } in
      Hashtbl.replace t.sessions client s;
      s

  let route t ~client ~rid ~shard =
    let s = session t client in
    if rid > s.owner_rid then begin
      s.owner <- shard;
      s.owner_rid <- rid
    end

  let settle t ~client ~rid ~shard =
    let s = session t client in
    if rid <= s.settled then begin
      t.duplicates <- t.duplicates + 1;
      `Duplicate
    end
    else if rid = s.owner_rid && shard <> s.owner then begin
      t.misroutes <- t.misroutes + 1;
      `Misrouted
    end
    else begin
      s.settled <- max s.settled rid;
      `First
    end

  let duplicates t = t.duplicates

  let misroutes t = t.misroutes
end

(* ----------------------------- connections ------------------------------ *)

(* Same connection shape as [Client]: event-driven connections on the
   router's single reactor. The difference is fan-in: replies from every
   shard's every replica merge into one inbox, tagged with the shard they
   came from. *)
type t = {
  map : Shard_map.t;
  client : int;
  shards : Reactor.Conn.t list array;  (* index = shard, one conn per replica port *)
  inbox : (int * Wire.reply) Mailbox.t;
  reactor : Reactor.t;  (* owned *)
  dedupe : Dedupe.t;
  next_rids : (int, int) Hashtbl.t;
      (* next rid per logical client — router-level, not per load run, so a
         second run on the same router keeps issuing fresh rids (a reset
         would replay settled rids, which the dedupe watermark — correctly
         — refuses to count again) *)
  mutable closed : bool;
}

let next_rid t cid =
  let r = Option.value ~default:0 (Hashtbl.find_opt t.next_rids cid) in
  Hashtbl.replace t.next_rids cid (r + 1);
  r

let connect ~map ~client ports_per_shard =
  let k = Shard_map.shards map in
  if List.length ports_per_shard <> k then
    invalid_arg "Router.connect: one port list per shard required";
  let reactor = Reactor.create ~name:"router" () in
  let inbox = Mailbox.create () in
  let dial shard = Client.dial reactor ~on_reply:(fun reply -> Mailbox.push inbox (shard, reply)) in
  let shards =
    Array.of_list (List.mapi (fun i ports -> List.filter_map (dial i) ports) ports_per_shard)
  in
  if Array.exists (fun conns -> conns = []) shards then begin
    Array.iter (List.iter Reactor.Conn.close) shards;
    Reactor.stop reactor;
    invalid_arg "Router.connect: a shard has no reachable replica"
  end;
  { map; client; shards; inbox; reactor; dedupe = Dedupe.create ();
    next_rids = Hashtbl.create 256; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    Mailbox.close t.inbox;
    Array.iter (List.iter Reactor.Conn.close) t.shards;
    Reactor.stop t.reactor
  end

let map t = t.map

let dedupe t = t.dedupe

(* ------------------------------ submission ------------------------------ *)

(* Submit-to-all {e within the owning shard}: the request reaches every
   replica of exactly one group, never its neighbours. *)
let write_shard t shard req =
  let frame = Dex_codec.Codec.Frame.to_string Wire.request_codec req in
  List.iter (fun c -> if Reactor.Conn.is_open c then Reactor.Conn.buffer c frame) t.shards.(shard)

let flush_shard t shard =
  List.iter (fun c -> if Reactor.Conn.is_open c then Reactor.Conn.pump c) t.shards.(shard)

let flush_all t = Array.iteri (fun shard _ -> flush_shard t shard) t.shards

let submit ?(timeout = 1.0) ?(attempts = 5) t command =
  let rid = next_rid t t.client in
  let req = { Wire.client = t.client; rid; command } in
  let shard = Shard_map.shard_of t.map req in
  Dedupe.route t.dedupe ~client:t.client ~rid ~shard;
  let started = Unix.gettimeofday () in
  let rec attempt k =
    if k >= attempts then None
    else begin
      write_shard t shard req;
      flush_shard t shard;
      wait k (Unix.gettimeofday () +. timeout)
    end
  and wait k deadline =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then attempt (k + 1)
    else
      match Mailbox.pop ~timeout:remaining t.inbox with
      | None -> attempt (k + 1)
      | Some (from_shard, (reply : Wire.reply)) ->
        if reply.Wire.rid <> rid || reply.Wire.client <> t.client then wait k deadline
        else begin
          match reply.Wire.outcome with
          | Wire.Busy -> wait k deadline
          | Wire.Applied { output; slot; provenance } -> (
            match Dedupe.settle t.dedupe ~client:t.client ~rid ~shard:from_shard with
            | `Duplicate | `Misrouted -> wait k deadline
            | `First ->
              Some
                {
                  Client.output;
                  slot;
                  provenance;
                  latency = Unix.gettimeofday () -. started;
                  retries = k;
                })
        end
  in
  attempt 0

(* ---------------------------- load generation --------------------------- *)

module Load = struct
  type shard_stat = { s_issued : int; s_committed : int }

  type report = {
    agg : Client.Load.report;
    per_shard : shard_stat array;
    dup_replies : int;
    misroutes : int;
  }

  (* The throughput engine: one thread, many logical closed-loop clients
     (each keeps one outstanding request, so rid dedupe stays sound), each
     request routed by the shard map to one group and retransmitted to that
     same group; submissions triggered by one wave of replies are flushed
     together, because on a small machine the syscall budget, not the
     protocol, is the throughput ceiling. Replies from every group merge
     into the shared inbox; the dedupe core keeps the count honest (first
     commit per rid counts, replica echoes and stale replies do not). *)
  let run_many ?(clients = 64) ?(timeout = 1.0) ~duration t workload =
    if clients < 1 then invalid_arg "Router.Load.run_many: clients must be >= 1";
    let k = Array.length t.shards in
    let hist = Dex_metrics.Histogram.create () in
    let latencies = ref [] in
    let one = ref 0 and two = ref 0 and uc = ref 0 in
    let retries = ref 0 and issued = ref 0 in
    let s_issued = Array.make k 0 and s_committed = Array.make k 0 in
    (* (first-sent, last-sent, request, owning shard) *)
    let in_flight : (int * int, float * float * Wire.request * int) Hashtbl.t =
      Hashtbl.create (2 * clients)
    in
    let issue idx =
      let cid = t.client + idx in
      let rid = next_rid t cid in
      let req = { Wire.client = cid; rid; command = workload !issued } in
      incr issued;
      let shard = Shard_map.shard_of t.map req in
      s_issued.(shard) <- s_issued.(shard) + 1;
      Dedupe.route t.dedupe ~client:cid ~rid ~shard;
      let now = Unix.gettimeofday () in
      Hashtbl.replace in_flight (cid, rid) (now, now, req, shard);
      write_shard t shard req
    in
    let started = Unix.gettimeofday () in
    let deadline = started +. duration in
    let handle (from_shard, (reply : Wire.reply)) =
      match reply.Wire.outcome with
      | Wire.Busy -> ()  (* stays outstanding; the retransmit sweep covers it *)
      | Wire.Applied { output = _; slot = _; provenance } -> (
        match
          Dedupe.settle t.dedupe ~client:reply.Wire.client ~rid:reply.Wire.rid
            ~shard:from_shard
        with
        | `Duplicate | `Misrouted -> ()
        | `First -> (
          match Hashtbl.find_opt in_flight (reply.Wire.client, reply.Wire.rid) with
          | None -> ()
          | Some (start, _, _, shard) ->
            Hashtbl.remove in_flight (reply.Wire.client, reply.Wire.rid);
            s_committed.(shard) <- s_committed.(shard) + 1;
            let lat = Unix.gettimeofday () -. start in
            latencies := lat :: !latencies;
            Dex_metrics.Histogram.add hist (Client.Load.latency_key lat);
            (match provenance with
            | Dex_core.Dex.One_step -> incr one
            | Dex_core.Dex.Two_step -> incr two
            | Dex_core.Dex.Underlying -> incr uc);
            let idx = reply.Wire.client - t.client in
            if Unix.gettimeofday () < deadline then issue idx))
    in
    for idx = 0 to clients - 1 do
      issue idx
    done;
    flush_all t;
    while Unix.gettimeofday () < deadline do
      let remaining = deadline -. Unix.gettimeofday () in
      (match Mailbox.pop ~timeout:(Float.min 0.05 remaining) t.inbox with
      | Some tagged ->
        handle tagged;
        let rec drain () =
          match Mailbox.pop ~timeout:0.0 t.inbox with
          | Some tagged ->
            handle tagged;
            drain ()
          | None -> ()
        in
        drain ()
      | None ->
        (* Quiet tick: retransmit everything not (re)sent for [timeout],
           each to its pinned shard. Collect first, mutate after. *)
        let now = Unix.gettimeofday () in
        let overdue =
          Hashtbl.fold
            (fun key (start, last_sent, req, shard) acc ->
              if now -. last_sent > timeout then (key, start, req, shard) :: acc else acc)
            in_flight []
        in
        List.iter
          (fun (key, start, req, shard) ->
            incr retries;
            Hashtbl.replace in_flight key (start, now, req, shard);
            write_shard t shard req)
          overdue);
      flush_all t
    done;
    let wall = Unix.gettimeofday () -. started in
    let agg =
      Client.Load.finalize ~issued:!issued ~duration:wall ~latencies:!latencies ~hist
        ~prov:(!one, !two, !uc) ~retries:!retries ~failed:(Hashtbl.length in_flight)
    in
    {
      agg;
      per_shard =
        Array.init k (fun i -> { s_issued = s_issued.(i); s_committed = s_committed.(i) });
      dup_replies = Dedupe.duplicates t.dedupe;
      misroutes = Dedupe.misroutes t.dedupe;
    }

  let pp_report ppf r =
    Format.fprintf ppf "@[<v>%a@,shards:" Client.Load.pp_report r.agg;
    Array.iteri
      (fun i s -> Format.fprintf ppf " %d:%d/%d" i s.s_committed s.s_issued)
      r.per_shard;
    Format.fprintf ppf " (dup replies %d, misroutes %d)@]" r.dup_replies r.misroutes
end
