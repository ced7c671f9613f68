open Dex_net
open Dex_runtime

module Registry = Dex_metrics.Registry

type role = Correct | Mute | Equivocator | Churn

module Make (L : Dex_core.Protocol_lane.LANE) = struct
  (* The replica is a state machine with no I/O; this module is its shell. *)
  module R = Replica.Make (L)
  include R

  (* ----------------------------- the shell ------------------------------ *)

  type t = {
    replica : R.t;
    me : Pid.t;
    cfg : config;
    transport : smsg Transport.t;
    loop : Reactor.t;
        (* the replica's only thread: consensus, peer sockets, clients,
           timers, WAL syncer; the deployment's, so a restart lands on it *)
    conns : (int, Reactor.Conn.t) Hashtbl.t;  (* client -> latest reply connection *)
    dirty : (Unix.file_descr, Reactor.Conn.t) Hashtbl.t;
        (* connections with unpumped replies, pumped once per step: one
           coalesced [write] instead of a reactor loop turn *)
    mutable client_conns : Reactor.Conn.t list;
    mutable running : bool;
    mutable listener : Unix.file_descr option;
    mutable batch_timer : Reactor.timer option;
    (* The outstanding one-shot cut timer, so [stop_service] can cancel it:
       the loop may outlive this replica incarnation (crash/restart under a
       shared loop), and an orphaned cut must not step a dead — or worse,
       restarted — instance. *)
    mutable cut_timer : Reactor.timer option;
    g_client_hwm : Registry.gauge;  (* high-water mark of client write buffers (bytes) *)
  }

  (* [conns] holds the most recent connection a client spoke on. A dead
     client costs a silent drop. *)
  let send_reply t (r : Wire.reply) =
    match Hashtbl.find_opt t.conns r.Wire.client with
    | None -> ()
    | Some c ->
      if Reactor.Conn.is_open c then begin
        Reactor.Conn.buffer c (Dex_codec.Codec.Frame.to_string Wire.reply_codec r);
        Hashtbl.replace t.dirty (Reactor.Conn.fd c) c
      end
      else Hashtbl.remove t.conns r.Wire.client

  (* One step of the replica, at the wall clock, with its effects carried
     out on the loop: replies buffered and pumped once, the cut armed, the
     release hop sent over the transport. Returns the protocol actions. *)
  let rec run t event =
    let actions =
      List.filter_map
        (function
          | Act a -> Some a
          | Reply r ->
            send_reply t r;
            None
          | Arm_cut delay ->
            t.cut_timer <-
              Some
                (Reactor.after t.loop delay (fun () ->
                     t.cut_timer <- None;
                     if t.running then feed t Cut));
            None
          | Via_transport (dst, m) ->
            t.transport.Transport.send ~src:t.me ~dst m;
            None)
        (R.step t.replica ~now:(Unix.gettimeofday ()) event)
    in
    Hashtbl.iter (fun _ c -> Reactor.Conn.pump c) t.dirty;
    Hashtbl.reset t.dirty;
    actions

  (* The events the shell raises itself touch no protocol instance, so
     they yield no protocol action ({!Replica.Make.step}). *)
  and feed t event = assert (run t event = [])

  (* What [Cluster] runs on the loop: every callback is one step. *)
  let instance t =
    { Protocol.start = (fun () -> run t Start);
      on_message = (fun ~now:_ ~from m -> run t (Message (from, m))) }

  (* A replica and its shell, on a loop the deployment owns. *)
  let replica ?catchup cfg ~me ~transport ~loop =
    let r = R.create ?catchup cfg ~me ~now:(Unix.gettimeofday ()) in
    let metrics = R.metrics r in
    let t =
      { replica = r; me; cfg; transport; loop; conns = Hashtbl.create 64;
        dirty = Hashtbl.create 8; client_conns = []; running = false;
        listener = None; batch_timer = None; cut_timer = None;
        g_client_hwm = Registry.gauge metrics "service/client_wbuf_hwm" }
    in
    if cfg.group_commit then
      Durability_lane.start_group_commit ~reactor:loop (R.lane r) ~delay:cfg.sync_delay
        ~cap:cfg.sync_cap ~on_durable:(fun watermark -> feed t (Durable watermark));
    (t, instance t)

  (* ----------------------------- the service ----------------------------- *)

  let conn_closed t conn = t.client_conns <- List.filter (fun c -> c != conn) t.client_conns

  (* Accepted client connection: incremental request reassembly straight
     into [Request] steps, replies through the connection's coalescing
     write queue. A malformed frame raises out of [Reader.feed], and the reactor
     tears down exactly this client. *)
  let attach_client t sock =
    (try Unix.setsockopt sock Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let reader = Dex_codec.Codec.Frame.Reader.create Wire.request_codec in
    let cell = ref None in
    let on_bytes buf len =
      let reqs = Dex_codec.Codec.Frame.Reader.feed reader buf len in
      match !cell with
      | None -> ()
      | Some c ->
        List.iter
          (fun (req : Wire.request) ->
            Hashtbl.replace t.conns req.Wire.client c;
            feed t (Request req))
          reqs
    in
    let on_close () = match !cell with Some c -> conn_closed t c | None -> () in
    match Reactor.Conn.attach t.loop sock ~on_bytes ~on_close with
    | c ->
      cell := Some c;
      t.client_conns <- c :: t.client_conns
    | exception Invalid_argument msg ->
      prerr_endline msg;
      (try Unix.close sock with Unix.Unix_error _ -> ())

  let accept_ready t sock () =
    let rec loop () =
      match Unix.accept sock with
      | conn, _ ->
        attach_client t conn;
        loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
    in
    loop ()

  let reactor_tick t =
    feed t Tick;
    List.iter (fun c -> Registry.set_max t.g_client_hwm (Reactor.Conn.hwm c)) t.client_conns

  (* --- lifecycle --- *)

  let start_service ?(port = 0) t =
    Reactor.call t.loop @@ fun () ->
    if t.running then invalid_arg "Server.start_service: already running";
    t.running <- true;
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen sock 64;
    let bound =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    t.listener <- Some sock;
    let r = t.loop in
    Unix.set_nonblock sock;
    t.batch_timer <- Some (Reactor.every r t.cfg.batch_delay (fun () -> reactor_tick t));
    Reactor.on_readable r sock (accept_ready t sock);
    bound

  (* Runs on the replica's loop: cancel the service timers, close the
     listener and every client connection. *)
  let stop_service t =
    let r = t.loop in
    if t.running then begin
      t.running <- false;
      Option.iter (Reactor.cancel r) t.batch_timer;
      t.batch_timer <- None;
      Option.iter (Reactor.cancel r) t.cut_timer;
      t.cut_timer <- None;
      (match t.listener with
      | Some sock ->
        Reactor.remove r sock;
        (* Shut down before closing, so a restart can rebind the port at
           once. *)
        (try Unix.shutdown sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        (try Unix.close sock with Unix.Unix_error _ -> ())
      | None -> ());
      List.iter Reactor.Conn.close t.client_conns;
      t.client_conns <- []
    end

  (* Service and WAL go down on the replica's own loop, so nothing of the
     replica runs beside the teardown. The loop stays up: it still serves
     the pid's transport endpoint, and a restart runs on it. *)
  let teardown t close_wal =
    Reactor.call t.loop (fun () ->
        stop_service t;
        close_wal (R.lane t.replica))

  let stop t = teardown t Durability_lane.stop

  let crash t = teardown t Durability_lane.crash

  (* ------------------------------ observation ----------------------------- *)

  (* Getters for other threads: each reads on the replica's loop (or
     directly once that loop has stopped). *)
  let on_loop t f = Reactor.call t.loop (fun () -> f t.replica)

  let stats t = on_loop t R.stats

  let catching_up t = on_loop t R.catching_up

  let apply_frontier t = on_loop t R.apply_frontier

  let commit_log t = on_loop t R.commit_log

  let state_snapshot t = on_loop t R.state_snapshot

  let state_digest t = on_loop t R.state_digest

  let metrics t = R.metrics t.replica

  let wal_stats t = R.wal_stats t.replica

  let durable_lsn t = R.durable_lsn t.replica

  (* ------------------------- Byzantine behaviours ------------------------- *)

  (* A digest equivocator: for every slot it sees, it sends half the peers
     the digest of a synthetic (but valid, disclosable) chaff batch and the
     other half the empty digest, on both decision lanes — the attack IDB is
     designed to blunt, lifted to the service layer. It answers fetches for
     its chaff so that a slot it manages to win still resolves everywhere
     (external validity is assumed, not enforced; see the interface). It
     never answers the durability lanes: a recovering replica gets nothing
     from it (which the [t+1] vote rule absorbs). *)
  let equivocator cfg ~me =
    let by_slot : (int, Batch.t) Hashtbl.t = Hashtbl.create 64 in
    let by_digest : (int, Batch.t) Hashtbl.t = Hashtbl.create 64 in
    let chaff slot =
      match Hashtbl.find_opt by_slot slot with
      | Some b -> b
      | None ->
        let b =
          Batch.canonical
            [ { Wire.client = 1_000_000 + me; rid = slot; command = State_machine.Nop } ]
        in
        Hashtbl.replace by_slot slot b;
        Hashtbl.replace by_digest (Batch.digest b) b;
        b
    in
    let split ~slot dst = if dst land 1 = 0 then Batch.digest (chaff slot) else Batch.empty_digest in
    let log_inst = Log.equivocator (log_config cfg) ~me ~split in
    let lift actions = Protocol.map_actions (fun m -> Log_msg m) actions in
    let start () = lift (log_inst.Protocol.start ()) in
    let on_message ~now ~from m =
      match m with
      | Log_msg lm -> lift (log_inst.Protocol.on_message ~now ~from lm)
      | Fetch (digest, _) -> (
        match Hashtbl.find_opt by_digest digest with
        | Some batch -> [ Protocol.Send (from, Batch_payload (digest, batch)) ]
        | None -> [])
      | Batch_payload _ | Truncated _ | Catch_up _ | Slot_commit _ | Catch_up_done _
      | Snapshot_fetch _ | Snapshot_payload _ | Frag_request _ | Frag_payload _
      | Snapshot_frag _ | Snapshot_fetch_full _ ->
        (* The equivocator never serves fragments: its chaff resolves over
           the full-fetch lane it does answer, exercising the coded lane's
           fallback path under Byzantine load. *)
        []
    in
    { Protocol.start; on_message }

  (* ------------------------------ deployment ------------------------------ *)

  (* The loopback mesh a deployment (or a whole group set) runs on: a
     primary [mesh] loop, whose gauges land in [net_metrics] and which hosts
     the transport's reconnect timers and the nodes that are not replicas,
     plus one loop per replica index. Global pid [p] is replica
     [p mod stride] of group [p / stride]; every group's replica [j] reads
     its frames and owns its outbound connections on loop [j], where its
     consensus runs too, so a peer frame never changes threads and a step's
     frames to one peer leave in one [write] at the end of the loop turn. *)
  type mesh = {
    mesh_transport : smsg Transport.t;
    mesh_loop : Reactor.t;
    replica_loops : Reactor.t array;
    loop_metrics : Registry.t array;
  }

  let loop_per_replica n =
    let metrics = Array.init n (fun _ -> Registry.create ()) in
    let loops =
      Array.init n (fun j ->
          Reactor.create ~metrics:metrics.(j) ~name:(Printf.sprintf "replica-%d" j) ())
    in
    (loops, metrics)

  let mesh ?faults ~net_metrics ~replicas ~stride ~groups () =
    let mesh_loop = Reactor.create ~metrics:net_metrics ~name:"mesh" () in
    let loops, loop_metrics = loop_per_replica replicas in
    let reactor_for pid = if pid mod stride < replicas then loops.(pid mod stride) else mesh_loop in
    let mesh_transport =
      Transport.Tcp_codec.create ~codec:smsg_codec ~metrics:net_metrics ?faults ~reactor:mesh_loop
        ~reactor_for ~pids:(List.init (groups * stride) Fun.id) ()
    in
    { mesh_transport; mesh_loop; replica_loops = loops; loop_metrics }

  (* A runtime lent to a deployment instead of letting [launch] build its
     own: a pid-namespaced transport view onto a bigger shared mesh
     ({!Transport.offset}), the registry that mesh reports into, the mesh
     loop, and a selector giving each replica index its loop. Everything
     here is borrowed — the lender (a sharded group set) stops loops and
     closes the real mesh after every borrowing deployment is down. *)
  type shared_runtime = {
    sr_transport : smsg Transport.t;
    sr_net_metrics : Registry.t;
    sr_net_reactor : Reactor.t option;
    sr_service_loop_for : (Pid.t -> Reactor.t) option;
  }

  type deployment = {
    dcfg : config;
    cluster : smsg Cluster.t;
    transport : smsg Transport.t;
    net_metrics : Registry.t;
        (* deployment-wide registry holding the transport's [net/*] counters *)
    net_reactor : Reactor.t option;
        (* the primary mesh loop, shared by the transport's timers and the
           nodes that are not replicas; a lent runtime may supply none *)
    loops : Reactor.t array;
        (* replica pid's loop; a restart lands on the same one *)
    loop_metrics : Registry.t array;
        (* [reactor/*] gauges of [loops], when [launch] built them *)
    owned_loops : Reactor.t list;
        (* the loops [launch] built, stopped by [shutdown]; none when a
           lender supplies them *)
    mutable servers : (Pid.t * t) list;
    ports : (Pid.t * int) list;
    mutable dead : (Pid.t * t) list;
    chaos : Fault_plan.t option;
        (* the plan the mesh transport is wrapped with; clock re-armed at
           cluster start so cut windows are deployment-relative *)
    churn_cells : (Pid.t * Adversary.churn_mode ref) list;
        (* live mode cell per [Churn]-role replica *)
  }

  let launch ?(roles = fun _ -> Correct) ?chaos ?(port_base = 0) ?runtime cfg =
    let lcfg = log_config cfg in
    let extra =
      List.map
        (fun (pid, inst) ->
          ( pid,
            Protocol.embed
              ~inject:(fun m -> Log_msg m)
              ~project:(function Log_msg m -> Some m | _ -> None)
              inst ))
        (Log.extra lcfg)
    in
    let pids = Pid.all ~n:cfg.n @ List.map fst extra in
    let net_metrics, net_reactor, transport, loops, loop_metrics, owned_loops =
      match runtime with
      | None ->
        let net_metrics = Registry.create () in
        let m =
          mesh ?faults:chaos ~net_metrics ~replicas:cfg.n ~stride:(List.length pids) ~groups:1 ()
        in
        ( net_metrics, Some m.mesh_loop, m.mesh_transport, m.replica_loops, m.loop_metrics,
          m.mesh_loop :: Array.to_list m.replica_loops )
      | Some rt ->
        (* Borrowed mesh: wrap only this deployment's pid-namespaced view
           with the fault plan, so chaos on one shard never touches the
           links of the groups sharing the mesh (blast-radius isolation). *)
        let transport =
          match chaos with
          | Some plan -> Transport.with_faults plan rt.sr_transport
          | None -> rt.sr_transport
        in
        let loops, loop_metrics, owned_loops =
          match rt.sr_service_loop_for with
          | Some f -> (Array.init cfg.n f, [||], [])
          | None ->
            let loops, metrics = loop_per_replica cfg.n in
            (loops, metrics, Array.to_list loops)
        in
        (rt.sr_net_metrics, rt.sr_net_reactor, transport, loops, loop_metrics, owned_loops)
    in
    let servers = ref [] in
    let churn_cells = ref [] in
    (* Each replica's consensus runs on its own loop; the other
       nodes (UC auxiliaries, mute and equivocating replicas) run on the
       mesh loop. *)
    let make p =
      let new_replica () = replica cfg ~me:p ~transport ~loop:loops.(p) in
      match roles p with
      | Correct ->
        let t, inst = new_replica () in
        servers := (p, t) :: !servers;
        inst
      | Mute -> Adversary.silent ()
      | Equivocator -> equivocator cfg ~me:p
      | Churn ->
        (* A full correct replica whose emissions pass through a
           runtime-flippable churn filter. It serves clients and keeps an
           honest commit log in every mode (churn only suppresses or
           stale-replays its own sends), so it stays in [servers] and in
           the agreement check. *)
        let t, inst = new_replica () in
        servers := (p, t) :: !servers;
        let cell = ref Adversary.Churn_honest in
        churn_cells := (p, cell) :: !churn_cells;
        Adversary.churn ~mode:(fun ~step:_ -> !cell) inst
    in
    let cluster =
      Cluster.create ~transport ~n:cfg.n ~extra ?reactor:net_reactor
        ~loop_for:(fun p -> Option.map (fun s -> s.loop) (List.assoc_opt p !servers))
        make
    in
    let servers = List.rev !servers in
    Option.iter Fault_plan.reset_clock chaos;
    Cluster.start cluster;
    let ports =
      List.mapi
        (fun i (p, s) ->
          (p, start_service ~port:(if port_base = 0 then 0 else port_base + i) s))
        servers
    in
    { dcfg = cfg; cluster; transport; net_metrics; net_reactor; loops; loop_metrics; owned_loops;
      servers; ports; dead = []; chaos; churn_cells = List.rev !churn_cells }

  let set_churn_mode d pid mode =
    match List.assoc_opt pid d.churn_cells with
    | Some cell -> cell := mode
    | None -> invalid_arg "Server.set_churn_mode: pid was not launched with role Churn"

  let kill_replica d pid =
    match List.assoc_opt pid d.servers with
    | None -> invalid_arg "Server.kill_replica: not a live correct replica"
    | Some s ->
      (* Quiesce consensus first so nothing touches the abandoned WAL; then
         crash the service (no final sync — this simulates power loss, not
         a clean stop). The transport endpoint stays up. *)
      Cluster.stop_node d.cluster pid;
      crash s;
      d.servers <- List.remove_assoc pid d.servers;
      d.dead <- (pid, s) :: d.dead

  let restart_replica d pid =
    if not (List.mem_assoc pid d.dead) then
      invalid_arg "Server.restart_replica: pid was not killed";
    if List.mem_assoc pid d.servers then
      invalid_arg "Server.restart_replica: already running";
    (* [catchup:true]: even a replica that lost its whole data dir must ask
       the peers where the log stands before taking client traffic. *)
    let t, inst = replica ~catchup:true d.dcfg ~me:pid ~transport:d.transport ~loop:d.loops.(pid) in
    Cluster.start_node d.cluster pid ~loop:t.loop inst;
    let port = List.assoc pid d.ports in
    ignore (start_service ~port t);
    d.servers <- d.servers @ [ (pid, t) ];
    t

  (* Merge the plan's storm and churn schedules and execute them in time
     order against the live deployment, sleeping on the caller's thread
     between events. Plan times are relative to the plan clock, which
     [launch] re-armed as the cluster started. *)
  let run_chaos_schedule d =
    match d.chaos with
    | None -> ()
    | Some plan ->
      let spec = Fault_plan.spec plan in
      let events =
        List.map
          (fun e -> (e.Fault_plan.s_at, `Storm (e.Fault_plan.s_pid, e.Fault_plan.s_action)))
          spec.Fault_plan.storm
        @ List.map
            (fun e -> (e.Fault_plan.c_at, `Churn (e.Fault_plan.c_pid, e.Fault_plan.c_mode)))
            spec.Fault_plan.churn
      in
      let events = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) events in
      List.iter
        (fun (at, ev) ->
          let wait = at -. Fault_plan.elapsed plan in
          if wait > 0.0 then Thread.delay wait;
          match ev with
          | `Storm (pid, Fault_plan.Kill) -> kill_replica d pid
          | `Storm (pid, Fault_plan.Restart) -> ignore (restart_replica d pid)
          | `Churn (pid, mode) -> set_churn_mode d pid mode)
        events

  let shutdown d =
    (* Consensus first, like [kill_replica]: a replica that applies a slot
       after its WAL is closed raises. With a borrowed runtime this closes
       only the pid-namespaced view (a no-op) — the real mesh stays up for
       the other groups sharing it, and the lender closes it after the last
       of them shuts down. *)
    Cluster.shutdown d.cluster;
    List.iter (fun (_, s) -> stop s) d.servers;
    List.iter Reactor.stop d.owned_loops

  (* Agreement check across the correct replicas of a deployment — killed
     replicas' pre-crash (and recovered) commit logs included: a slot a
     replica acknowledged before dying must agree with what the survivors
     committed. For every slot committed by at least two replicas, the
     committed digests must be equal. Returns the number of compared slots
     and the violations. *)
  let agreement_violations d =
    let per_slot : (int, (Pid.t * int) list) Hashtbl.t = Hashtbl.create 1024 in
    List.iter
      (fun (p, s) ->
        List.iter
          (fun (slot, digest, _) ->
            Hashtbl.replace per_slot slot
              ((p, digest) :: Option.value ~default:[] (Hashtbl.find_opt per_slot slot)))
          (commit_log s))
      (d.servers @ d.dead);
    Hashtbl.fold
      (fun slot entries (compared, violations) ->
        match entries with
        | [] | [ _ ] -> (compared, violations)
        | (_, d0) :: rest ->
          ( compared + 1,
            if List.for_all (fun (_, dx) -> dx = d0) rest then violations
            else (slot, entries) :: violations ))
      per_slot (0, [])
end
