open Dex_net
open Dex_runtime

module Registry = Dex_metrics.Registry

type role = Correct | Mute | Equivocator | Churn

module Make (L : Dex_core.Protocol_lane.LANE) = struct
  (* The replica core — consensus callbacks, apply loop, catch-up,
     admission — assembled from the pipeline stages. This module adds the
     parts that touch sockets: the client listener, the batch timer, and
     deployment orchestration. *)
  include Replica.Make (L)

  (* ----------------------------- the service ----------------------------- *)

  let conn_closed t conn =
    Mutex.lock t.lock;
    t.client_conns <- List.filter (fun c -> c != conn) t.client_conns;
    Mutex.unlock t.lock

  (* Accepted client connection: incremental request reassembly straight
     into [handle_request], replies through the connection's coalescing
     write queue. A malformed frame raises out of [feed], and the reactor
     tears down exactly this client. *)
  let attach_client t sock =
    (try Unix.setsockopt sock Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let reader = Dex_codec.Codec.Frame.Reader.create Wire.request_codec in
    let cell = ref None in
    let on_bytes buf len =
      let reqs = Dex_codec.Codec.Frame.Reader.feed reader buf len in
      match !cell with
      | None -> ()
      | Some c -> List.iter (fun req -> handle_request t ~conn:c req) reqs
    in
    let on_close () = match !cell with Some c -> conn_closed t c | None -> () in
    match Reactor.Conn.attach t.service_reactor sock ~on_bytes ~on_close with
    | c ->
      cell := Some c;
      Mutex.lock t.lock;
      t.client_conns <- c :: t.client_conns;
      Mutex.unlock t.lock
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
    install_pending_snapshot t;
    batcher_tick t;
    Mutex.lock t.lock;
    List.iter
      (fun c -> Dex_metrics.Registry.set_max t.g_client_hwm (Reactor.Conn.hwm c))
      t.client_conns;
    Mutex.unlock t.lock

  (* --- lifecycle --- *)

  let start_service ?(port = 0) t =
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
    t.service_port <- Some bound;
    let r = t.service_reactor in
    Unix.set_nonblock sock;
    t.batch_timer <- Some (Reactor.every r t.cfg.batch_delay (fun () -> reactor_tick t));
    Reactor.on_readable r sock (accept_ready t sock);
    bound

  let service_port t = t.service_port

  let stop_service t =
    let r = t.service_reactor in
    if t.running then begin
      Mutex.lock t.lock;
      t.running <- false;
      Mutex.unlock t.lock;
      (match t.batch_timer with
      | Some timer ->
        Reactor.cancel r timer;
        t.batch_timer <- None
      | None -> ());
      Mutex.lock t.lock;
      (match t.cut_timer with
      | Some timer ->
        Reactor.cancel r timer;
        t.cut_timer <- None;
        t.cut_armed <- false
      | None -> ());
      Mutex.unlock t.lock;
      (match t.listener with
      | Some sock ->
        Reactor.remove r sock;
        (* Shut down before closing: a loop thread still parked in [select]
           holds a reference that keeps a merely closed socket listening
           until it wakes, and a restart rebinding this port would get
           EADDRINUSE. *)
        (try Unix.shutdown sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        (try Unix.close sock with Unix.Unix_error _ -> ())
      | None -> ());
      Mutex.lock t.lock;
      let conns = t.client_conns in
      t.client_conns <- [];
      Mutex.unlock t.lock;
      List.iter Reactor.Conn.close conns
    end;
    (* A private reactor exists from [replica] on (it also drives the WAL
       syncer), so it is stopped even if the service was never started. A
       borrowed (shared-runtime) loop is left running for its owner — the
       WAL syncer timer is cancelled separately by [Durability_lane.stop]. *)
    if t.owns_reactor then Reactor.stop r

  let stop t =
    stop_service t;
    Durability_lane.stop t.lane

  let crash t =
    stop_service t;
    Durability_lane.crash t.lane

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
     the transport's timers, plus extra loops the per-endpoint I/O is
     sharded across. Extra loops are gated on cores: on few cores they are
     pure context-switch overhead, so there are at most three, one fewer
     than the cores, and one fewer than the [replicas] the mesh hosts. The
     gauges live on the primary loop only (shards would collide on the
     metric names). *)
  let mesh ?faults ~net_metrics ~replicas ~pids () =
    let primary = Reactor.create ~metrics:net_metrics ~name:"mesh" () in
    let cores = Domain.recommended_domain_count () in
    let shards =
      Array.init
        (min 3 (max 0 (min (replicas - 1) (cores - 1))))
        (fun i -> Reactor.create ~name:(Printf.sprintf "mesh-%d" (i + 1)) ())
    in
    let reactor_for =
      if Array.length shards = 0 then None
      else
        let pool = Array.append [| primary |] shards in
        Some (fun pid -> pool.(pid mod Array.length pool))
    in
    let transport =
      Transport.Tcp_codec.create ~codec:smsg_codec ~metrics:net_metrics ?faults ~reactor:primary
        ?reactor_for ~pids ()
    in
    (transport, primary, shards)

  (* A runtime lent to a deployment instead of letting [launch] build its
     own: a pid-namespaced transport view onto a bigger shared mesh
     ({!Transport.offset}), the registry that mesh reports into, the mesh
     loops, and a selector giving each replica index a shared service
     loop. Everything here is borrowed — the lender (a sharded
     group set) stops loops and closes the real mesh after every borrowing
     deployment is down. *)
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
           cluster's protocol timers; a lent runtime may supply none *)
    mesh_shards : Reactor.t array;
        (* extra mesh loops: per-endpoint I/O is sharded across
           [net_reactor :: shards] so co-located replicas' reads do not
           serialize on one thread (empty when borrowed or on few cores) *)
    mutable servers : (Pid.t * t) list;
    ports : (Pid.t * int) list;
    mutable dead : (Pid.t * t) list;
    chaos : Fault_plan.t option;
        (* the plan the mesh transport is wrapped with; clock re-armed at
           cluster start so cut windows are deployment-relative *)
    churn_cells : (Pid.t * Adversary.churn_mode ref) list;
        (* live mode cell per [Churn]-role replica *)
    owns_runtime : bool;
        (* whether [launch] built the mesh/loops above (shut them down with
           the deployment) or borrowed them from a shared runtime *)
    service_loop_for : (Pid.t -> Reactor.t) option;
        (* shared service loop per replica pid (borrowed); restarts must
           land on the same loop as the original incarnation *)
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
    let owns_runtime, net_metrics, net_reactor, mesh_shards, transport, service_loop_for =
      match runtime with
      | Some rt ->
        (* Borrowed mesh: wrap only this deployment's pid-namespaced view
           with the fault plan, so chaos on one shard never touches the
           links of the groups sharing the mesh (blast-radius isolation). *)
        let transport =
          match chaos with
          | Some plan -> Transport.with_faults plan rt.sr_transport
          | None -> rt.sr_transport
        in
        (false, rt.sr_net_metrics, rt.sr_net_reactor, [||], transport, rt.sr_service_loop_for)
      | None ->
        let net_metrics = Registry.create () in
        let transport, primary, shards = mesh ?faults:chaos ~net_metrics ~replicas:cfg.n ~pids () in
        (true, net_metrics, Some primary, shards, transport, None)
    in
    let svc_loop p = Option.map (fun f -> f p) service_loop_for in
    let servers = ref [] in
    let churn_cells = ref [] in
    let make p =
      match roles p with
      | Correct ->
        let t, inst = replica ?service_reactor:(svc_loop p) cfg ~me:p ~transport in
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
        let t, inst = replica ?service_reactor:(svc_loop p) cfg ~me:p ~transport in
        servers := (p, t) :: !servers;
        let cell = ref Adversary.Churn_honest in
        churn_cells := (p, cell) :: !churn_cells;
        Adversary.churn ~mode:(fun ~step:_ -> !cell) inst
    in
    let cluster = Cluster.create ~transport ~n:cfg.n ~extra ?reactor:net_reactor make in
    let servers = List.rev !servers in
    Option.iter Fault_plan.reset_clock chaos;
    Cluster.start cluster;
    let ports =
      List.mapi
        (fun i (p, s) ->
          (p, start_service ~port:(if port_base = 0 then 0 else port_base + i) s))
        servers
    in
    { dcfg = cfg; cluster; transport; net_metrics; net_reactor; mesh_shards; servers; ports;
      dead = []; chaos; churn_cells = List.rev !churn_cells; owns_runtime; service_loop_for }

  let set_churn_mode d pid mode =
    match List.assoc_opt pid d.churn_cells with
    | Some cell -> cell := mode
    | None -> invalid_arg "Server.set_churn_mode: pid was not launched with role Churn"

  let kill_replica d pid =
    match List.assoc_opt pid d.servers with
    | None -> invalid_arg "Server.kill_replica: not a live correct replica"
    | Some s ->
      (* Quiesce the consensus thread first so nothing touches the abandoned
         WAL; then crash the service (no final sync — this simulates power
         loss, not a clean stop). The transport endpoint stays up. *)
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
    let t, inst =
      replica ~catchup:true
        ?service_reactor:(Option.map (fun f -> f pid) d.service_loop_for)
        d.dcfg ~me:pid ~transport:d.transport
    in
    Cluster.start_node d.cluster pid inst;
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
    (* Consensus first, like [kill_replica]: a node thread that applies a
       slot after its replica's WAL is closed raises while holding the
       replica lock. With a borrowed runtime this closes only the
       pid-namespaced view (a no-op) — the real mesh stays up for the other
       groups sharing it, and the lender closes it after the last of them
       shuts down. *)
    Cluster.shutdown d.cluster;
    List.iter (fun (_, s) -> stop s) d.servers;
    if d.owns_runtime then begin
      (* The mesh loops are borrowed by transport and cluster alike; the
         deployment owns them. *)
      Option.iter Reactor.stop d.net_reactor;
      Array.iter Reactor.stop d.mesh_shards
    end

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
