open Dex_runtime
open Dex_service

module Registry = Dex_metrics.Registry

module Make (L : Dex_core.Protocol_lane.LANE) = struct
  module S = Server.Make (L)

  type t = {
    map : Shard_map.t;
    cfg : S.config;
    stride : int;  (* global pids per shard: n replicas + UC auxiliaries *)
    deployments : S.deployment array;
    transport : S.smsg Transport.t;  (* the real shared mesh (owned) *)
    net_metrics : Registry.t;
    net_reactor : Reactor.t;
    mesh_shards : Reactor.t array;
    service_loops : Reactor.t array;
    mutable closed : bool;
  }

  let shard_count t = Shard_map.shards t.map

  let map t = t.map

  let deployments t = t.deployments

  let deployment t i = t.deployments.(i)

  (* Every shard's cluster has the same shape: [n] replicas at local pids
     [0 .. n-1] plus the UC construction's auxiliary nodes above them. The
     global mesh lays the shards out at stride [n + #auxiliaries], and each
     shard sees its slice through a zero-based [Transport.offset] view —
     the per-shard consensus code never learns it is a tenant. *)
  let stride_of (cfg : S.config) =
    cfg.S.n + List.length (S.Log.extra (S.log_config cfg))

  let shard_data_dir (cfg : S.config) i =
    Option.map (fun d -> Filename.concat d (Printf.sprintf "shard-%d" i)) cfg.S.data_dir

  let launch ?roles ?chaos ?(port_base = 0) ~map (cfg : S.config) =
    let k = Shard_map.shards map in
    let stride = stride_of cfg in
    let net_metrics = Registry.create () in
    (* The mesh's extra I/O loops are gated by the replica count of the
       whole set, so the loop count does not grow with the shard count. *)
    let transport, net_reactor, mesh_shards =
      S.mesh ~net_metrics ~replicas:(k * cfg.S.n) ~pids:(List.init (k * stride) Fun.id) ()
    in
    (* Service loops are shared by replica index: shard [i]'s replica [j]
       runs its client I/O, batch cadence and WAL group commit on loop [j],
       whatever [i] — [n] loops total instead of [k * n]. *)
    let service_loops =
      Array.init cfg.S.n (fun j -> Reactor.create ~name:(Printf.sprintf "svc-%d" j) ())
    in
    let runtime i =
      {
        S.sr_transport = Transport.offset ~base:(i * stride) ~count:stride transport;
        sr_net_metrics = net_metrics;
        sr_net_reactor = Some net_reactor;
        sr_service_loop_for = Some (fun pid -> service_loops.(pid));
      }
    in
    let deployments =
      Array.init k (fun i ->
          let chaos =
            match chaos with Some (j, plan) when j = i -> Some plan | _ -> None
          in
          let roles = Option.map (fun r p -> r ~shard:i p) roles in
          S.launch ?roles ?chaos
            ~port_base:(if port_base = 0 then 0 else port_base + (i * cfg.S.n))
            ~runtime:(runtime i)
            { cfg with S.data_dir = shard_data_dir cfg i })
    in
    {
      map;
      cfg;
      stride;
      deployments;
      transport;
      net_metrics;
      net_reactor;
      mesh_shards;
      service_loops;
      closed = false;
    }

  let ports t = Array.map (fun d -> List.map snd d.S.ports) t.deployments

  let shutdown t =
    if not t.closed then begin
      t.closed <- true;
      (* Tenants first: each deployment stops its replicas and joins its
         cluster threads; closing their offset views is a no-op. Only then
         is the real mesh torn down, followed by the loops everything above
         was borrowing. *)
      Array.iter S.shutdown t.deployments;
      t.transport.Transport.close ();
      Reactor.stop t.net_reactor;
      Array.iter Reactor.stop t.mesh_shards;
      Array.iter Reactor.stop t.service_loops
    end

  (* ------------------------------- chaos -------------------------------- *)

  let kill_replica t ~shard pid = S.kill_replica t.deployments.(shard) pid

  let restart_replica t ~shard pid = S.restart_replica t.deployments.(shard) pid

  let run_chaos_schedule t = Array.iter S.run_chaos_schedule t.deployments

  (* ----------------------------- observation ----------------------------- *)

  let shard_snapshot t i =
    let d = t.deployments.(i) in
    Registry.merge (List.map (fun (_, s) -> Registry.snapshot (S.metrics s)) d.S.servers)

  let prefixed i snap = List.map (fun (name, v) -> (Printf.sprintf "shard%d/%s" i name, v)) snap

  let snapshot t =
    let shards =
      List.concat (List.init (shard_count t) (fun i -> prefixed i (shard_snapshot t i)))
    in
    shards @ Registry.snapshot t.net_metrics

  let agreement_violations t = Array.map S.agreement_violations t.deployments
end
