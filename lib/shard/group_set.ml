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
    mesh : S.mesh;  (* the real shared mesh and its loop (owned) *)
    net_metrics : Registry.t;
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

  (* A one-group set persists straight under the root, as an unsharded
     deployment always has, so its data dirs recover either way. *)
  let shard_data_dir ~k (cfg : S.config) i =
    if k = 1 then cfg.S.data_dir
    else Option.map (fun d -> Filename.concat d (Printf.sprintf "shard-%d" i)) cfg.S.data_dir

  let launch ?roles ?chaos ?(port_base = 0) ~map (cfg : S.config) =
    let k = Shard_map.shards map in
    let stride = stride_of cfg in
    let net_metrics = Registry.create () in
    (* One loop for every group: each replica's consensus, peer sockets,
       client I/O, batch cadence and WAL group-commit cadence run on the
       mesh loop, whatever the shard count; each WAL's fsyncs run on its
       own syncer thread. *)
    let mesh = S.mesh ~net_metrics ~nodes:(k * stride) () in
    let runtime i =
      {
        S.sr_transport = Transport.offset ~base:(i * stride) ~count:stride mesh.S.mesh_transport;
        sr_net_metrics = net_metrics;
        sr_net_reactor = Some mesh.S.mesh_loop;
        sr_service_loop_for = None;
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
            { cfg with S.data_dir = shard_data_dir ~k cfg i })
    in
    { map; cfg; stride; deployments; mesh; net_metrics; closed = false }

  let ports t = Array.map (fun d -> List.map snd d.S.ports) t.deployments

  let shutdown t =
    if not t.closed then begin
      t.closed <- true;
      (* Tenants first: each deployment stops its replicas; closing their
         offset views is a no-op. Only then is the real mesh torn down,
         followed by the loop everything above was borrowing. *)
      Array.iter S.shutdown t.deployments;
      t.mesh.S.mesh_transport.Transport.close ();
      Reactor.stop t.mesh.S.mesh_loop
    end

  (* ------------------------------- chaos -------------------------------- *)

  let kill_replica t ~shard pid = S.kill_replica t.deployments.(shard) pid

  let restart_replica t ~shard pid = S.restart_replica t.deployments.(shard) pid

  let run_chaos_schedule t = Array.iter S.run_chaos_schedule t.deployments

  (* ----------------------------- observation ----------------------------- *)

  let shard_snapshot t i =
    let d = t.deployments.(i) in
    Registry.merge (List.map (fun (_, s) -> Registry.snapshot (S.metrics s)) d.S.servers)

  let runtime_snapshot t = Registry.snapshot t.net_metrics

  let agreement_violations t = Array.map S.agreement_violations t.deployments
end
