(** Lifecycle of a sharded deployment: [k] independent consensus groups,
    one shared runtime.

    Each shard is a full {!Dex_service.Server} deployment — [n] replicas,
    its own WAL/snapshot root ([<data_dir>/shard-<i>], or [<data_dir>]
    itself when [k = 1]), its own per-replica
    metrics registries, its own agreement invariant — but instead of [k]
    meshes and [k] event loops, every group is a {e tenant} of one shared
    runtime ({!Dex_service.Server.Make.shared_runtime}):

    - one TCP mesh over the union pid space, each shard seeing its slice
      through a zero-based {!Dex_runtime.Transport.offset} view at stride
      [n + #UC-auxiliaries];
    - one mesh loop for all groups: every replica's consensus, peer
      sockets and client I/O, the UC auxiliaries, mute and equivocating
      nodes, and the reconnect timers. A running set is one loop thread
      whatever its shard count; a durable set adds one WAL syncer thread
      per replica of every group.

    Groups never exchange consensus messages — the offset views make cross
    -shard pids unreachable — so safety composes: each shard's agreement
    holds independently, and a fault plan wrapped around one shard's view
    ([?chaos]) cannot touch its neighbours' links (blast-radius isolation,
    checked by the gauntlet's sharded phase). *)

open Dex_net

module Make (L : Dex_core.Protocol_lane.LANE) : sig
  module S : module type of Dex_service.Server.Make (L)

  type t

  val launch :
    ?roles:(shard:int -> Pid.t -> Dex_service.Server.role) ->
    ?chaos:int * Dex_runtime.Fault_plan.t ->
    ?port_base:int ->
    map:Shard_map.t ->
    S.config ->
    t
  (** Start all [Shard_map.shards map] groups. [roles] assigns Byzantine
      behaviours per shard and pid (default: everyone correct everywhere).
      [chaos = (i, plan)] fronts {e only} shard [i]'s transport view with
      the plan. [port_base > 0] gives shard [i]'s [j]-th {e correct}
      replica (in pid order; mute and equivocating replicas serve no
      clients) service port [port_base + i*n + j]; the default picks
      ephemeral ports (read them back with {!ports}). [cfg.data_dir], when
      set, is the common root: shard [i] persists under
      [<data_dir>/shard-<i>], except that a one-group set ([k = 1])
      persists directly under [<data_dir>], like an unsharded
      {!Dex_service.Server.Make.launch}. *)

  val shard_count : t -> int

  val map : t -> Shard_map.t

  val ports : t -> int list array
  (** Service ports per shard, replica order — the shape
      {!Router.connect} expects. *)

  val deployments : t -> S.deployment array

  val deployment : t -> int -> S.deployment

  val shutdown : t -> unit
  (** Tenants down first (replicas and their WAL syncers), then the shared
      mesh, then the loop. Idempotent. *)

  (** {2 Chaos} *)

  val kill_replica : t -> shard:int -> Pid.t -> unit

  val restart_replica : t -> shard:int -> Pid.t -> S.t

  val run_chaos_schedule : t -> unit
  (** Drive every shard's fault plan schedule (at most one shard has one —
      see [?chaos]) on the caller's thread. *)

  (** {2 Observation} *)

  val shard_snapshot : t -> int -> Dex_metrics.Registry.snapshot
  (** Shard [i]'s replica registries merged ({!Dex_metrics.Registry.merge}):
      [service/*], [wal/*], [durability/*] totals for that group. *)

  val runtime_snapshot : t -> Dex_metrics.Registry.snapshot
  (** The shared runtime, attributed to no shard: the mesh's [net/*]
      series (among them [net/frames] and [net/flushes]) and the mesh
      loop's [reactor/*] gauges. *)

  val agreement_violations : t -> (int * (int * (Pid.t * int) list) list) array
  (** Per shard: {!Dex_service.Server.Make.agreement_violations}. *)
end
