(** The replicated service: client requests in, state-machine replies out.

    [Server] is the only shell around a {!Replica}, a state machine with no
    I/O of its own. Each replica runs on one {!Dex_runtime.Reactor} loop,
    owned by its deployment (or by the shared runtime a deployment
    borrows), which also carries the replica's peer sockets. On it
    [Server] keeps the client listener and connections (the
    client-to-connection map replies go to, and the connections to pump),
    the batch timer ({!Replica.Make.Tick}), the one-shot cut timer
    ({!Replica.Make.Arm_cut}, {!Replica.Make.Cut}) and the WAL
    group-commit syncer ({!Replica.Make.Durable}). It reads the wall clock once per event,
    steps the replica, and carries out the effects on that loop: replies
    are buffered and pumped once per step, the release hop
    ({!Replica.Make.Via_transport}) goes through the transport, and
    protocol actions go to {!Dex_runtime.Cluster}, which runs each replica
    as a {!Dex_net.Protocol.instance} wrapping the step.

    The full pipeline contract (one-step batching, fetch lane, [t+1]
    catch-up votes, snapshot transfer, external-validity caveat) is
    documented on {!Replica} and the stage interfaces; deployment-level
    orchestration (loopback clusters, kill/restart, agreement checks)
    lives here. *)

open Dex_net
open Dex_runtime

type role =
  | Correct
  | Mute
  | Equivocator
  | Churn
      (** a {e dynamic} Byzantine slot: a full correct replica whose
          emissions are filtered by a runtime-flippable {!Adversary.churn}
          mode (initially honest). Flip it with [set_churn_mode], or let a
          fault plan's churn schedule drive it ([run_chaos_schedule]). Its
          commit log stays honest (it only suppresses or stale-replays its
          own sends), so agreement checks include it. *)

module Make (L : Dex_core.Protocol_lane.LANE) : sig
  (** Everything consensus-side: [smsg] (+ codec), [config], [stats], and
      the replica state machine itself ({!Replica.Make}). *)
  include module type of Replica.Make (L) with type t := Replica.Make(L).t

  type t
  (** A replica in its shell: the state machine plus its loop, listener,
      client connections, timers and WAL syncer. {!launch} builds them;
      {!kill_replica} and {!restart_replica} cycle one. *)

  (** {2 Observation}

      Safe from any thread: [stats], [catching_up], [apply_frontier],
      [commit_log], [state_snapshot] and [state_digest] read on the
      replica's loop, or directly once it has stopped (a crashed replica).
      See {!Replica.Make} for what each returns. *)

  val stats : t -> stats

  val metrics : t -> Dex_metrics.Registry.t

  val wal_stats : t -> Dex_store.Wal.stats option

  val durable_lsn : t -> int

  val catching_up : t -> bool

  val apply_frontier : t -> int

  val commit_log : t -> (int * int * Dex_core.Dex.provenance) list

  val state_snapshot : t -> (string * int) list

  val state_digest : t -> int

  val equivocator : config -> me:Pid.t -> smsg Protocol.instance
  (** A Byzantine replica lifting {!Log.equivocator} to the service layer:
      per slot, half the peers see the digest of a synthetic chaff batch,
      the other half the empty digest, on both decision lanes. It answers
      fetches for its chaff, so slots it wins still resolve (the external
      validity assumption — see {!Replica}). It never answers the catch-up
      or snapshot lanes — which the [t+1] vote rule absorbs. *)

  (** {2 Loopback deployments}

      All [n] replicas (plus any UC auxiliary nodes) in one process, meshed
      over {!Transport.Tcp_codec}, each correct replica serving clients on
      its own loopback port. *)

  type mesh = {
    mesh_transport : smsg Transport.t;
    mesh_loop : Reactor.t;
        (** the primary loop: the transport's reconnect timers and the
            nodes that are not replicas; its [reactor/*] gauges land in the
            mesh's [net_metrics] *)
    replica_loops : Reactor.t array;
        (** loop [j] runs replica [j] of every group: its consensus, its
            inbound frames and the outbound connections it starts *)
    loop_metrics : Dex_metrics.Registry.t array;  (** [replica_loops.(j)]'s [reactor/*] gauges *)
  }
  (** The loopback mesh a deployment, or a whole group set, runs on. *)

  val mesh :
    ?faults:Fault_plan.t ->
    net_metrics:Dex_metrics.Registry.t ->
    replicas:int ->
    stride:int ->
    groups:int ->
    unit ->
    mesh
  (** [mesh ~net_metrics ~replicas ~stride ~groups ()] builds the mesh over
      pids [0 .. groups * stride - 1], where pid [p] is replica
      [p mod stride] of group [p / stride] when [p mod stride < replicas],
      and a UC auxiliary node otherwise. It has [1 + replicas] loops
      however many groups there are: the {!Transport.Tcp_codec}
      [reactor_for] maps every group's replica [j] to [replica_loops.(j)]
      and everything else to [mesh_loop]. Peer frames a replica sends from
      its own loop flush once per loop turn. The caller owns everything:
      close the transport, then stop the loops. *)

  type shared_runtime = {
    sr_transport : smsg Transport.t;
        (** this deployment's pid-namespaced view onto the shared mesh
            ({!Transport.offset}); its [close] is a no-op — the lender
            closes the real mesh *)
    sr_net_metrics : Dex_metrics.Registry.t;
        (** the registry the shared mesh reports its [net/*] counters into *)
    sr_net_reactor : Reactor.t option;
        (** the mesh's primary loop, also running this deployment's nodes
            that are not replicas (UC auxiliaries, mute and equivocating
            replicas); borrowed, never stopped here *)
    sr_service_loop_for : (Pid.t -> Reactor.t) option;
        (** the loop each replica pid runs on, shared by replica index
            across groups ({!mesh}'s [replica_loops]), so loop count is
            bounded by replica index, not by group count; [None] makes
            {!launch} build, own and stop one loop per replica *)
  }
  (** A runtime lent to {!launch} instead of letting it build one: how
      several consensus groups (shards) share one mesh, one set of event
      loops and one [net/*] registry. Everything is borrowed; the lender
      (see [Dex_shard.Group_set]) tears it down after every borrowing
      deployment has shut down. *)

  type deployment = {
    dcfg : config;
    cluster : smsg Cluster.t;
    transport : smsg Transport.t;
    net_metrics : Dex_metrics.Registry.t;
        (** deployment-wide registry holding the transport's [net/*]
            counters (totals and per-peer); per-replica [service/*] and
            [wal/*] families live in each replica's {!metrics} registry *)
    net_reactor : Reactor.t option;
        (** the primary mesh loop, shared by the transport's timers and the
            nodes that are not replicas (its [reactor/*] gauges land in
            [net_metrics]). [None] only under a lent runtime that supplies
            no loop. *)
    loops : Reactor.t array;
        (** replica pid's loop, where its consensus, peer sockets and
            client I/O run; {!restart_replica} lands the new incarnation on
            the same loop *)
    loop_metrics : Dex_metrics.Registry.t array;
        (** the [reactor/*] gauges of [loops] when {!launch} built them;
            empty when a lender owns them (it keeps their gauges) *)
    owned_loops : Reactor.t list;
        (** the loops {!launch} built, which {!shutdown} stops: the mesh
            loop and [loops], or only [loops] under a lent runtime without
            [sr_service_loop_for], or none *)
    mutable servers : (Pid.t * t) list;  (** live correct replicas *)
    ports : (Pid.t * int) list;  (** their client-facing service ports *)
    mutable dead : (Pid.t * t) list;  (** replicas taken down by {!kill_replica} *)
    chaos : Fault_plan.t option;
        (** the fault plan the mesh transport was wrapped with, if any; its
            clock is re-armed when the cluster starts, so cut windows and
            schedules are deployment-relative *)
    churn_cells : (Pid.t * Adversary.churn_mode ref) list;
        (** the live mode cell of every [Churn]-role replica *)
  }

  val launch :
    ?roles:(Pid.t -> role) ->
    ?chaos:Fault_plan.t ->
    ?port_base:int ->
    ?runtime:shared_runtime ->
    config ->
    deployment
  (** Start the full deployment. [roles] (default: everyone [Correct])
      assigns Byzantine behaviours to replica pids; at most [t] of them,
      naturally. [chaos] fronts the deployment's transport with a fault plan
      ({!Transport.with_faults}) whose clock is re-armed as the cluster
      starts — under a shared runtime only this deployment's view is
      wrapped, so one shard's chaos never touches its neighbours' links.
      [port_base > 0] gives the [i]-th correct replica service port
      [port_base + i]; the default (0) picks ephemeral ports. [runtime]
      makes this deployment a tenant of a shared mesh instead of building
      its own (see {!shared_runtime}). *)

  val set_churn_mode : deployment -> Pid.t -> Adversary.churn_mode -> unit
  (** Flip a [Churn]-role replica's behaviour mid-run. Keeping at most [t]
      replicas non-honest at any instant is the caller's obligation
      ({!Fault_plan.validate} checks it for plan-driven churn).
      @raise Invalid_argument if [pid] was not launched with role [Churn]. *)

  val run_chaos_schedule : deployment -> unit
  (** Execute the deployment's fault plan's storm and churn schedules in
      time order against the live deployment — {!kill_replica} /
      {!restart_replica} for storm events, {!set_churn_mode} for churn
      events — sleeping between events on the {e caller's} thread (drive
      client load from other threads). Times are relative to the plan
      clock, i.e. to cluster start. Returns once the last event has been
      applied; a no-op without [chaos] or with an empty schedule. Link
      rules and cuts need no driver — the wrapped transport applies them
      on every send. *)

  val kill_replica : deployment -> Pid.t -> unit
  (** Crash one correct replica: its consensus stops, its service sockets
      close (its loop keeps running for the restart), and its WAL is
      abandoned mid-flight, with no final flush or fsync, as a power cut
      leaves it. Its
      transport endpoint stays up. The pre-crash commit log is retained for
      {!agreement_violations}.
      @raise Invalid_argument if [pid] is not a live correct replica. *)

  val restart_replica : deployment -> Pid.t -> t
  (** Restart a killed replica: a fresh replica recovers from the same
      data dir, rejoins the cluster on the same endpoint and service port,
      and runs peer catch-up before re-admitting clients.
      @raise Invalid_argument if [pid] was not killed, or is running. *)

  val shutdown : deployment -> unit

  val agreement_violations : deployment -> int * (int * (Pid.t * int) list) list
  (** [(compared, violations)]: for every slot committed by at least two
      correct replicas — killed replicas' logs included, so a slot
      acknowledged before a crash is held against the survivors — check the
      committed digests agree. [compared] counts multiply-committed slots;
      each violation lists the disagreeing [(replica, digest)] entries.
      Correctness target: [violations = []]. *)
end
