(** The replicated service: client requests in, state-machine replies out.

    Each replica couples the staged pipeline assembled in {!Replica} —
    admission ({!Admission}), batching ({!Batcher}), the consensus-side
    apply loop, the persist-before-reply durability lane
    ({!Durability_lane}) and the Byzantine-tolerant catch-up lane
    ({!Catch_up}) — with the socket layer this module owns: the
    client-facing TCP listener, event-driven client connections, and the
    batch timer driving slot release, snapshot installs and the stall
    watchdog, all on the replica's {!Dex_runtime.Reactor}.

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
  (** Everything consensus-side: [smsg] (+ codec), [config], the replica
      constructor, request handling, stats and the per-replica metrics
      registry. See {!Replica.Make}. *)
  include module type of Replica.Make (L)

  val start_service : ?port:int -> t -> int
  (** Bind the client-facing listener on loopback ([port = 0] picks an
      ephemeral port — the return value is the bound port) and start the
      service machinery on the replica's reactor: a nonblocking listener,
      per-connection event-driven framing and the batcher cadence as a
      timer (the same loop hosts the WAL group-commit timer and the
      one-shot settle cut).
      @raise Invalid_argument if already running. *)

  val service_port : t -> int option

  val stop : t -> unit
  (** Clean stop: service timers cancelled, client connections closed, then
      a final WAL sync and close. Idempotent. Does not touch the consensus
      side — shut the cluster down separately. *)

  val crash : t -> unit
  (** Crash-stop: like {!stop} but the WAL is {e abandoned} — no final flush
      or fsync, exactly what a power cut leaves behind. Pair with a
      subsequent {!replica} over the same data dir to exercise recovery. *)

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

  val mesh :
    ?faults:Fault_plan.t ->
    net_metrics:Dex_metrics.Registry.t ->
    replicas:int ->
    pids:Pid.t list ->
    unit ->
    smsg Transport.t * Reactor.t * Reactor.t array
  (** [mesh ~net_metrics ~replicas ~pids ()] builds the loopback mesh a
      deployment runs on: [(transport, primary, shards)]. The [primary]
      loop reports its [reactor/*] gauges into [net_metrics] and hosts the
      transport's timers; per-endpoint I/O is spread over
      [primary :: shards], with [max 0 (min 3 (min (replicas - 1)
      (cores - 1)))] extra loops — on few cores extra loops are pure
      context-switch overhead. [replicas] is the replica count the mesh
      hosts ([n] for one deployment, [k * n] for a sharded group set).
      The caller owns everything: close the transport, then stop the
      loops. *)

  type shared_runtime = {
    sr_transport : smsg Transport.t;
        (** this deployment's pid-namespaced view onto the shared mesh
            ({!Transport.offset}); its [close] is a no-op — the lender
            closes the real mesh *)
    sr_net_metrics : Dex_metrics.Registry.t;
        (** the registry the shared mesh reports its [net/*] counters into *)
    sr_net_reactor : Reactor.t option;
        (** the mesh's primary loop, hosting this deployment's protocol
            timers too; borrowed, never stopped here *)
    sr_service_loop_for : (Pid.t -> Reactor.t) option;
        (** the shared service loop each replica pid runs its client I/O,
            batch cadence and WAL group commit on — so loop count is bounded
            by replica index, not by group count; [None] gives every
            replica a private loop *)
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
            cluster's protocol timers (its [reactor/*] gauges land in
            [net_metrics]); each replica's client I/O runs on its own loop
            in its own registry. [None] only under a lent runtime that
            supplies no loop. *)
    mesh_shards : Reactor.t array;
        (** extra mesh loops the per-endpoint I/O is sharded across (see
            {!mesh}) — co-located replicas' reads must not serialize on one
            thread; empty under a lent runtime (the lender owns its loops)
            and on a single core *)
    mutable servers : (Pid.t * t) list;  (** live correct replicas *)
    ports : (Pid.t * int) list;  (** their client-facing service ports *)
    mutable dead : (Pid.t * t) list;  (** replicas taken down by {!kill_replica} *)
    chaos : Fault_plan.t option;
        (** the fault plan the mesh transport was wrapped with, if any; its
            clock is re-armed when the cluster starts, so cut windows and
            schedules are deployment-relative *)
    churn_cells : (Pid.t * Adversary.churn_mode ref) list;
        (** the live mode cell of every [Churn]-role replica *)
    owns_runtime : bool;
        (** whether {!launch} built the mesh and loops (so {!shutdown} stops
            them) or borrowed a {!shared_runtime} (the lender stops them) *)
    service_loop_for : (Pid.t -> Reactor.t) option;
        (** the shared-runtime service-loop selector, kept so
            {!restart_replica} lands the new incarnation on the same loop *)
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
  (** Crash one correct replica: its consensus loop stops, its service
      sockets close, and its WAL is abandoned mid-flight ({!crash}). Its
      transport endpoint stays up. The pre-crash commit log is retained for
      {!agreement_violations}.
      @raise Invalid_argument if [pid] is not a live correct replica. *)

  val restart_replica : deployment -> Pid.t -> t
  (** Restart a killed replica: a fresh {!replica} recovers from the same
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
