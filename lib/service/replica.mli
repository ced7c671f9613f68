(** The replica core: consensus callbacks, apply loop, catch-up driver and
    request admission, assembled from the pipeline stages ({!Admission},
    {!Batcher}, {!Durability_lane}, {!Catch_up}, {!Content}).

    This module owns everything about a replica that does not touch a
    socket: {!Server} layers the TCP service (listener, client connections,
    the batch timer) and deployment helpers on top. A replica runs on one
    thread, its service loop ([service_reactor]): {!Dex_runtime.Cluster}
    runs the consensus callbacks there, beside client I/O, batch cuts and
    WAL group commit, so no state here needs a lock. Other threads read it
    through the observation getters below, which run on that loop
    ({!Dex_runtime.Reactor.call}).

    Every replica carries its own {!Dex_metrics.Registry} ({!metrics}):
    the [service/*] counters and gauges below, the [wal/*] family from its
    WAL, and [durability/snapshots]. Transport-level [net/*] counters live
    in the deployment-wide registry owned by {!Server.launch}. *)

open Dex_condition
open Dex_net
open Dex_runtime

module Make (L : Dex_core.Protocol_lane.LANE) : sig
  module Log : module type of Dex_smr.Replicated_log.Make (L)

  (** Wire messages between replicas: log traffic plus the content-fetch
      and catch-up lanes. *)
  type smsg =
    | Log_msg of Log.msg
    | Fetch of int * int  (** digest, stuck slot (the requester's apply frontier) *)
    | Batch_payload of int * Batch.t
    | Truncated of int
        (** fetch/catch-up refusal: the peer retired that history; the int is
            the newest slot it can serve a snapshot for *)
    | Catch_up of int  (** from_slot; from ourselves it is the retry timer *)
    | Slot_commit of {
        slot : int;
        digest : int;
        provenance : Dex_core.Dex.provenance;
        batch : Batch.t;
      }
    | Catch_up_done of int  (** the responder's apply frontier *)
    | Snapshot_fetch of int  (** the requester's apply frontier *)
    | Snapshot_payload of int * string  (** slot, encoded snapshot payload *)
    | Frag_request of int * int * int
        (** digest, wanted-index bitmask, stuck slot; from ourselves with
            mask 0 it is the coded-fetch fallback timer *)
    | Frag_payload of Dex_erasure.Fragment.t
        (** one erasure-coded fragment of a batch blob (coded dissemination) *)
    | Snapshot_frag of { slot : int; frag : Dex_erasure.Fragment.t }
        (** one erasure-coded fragment of the snapshot payload at [slot];
            [frag.digest] is the FNV-64 of the whole payload *)
    | Snapshot_fetch_full of int
        (** requester's apply frontier; always answered with a full
            [Snapshot_payload] — the coded lane's alignment fallback *)

  val smsg_codec : smsg Dex_codec.Codec.t

  val pp_smsg : Format.formatter -> smsg -> unit

  type config = {
    n : int;
    t : int;
    seed : int;
    pair : int -> Pair.t;
    window : int;
    slots : int;
    batch_cap : int;  (** max requests per proposed batch *)
    batch_delay : float;  (** batcher tick period (seconds) *)
    settle : float;  (** a request must be this old before it is batched *)
    queue_cap : int;  (** admission bound on pending requests *)
    fetch_retry : float;
    retain : int;  (** keep batch content for this many slots behind the frontier *)
    commit_log_cap : int;
    data_dir : string option;  (** durable state root; [None] disables durability *)
    wal_segment_bytes : int;
    group_commit : bool;
    sync_delay : float;
    sync_cap : int;
    snapshot_every : int;  (** snapshot cadence, in applied slots *)
    catchup_cap : int;  (** slots per catch-up chunk *)
    catchup_retry : float;
    catchup_grace : float;  (** give up waiting on peers after this long *)
    dissemination : Dex_erasure.Dissemination.mode;
        (** how batch content reaches replicas that miss it: [Full] — the
            classic whole-blob fetch; [Coded] — proposers push systematic
            fragments and the fetch path reconstructs from any k of n
            (falling back to the full lane on timeout or decode failure) *)
  }

  val config :
    ?seed:int ->
    ?window:int ->
    ?slots:int ->
    ?batch_cap:int ->
    ?batch_delay:float ->
    ?settle:float ->
    ?queue_cap:int ->
    ?fetch_retry:float ->
    ?retain:int ->
    ?commit_log_cap:int ->
    ?data_dir:string ->
    ?wal_segment_bytes:int ->
    ?group_commit:bool ->
    ?sync_delay:float ->
    ?sync_cap:int ->
    ?snapshot_every:int ->
    ?catchup_cap:int ->
    ?catchup_retry:float ->
    ?catchup_grace:float ->
    ?dissemination:Dex_erasure.Dissemination.mode ->
    pair:(int -> Pair.t) ->
    n:int ->
    t:int ->
    unit ->
    config

  val log_config : config -> Log.config

  val replica_dir : config -> Pid.t -> string option
  (** Each replica's durable state lives in [<data_dir>/replica-<me>]. *)

  val snap_payload_codec : ((string * int) list * Wire.reply list) Dex_codec.Codec.t
  (** Snapshot payload: state-machine snapshot + session table, both sorted,
      so correct replicas snapshotting at the same slot produce
      byte-identical payloads. *)

  (** Counter snapshot for quick inspection; the same numbers (and more)
      are available through {!metrics}. *)
  type stats = {
    committed_slots : int;
    empty_slots : int;
    one_step : int;  (** non-empty committed slots decided on the one-step path *)
    two_step : int;
    underlying : int;
    applied : int;
    suppressed_duplicates : int;
    busy_rejections : int;
    fetches : int;
    backlog : int;
    apply_lag : int;
    recovered_slots : int;  (** slots replayed from snapshot+WAL at startup *)
    catchup_installed : int;  (** slots installed over the peer catch-up lane *)
    state_transfers : int;  (** snapshots installed from a peer *)
    snapshots : int;  (** snapshots installed locally *)
  }

  (** Transparent so the {!Server} socket layer can drive the service
      fields; everything consensus-side is reached through the functions
      below. Every field is owned by the service loop: touch it only from
      a callback running there. *)
  type t = {
    cfg : config;
    me : Pid.t;
    transport : smsg Transport.t;
    admission : Admission.t;
    lane : Durability_lane.t;
    cu : Catch_up.t;
    content : Content.t;
        (** batch content by digest and the fetch lane for what we miss;
            observe it through the [service/fetch*] and [erasure/*]
            counters in {!metrics} *)
    sessions : (int, int * Wire.outcome * int) Hashtbl.t;
    conns : (int, Dex_runtime.Reactor.Conn.t) Hashtbl.t;
    dirty : (Unix.file_descr, Dex_runtime.Reactor.Conn.t) Hashtbl.t;
    commit_buf : (int, int * Dex_core.Dex.provenance) Hashtbl.t;
    outbox : smsg Protocol.action list ref;
    mutable state : State_machine.t;
    mutable commit_log : (int * int * Dex_core.Dex.provenance) list;
    mutable commit_log_len : int;
    mutable commit_log_floor : int;
    mutable apply_next : int;
    mutable next_slot : int;
    mutable last_progress : float;
    mutable last_watchdog : float;
    metrics : Dex_metrics.Registry.t;
    c_committed : Dex_metrics.Registry.counter;
    c_empty : Dex_metrics.Registry.counter;
    c_provenance : (Dex_core.Protocol_lane.provenance * Dex_metrics.Registry.counter) list;
    c_applied : Dex_metrics.Registry.counter;
    c_suppressed : Dex_metrics.Registry.counter;
    c_busy : Dex_metrics.Registry.counter;
    c_recovered : Dex_metrics.Registry.counter;
    c_catchup_installed : Dex_metrics.Registry.counter;
    c_state_transfers : Dex_metrics.Registry.counter;
    mutable running : bool;
    mutable listener : Unix.file_descr option;
    mutable service_port : int option;
    service_reactor : Dex_runtime.Reactor.t;
        (** the replica's event loop and only thread: consensus, client
            I/O, batch cuts, WAL group commit *)
    owns_reactor : bool;
        (** whether the replica created [service_reactor] (private loop, the
            server stops it) or borrowed a shared one (its owner stops it) *)
    mutable client_conns : Dex_runtime.Reactor.Conn.t list;
    mutable batch_timer : Dex_runtime.Reactor.timer option;
    mutable cut_armed : bool;
    mutable cut_timer : Dex_runtime.Reactor.timer option;
        (** the outstanding one-shot cut timer, cancelled on stop so a
            crashed incarnation's cut cannot fire into its successor *)
    mutable cut_margin : float;
        (** adaptive extra delay on the one-shot cut timer: widened on
            underlying-provenance commits (divergent cuts), decayed on
            one-step commits; bounded [0.1 ms, 2 ms] *)
    g_client_hwm : Dex_metrics.Registry.gauge;
  }

  val replica :
    ?catchup:bool ->
    ?service_reactor:Dex_runtime.Reactor.t ->
    config ->
    me:Pid.t ->
    transport:smsg Transport.t ->
    t * smsg Protocol.instance
  (** Build the replica core: recovers durable state (when [data_dir] is
      set), starts the group-commit syncer, and arms the catch-up gate when
      [catchup] is true (default: whenever recovery found prior state).
      [service_reactor] runs this replica on a shared,
      borrowed loop instead of a private one — sharded deployments use it to
      keep the loop count bounded by replica index, not shard count. The
      returned handlers plug into {!Dex_runtime.Cluster}, which must run
      them on [service_reactor]. *)

  val handle_request : t -> conn:Dex_runtime.Reactor.Conn.t -> Wire.request -> unit
  (** A client request arrived on [conn]: session-cache retry, Busy while
      catching up or over the admission cap, else admitted for batching
      (which arms the one-shot batch cut once the service is running). *)

  val batcher_tick : t -> unit
  (** One batcher tick: cut/fire decision via {!Batcher.tick}, store GC, and
      the stall watchdog. Called every [batch_delay] by the server's batch
      timer, and by the one-shot cut. *)

  val install_pending_snapshot : t -> unit
  (** Persist the outstanding snapshot capture, if any (the fsyncs run on
      the calling thread — the service loop — off the apply path). *)

  (** {2 Observation}

      Safe from any thread. [stats], [catching_up], [apply_frontier],
      [commit_log], [state_snapshot] and [state_digest] read on the service
      loop ({!Dex_runtime.Reactor.call}), or directly once that loop has
      stopped — so they also answer for a crashed replica. *)

  val stats : t -> stats

  val metrics : t -> Dex_metrics.Registry.t
  (** The replica's own registry: [service/*], [wal/*], [durability/*]. *)

  val wal_stats : t -> Dex_store.Wal.stats option

  val durable_lsn : t -> int

  val catching_up : t -> bool

  val apply_frontier : t -> int

  val commit_log : t -> (int * int * Dex_core.Dex.provenance) list
  (** Oldest first. *)

  val state_snapshot : t -> (string * int) list

  val state_digest : t -> int

  val pp_stats : Format.formatter -> stats -> unit
end
