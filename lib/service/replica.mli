(** The replica as a state machine: one {!step} per event, effects out.

    The paper (§2.1) models a process as a deterministic automaton that
    takes one step per received message. A replica is the same, one layer
    up: {!step} takes the clock reading and one {!event} — the start, a peer
    message, a client request, a batcher tick, the one-shot cut firing, or
    a WAL durable watermark — and returns the {!effect}s the shell must
    carry out: protocol actions (sends and timers), client replies, arming
    the cut, and the self-addressed sends that must cross the transport.
    The clock comes in with each event and every effect goes out to the
    shell, so a test can drive a whole group with an in-memory queue and a
    fake clock, and {!Server} is the one shell that runs it live.

    Inside, the step runs the pipeline stages ({!Admission}, {!Batcher},
    {!Durability_lane}, {!Catch_up}, {!Content}) around a
    {!Dex_smr.Replicated_log}: consensus callbacks, the apply loop, the
    catch-up driver and request admission. The one I/O left inside is the
    WAL's, through {!Durability_lane} (appends on apply, snapshot installs
    on the tick).

    Every replica carries its own {!Dex_metrics.Registry} ({!metrics}):
    the [service/*] counters and gauges below, the [wal/*] family from its
    WAL, and [durability/snapshots]. *)

open Dex_condition
open Dex_net

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

  type t

  type event =
    | Start  (** the process begins: the log starts, catch-up broadcasts *)
    | Message of Pid.t * smsg
        (** a message from a peer, or from ourselves (a timer, a self-send) *)
    | Request of Wire.request  (** a client request *)
    | Tick  (** the batcher cadence ([batch_delay]) *)
    | Cut  (** the one-shot cut armed by {!Arm_cut} fired *)
    | Durable of int  (** the WAL group commit made everything up to this lsn durable *)

  type effect =
    | Act of smsg Protocol.action  (** a protocol send or timer *)
    | Reply of Wire.reply  (** an answer for the client that sent the request *)
    | Arm_cut of float
        (** feed {!Cut} after this delay; at most one is outstanding (the
            replica arms no other until the {!Cut} arrives) *)
    | Via_transport of Pid.t * smsg
        (** a send that must cross the transport and its fault plan even
            though it is addressed to ourselves: the batcher's release and
            its stall watchdog ([Catch_up (-1)]). Liveness under loss
            depends on this hop today (ROADMAP items 1(c) and 11(c)). *)

  val create : ?catchup:bool -> config -> me:Pid.t -> now:float -> t
  (** Build the replica: recovers durable state from
      [<data_dir>/replica-<me>] (when [data_dir] is set) and arms the
      catch-up gate when [catchup] is true (default: whenever recovery
      found prior state). Nothing is sent until {!Start}. *)

  val step : t -> now:float -> event -> effect list
  (** Take one step at clock reading [now] (seconds; only differences
      matter). The effects come in emission order; for a {!Message}, the
      log instance's own actions come first. Only {!Start} and {!Message}
      yield {!Act}: the other events touch no protocol instance. *)

  val lane : t -> Durability_lane.t
  (** The WAL lane, for the shell to run its group-commit syncer (which
      feeds {!Durable}) and to stop or crash it. *)

  (** {2 Observation} Direct reads: call them between steps. *)

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
