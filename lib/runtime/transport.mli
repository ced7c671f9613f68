open Dex_net

(** Transport abstraction of the cluster runtime.

    A transport routes [(src, msg)] envelopes between node endpoints. Two
    implementations:

    - {!Mem}: in-process mailboxes with optional random delivery jitter —
      the default for examples and tests;
    - {!Tcp_codec}: TCP sockets driven by a {!Reactor} event loop, every
      message framed with the protocol's typed codec — every message
      crosses a real kernel socket, and a mesh can span processes.

    The runtime drives the same [Protocol.instance] values as the simulator:
    code under test is identical, only the scheduler differs. *)

type link_stats = {
  reconnects : int;
      (** TCP connects beyond the first per (src, dst) pair — each one means
          an established link was observed broken and rebuilt *)
  backoffs : int;  (** retry waits scheduled before re-attempting a connection *)
  drops : int;  (** total messages abandoned, all destinations *)
}

type 'msg t = {
  send : src:Pid.t -> dst:Pid.t -> 'msg -> unit;
      (** asynchronous, best-effort once endpoints are up. TCP sends that
          hit a dead connection are retried over a fresh connection with a
          short bounded backoff before the message is abandoned; sends to
          destinations outside the mesh are abandoned immediately. *)
  recv : me:Pid.t -> timeout:float -> (Pid.t * 'msg) option;
      (** blocking receive on [me]'s endpoint (while it has no delivery
          hook) *)
  deliver : me:Pid.t -> (Pid.t -> 'msg -> unit) option -> unit;
      (** install ([Some h]) or remove ([None]) [me]'s delivery hook. While
          a hook is installed, every frame arriving for [me] is handed to
          [h src msg] on the arriving thread (a TCP endpoint's loop, a
          sender's thread in memory) instead of queueing for [recv];
          installing it first hands [h] the frames already queued, in
          order. The hook must not block. A no-op for pids that are not
          local endpoints. *)
  close : unit -> unit;  (** tear everything down; idempotent *)
  drop_count : dst:Pid.t -> int;
      (** how many messages to [dst] this endpoint set has abandoned (after
          exhausting the retry budget, or immediately for unknown
          destinations) — exposed so tests and operators can observe silent
          loss *)
  link_stats : unit -> link_stats;
      (** aggregate link-health counters since creation; {!Mem} reports zero
          reconnects/backoffs (there are no connections to lose) *)
  peer_links : unit -> (Pid.t * link_stats) list;
      (** the same counters broken down by destination, sorted by pid — a
          single flapping link shows up as one hot row instead of vanishing
          into the aggregate; only destinations with at least one recorded
          event appear *)
}

(** Every constructor accepts an optional [?metrics] registry; when given,
    the transport mirrors its counters into it as [net/reconnects],
    [net/backoffs], [net/drops] plus per-destination
    [net/<kind>/peer<pid>] counters. Handles are cached per destination, so
    the send path never formats a metric name. *)

val offset : base:Pid.t -> count:int -> 'msg t -> 'msg t
(** A pid-namespaced view onto a larger mesh: the view's local pids
    [0 .. count-1] are the underlying transport's [base .. base+count-1].
    [send]/[recv]/[deliver]/[drop_count] translate both directions; [peer_links]
    reports only peers inside the window (re-based); [link_stats] is the
    whole underlying transport's aggregate. The view is {e borrowed}: its
    [close] is a no-op — the owner of the underlying mesh closes it once
    every group sharing it is down. This is how several consensus groups
    (shards) share one listener/reactor set while each runs over a private
    zero-based pid space. *)

val with_faults : Fault_plan.t -> 'msg t -> 'msg t
(** Front a transport with deterministic fault injection: every [send]
    consults the plan ({!Fault_plan.decide}), which may drop it, duplicate
    it, or defer copies — deferred copies are delivered by one joined
    scheduler thread, torn down by [close] (pending copies are discarded).
    [recv], [deliver] and the link-stats surface pass through; injected events are
    visible through the plan's own trace, counts and [chaos/*] metrics. The
    [?faults] parameter on the constructors below is shorthand for wrapping
    with this function. *)

module Mem : sig
  val create :
    ?metrics:Dex_metrics.Registry.t ->
    ?faults:Fault_plan.t ->
    ?jitter:float ->
    ?seed:int ->
    pids:Pid.t list ->
    unit ->
    'msg t
  (** [jitter] (seconds, default 0) delays each delivery by a uniform random
      amount in [\[0, jitter)] — a cheap stand-in for network variance.
      [faults] layers a fault plan over the mailboxes ({!with_faults}). *)
end

module Tcp_codec : sig
  val create :
    codec:'msg Dex_codec.Codec.t ->
    ?metrics:Dex_metrics.Registry.t ->
    ?faults:Fault_plan.t ->
    ?remotes:(Pid.t * int) list ->
    ?on_bind:(Pid.t -> int -> unit) ->
    reactor:Reactor.t ->
    ?reactor_for:(Pid.t -> Reactor.t) ->
    pids:Pid.t list ->
    unit ->
    'msg t
  (** Loopback TCP with every message framed by the given typed codec: a
      real wire format, safe across binaries. Malformed frames from a peer
      tear down only that connection (the peer is treated as Byzantine;
      the {e sender's} next message to it transparently reconnects, see
      {!field-send}).

      [pids] are the {e local} endpoints: one loopback listener each, on an
      ephemeral port reported through [on_bind]. [remotes] maps pids served
      by another process to their listener ports, so a mesh can span
      processes: each process passes its own pids in [pids] and everyone
      else's in [remotes]. Every protocol module exports its codec
      ([Dex.codec], [Bosco.codec], …).

      The transport runs event-driven on [reactor]: nonblocking sockets,
      incremental frame reassembly ({!Dex_codec.Codec.Frame.Reader}),
      outbound queues that coalesce multiple frames per [write] syscall,
      and reconnect backoffs as reactor timers. Per-peer write-buffer
      high-water marks are mirrored to [metrics] as
      [net/wbuf_hwm/peer<pid>]; [net/frames] counts frames handed to a
      connection and [net/flushes] the writes that carried them out. The
      reactor is borrowed, not owned: [close] deregisters everything but
      leaves the loop running for its owner to stop. Because the retry
      budget runs on reactor timers, the link counters of a failed send
      settle after [send] returns.

      The loop that owns a connection reads and decodes its frames (so the
      delivery hook runs there) and batches its sends: a frame sent from
      that loop is buffered, and one flush per connection is posted for the
      end of the loop turn, so a turn's frames to one peer leave in one
      [write]. A frame sent from any other thread is written at once. By
      default [reactor] owns every socket, which is how the service runs:
      its nodes run on [reactor] too, so they receive without a thread
      handoff and every send batches.

      [reactor_for pid] instead names the loop that owns pid's inbound
      listener and connections and the outbound connections pid starts.
      Only meshes that spread pids over several loops pass it — the traced
      mesh in [perfbench/deploy.ml], and tests. Reconnect backoff timers
      stay on [reactor]; every loop is borrowed, never stopped. *)
end
