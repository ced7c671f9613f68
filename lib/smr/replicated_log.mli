(** Replicated log: a sequence of DEX instances ordering commands.

    This is the application the paper's introduction motivates: "replicated
    servers need to agree on the processing order of the update requests",
    and "if a client broadcasts its request to all servers and there is no
    contention, all servers propose the same request" — i.e. typical slots
    carry unanimous or near-unanimous inputs, exactly where DEX decides in
    one step.

    Each log slot runs an independent instance of a protocol lane
    ({!Dex_core.Protocol_lane.LANE} — the dex pair, or any other lane);
    messages are tagged with their slot. Slots are pipelined with a bounded window: slot [s + window]
    starts once slot [s] commits locally, so a burst of commands keeps
    several instances in flight without unbounded fan-out.

    Two activation disciplines:
    - [`Eager] (default): every in-window slot starts immediately — right
      for batch workloads where all proposals are known up front (the
      simulator experiments).
    - [`On_demand]: an in-window slot starts only once the application has
      {e released} it (it has a proposal ready — see {!release}) or remote
      traffic for it arrives (another replica released it, so this replica
      must join with whatever proposal it can offer). This is the service
      discipline: an idle log spends nothing.

    Commands are proposal values; the application maps its operations to
    values ([Dex_service] orders batch digests and resolves them to request
    batches). Commits surface through a callback rather than
    [Protocol.Decide] (which is single-shot per run): the instance emits
    only sends. The callback also carries the decision provenance
    (one-step / two-step / underlying), so upper layers can account fast-path
    coverage per slot without string matching. *)

open Dex_vector
open Dex_condition
open Dex_net

module Make (D : Dex_core.Protocol_lane.LANE) : sig
  type msg
  (** Slot-tagged lane traffic, plus a local control lane (see
      {!release}). *)

  val pp_msg : Format.formatter -> msg -> unit

  val codec : msg Dex_codec.Codec.t
  (** Wire codec (for the codec-framed TCP transport). *)

  val release : int -> msg
  (** [release upto] is a control message a replica sends {e to itself}
      (through its own transport endpoint) to allow slots [0 .. upto-1] to
      start under [`On_demand] activation. Monotonic: lower or equal values
      are no-ops. Ignored unless it arrives from the replica's own pid. *)

  val skip : int -> msg
  (** [skip upto] is a control message a replica sends {e to itself} to
      fast-forward the commit frontier past slots [0 .. upto-1] without
      running them and without firing [on_commit] for them — the caller
      installed their outcomes out of band (crash recovery catches up missed
      slots through the service-level fetch lane, then skips the log past
      them). Slots beyond [upto] that decided passively while the replica
      lagged flush through [on_commit] immediately. Monotonic, and ignored
      unless it arrives from the replica's own pid — a forged skip from a
      peer could silence commits. *)

  val resend : msg
  (** A control message a replica sends {e to itself} when its log has
      stopped committing: it repeats every send of every slot it has not
      committed yet. The log otherwise never retransmits, so a message lost
      on the way (a UC proposal, a vote a quorum needs) can wedge a slot at
      every replica; instances treat the redelivery as a no-op. Ignored
      unless it arrives from the replica's own pid. *)

  type config = {
    pair : int -> Pair.t;  (** condition pair per slot (usually constant) *)
    n : int;
    t : int;
    seed : int;
    slots : int;  (** length of the log segment to agree on *)
    window : int;  (** max concurrently active slots (≥ 1) *)
  }

  val config :
    ?seed:int -> ?window:int -> pair:(int -> Pair.t) -> slots:int -> n:int -> t:int -> unit ->
    config
  (** Default window: 4.
      @raise Invalid_argument if [slots < 0] or [window < 1]. *)

  val replica :
    ?activation:[ `Eager | `On_demand ] ->
    ?retain:int ->
    ?base:int ->
    config ->
    me:Pid.t ->
    propose:(slot:int -> Value.t) ->
    on_commit:(slot:int -> provenance:Dex_core.Dex.provenance -> Value.t -> unit) ->
    msg Protocol.instance
  (** A replica proposing [propose ~slot] for each slot and reporting local
      commits in slot order through [on_commit] (called exactly once per
      slot, in increasing slot order, with the decision path that produced
      the commit).

      [propose ~slot] is evaluated once, when the slot's instance is first
      materialized — on local activation or on first remote traffic for the
      slot, whichever comes first.

      [retain] (default 64) bounds memory over long logs: the instance of a
      slot that trails the committed prefix by more than [retain] is
      retired, and straggler messages for it are dropped. Retired slots are
      already decided everywhere they can matter on a reliable transport;
      the margin only needs to cover transport skew, so keep it comfortably
      above [window].

      [base] (default 0) is the first unstable slot of a recovered replica:
      slots below it were committed and persisted in a previous life, so the
      log starts its frontier there — it neither runs nor reports them, and
      straggler traffic for them is dropped at the retention floor.
      @raise Invalid_argument if [retain < 1] or [base] is outside
      [0 .. slots]. *)

  val extra : config -> (Pid.t * msg Protocol.instance) list
  (** UC auxiliary nodes for {e all} slots, as lazily-populating per-pid
      dispatchers: the per-slot node is instantiated on first traffic for
      that slot, so arbitrarily large [slots] bounds cost nothing up front,
      and nodes trailing the traffic front by more than a fixed band are
      evicted. *)

  val equivocator :
    config -> me:Pid.t -> split:(slot:int -> Pid.t -> Value.t) -> msg Protocol.instance
  (** A Byzantine replica that, for every slot it sees traffic for, runs the
      lane's equivocator (e.g. [Dex.equivocator]): proposal [split ~slot dst]
      to each destination on the lane's first-step traffic. Purely
      reactive — it never initiates a slot. *)
end
