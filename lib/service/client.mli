(** Closed-loop service client and load generator.

    A client keeps one TCP connection to every replica's service port and is
    leader-less: {!submit} writes the request to {e all} live connections
    and keeps the first [Applied] reply (first-commit-wins). Requests carry
    a strictly-increasing [rid]; retransmits after a timeout are idempotent
    because replicas dedupe on [(client, rid)] (see {!Server}).

    One client value = one logical client = one outstanding request at a
    time (that is what makes [rid] dedupe sound). Drive several client
    values from several threads for concurrency. *)

type t

val connect : client:int -> int list -> t
(** [connect ~client ports] dials every port on loopback. [client] must be
    unique per deployment (it keys the servers' session tables). Replies
    arrive on the client's own event loop, with incremental frame
    reassembly and coalesced writes.
    @raise Invalid_argument if no port is reachable. *)

val dial :
  Dex_runtime.Reactor.t ->
  on_reply:(Wire.reply -> unit) ->
  int ->
  Dex_runtime.Reactor.Conn.t option
(** [dial r ~on_reply port] connects to a loopback service port with
    [TCP_NODELAY], attaches the socket to [r] and hands every reassembled
    reply frame to [on_reply] (on [r]'s loop thread). [None] when the port
    is unreachable or [r] refuses the descriptor (above
    {!Dex_runtime.Reactor.max_fds}); the socket is closed on every failure.
    The dial path shared by {!connect} and the sharded router. *)

val close : t -> unit

type result = {
  output : State_machine.output;
  slot : int;  (** log slot that carried the request *)
  provenance : Dex_core.Dex.provenance;  (** that slot's decision path *)
  latency : float;  (** seconds, submit to first commit reply *)
  retries : int;  (** retransmissions before the reply *)
}

val submit :
  ?timeout:float -> ?attempts:int -> t -> State_machine.command -> result option
(** Submit one command; block for the first commit reply. Per-attempt
    timeout [timeout] (default 1 s), at most [attempts] (default 5)
    transmissions; [None] when the budget is exhausted ([Busy] answers
    don't end an attempt — another replica may still commit it). *)

(** {2 Load generation} *)

module Load : sig
  type report = {
    issued : int;
    committed : int;
    failed : int;  (** retry budget exhausted *)
    duration : float;  (** wall seconds *)
    throughput : float;  (** committed ops / second *)
    latency : Dex_metrics.Stats.summary option;  (** in {e milliseconds} *)
    latency_hist : Dex_metrics.Histogram.t;
        (** keyed by [log2 (latency in µs)]: key 10 ≈ 1 ms, 20 ≈ 1 s *)
    one_step : int;  (** committed requests whose slot decided in one step *)
    two_step : int;
    underlying : int;
    retries : int;  (** total retransmissions *)
  }

  val run :
    ?pace:float ->
    ?timeout:float ->
    ?attempts:int ->
    duration:float ->
    t ->
    (int -> State_machine.command) ->
    report
  (** Closed-loop load for [duration] seconds: submit [workload i] for
      [i = 0, 1, …], each as soon as the previous commits. [pace > 0]
      spaces submissions at least [pace] seconds apart (a paced arrival
      process, still one outstanding). *)

  val run_many :
    ?clients:int ->
    ?timeout:float ->
    duration:float ->
    t ->
    (int -> State_machine.command) ->
    report
  (** [clients] (default 64) logical closed-loop clients multiplexed over
      one connection set in one thread: each keeps exactly one outstanding
      request (ids [t.client .. t.client + clients - 1] — space physical
      clients' ids accordingly), and submissions triggered by one wave of
      replies are flushed together. This is the throughput harness;
      {!run} is the latency harness. Requests still outstanding when the
      duration ends are counted [failed]. *)

  val pp_report : Format.formatter -> report -> unit
end
