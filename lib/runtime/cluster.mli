(** Loop-driven execution of protocol instances.

    Runs the {e same} [Protocol.instance] values as the discrete-event
    simulator, but on {!Reactor} loops over a real transport: each node runs
    on one loop (its own, or a loop shared with other nodes), and every
    callback of a node — an inbound frame, a timer, a message to itself —
    runs there, one at a time, as the paper's sequential process does.
    Inbound frames arrive through the transport's per-pid delivery hook; a
    timer is a {!Reactor.after} on the node's loop and a send to oneself is
    posted on it, so neither crosses the transport or its fault plan.
    Decisions are collected centrally. This is the "deployment-shaped" lane
    of the reproduction — the simulator answers step-count questions
    deterministically, the cluster demonstrates the stack running under true
    concurrency (and feeds the wall-clock benches). *)

open Dex_vector
open Dex_net

type decision = { value : Value.t; tag : string; wall : float (** seconds since start *) }

type 'msg t

val create :
  transport:'msg Transport.t ->
  n:int ->
  ?extra:(Pid.t * 'msg Protocol.instance) list ->
  ?reactor:Reactor.t ->
  ?loop_for:(Pid.t -> Reactor.t option) ->
  (Pid.t -> 'msg Protocol.instance) ->
  'msg t
(** Build a cluster of [n] protocol processes (pids [0 .. n-1]) plus
    auxiliary nodes. Nothing runs until {!start}. [loop_for pid] (asked
    once per node, after every instance is built) names the loop a node
    runs on; nodes it leaves out run on [reactor] when given, else on a
    private loop stopped by {!shutdown}, which also runs {!await}
    deadlines. Loops passed in are borrowed, never stopped here. *)

val start : 'msg t -> unit
(** Install every node's delivery hook and run every instance's [start] on
    its loop. *)

val stop_node : 'msg t -> Pid.t -> unit
(** Kill one node. Returns once no callback of the killed incarnation can
    run any more: one already running on its loop has finished, and its
    pending frames, timers and self-sends are tombstones. Traffic that
    reaches its endpoint while it is down is dropped. The transport endpoint
    stays up, so peers keep their links. The crash half of a single-node
    restart. No-op if the node is already stopped.
    @raise Invalid_argument on an unknown pid. *)

val start_node : 'msg t -> Pid.t -> loop:Reactor.t -> 'msg Protocol.instance -> unit
(** Restart a stopped node with a {e fresh} instance (typically rebuilt from
    durable state) on [loop], invoking the instance's [start]. The caller
    names the loop: the previous incarnation's may have stopped with it.
    It sees no traffic from while it was down — the new instance is
    expected to recover out of band.
    @raise Invalid_argument on an unknown pid, a node that is still running,
    or a cluster that is not running. *)

val await : ?timeout:float -> ?among:Pid.t list -> 'msg t -> bool
(** Block until every pid in [among] (default: all [n]) has decided, or the
    timeout (default 10 s) elapses; returns whether they all decided. The
    wait sleeps on a condition variable signalled per decision (no
    polling). *)

val decisions : 'msg t -> decision option array
(** Snapshot of decisions by pid (length [n]). *)

val shutdown : 'msg t -> unit
(** Stop every node (as {!stop_node} does), then close the transport.
    Idempotent and safe to call from several threads concurrently: one
    caller performs the teardown, the rest return once it has completed. *)
