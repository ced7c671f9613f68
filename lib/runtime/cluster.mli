(** Loop-driven execution of protocol instances.

    Runs the {e same} [Protocol.instance] values as the discrete-event
    simulator, but on one {!Reactor} loop over a real transport: every
    callback of every node — an inbound frame, a timer, a message to itself
    — runs on that loop, one at a time, so each node is the paper's
    sequential process. Inbound frames arrive through the transport's
    per-pid delivery hook; a timer is a {!Reactor.after} on the loop and a
    send to oneself is posted on it, so neither crosses the transport or
    its fault plan.
    Decisions are collected centrally. This is the "deployment-shaped" lane
    of the reproduction — the simulator answers step-count questions
    deterministically, the cluster demonstrates the stack running over real
    sockets and wall-clock timers (and feeds the wall-clock benches). *)

open Dex_vector
open Dex_net

type decision = { value : Value.t; tag : string; wall : float (** seconds since start *) }

type 'msg t

val create :
  transport:'msg Transport.t ->
  n:int ->
  ?extra:(Pid.t * 'msg Protocol.instance) list ->
  ?reactor:Reactor.t ->
  (Pid.t -> 'msg Protocol.instance) ->
  'msg t
(** Build a cluster of [n] protocol processes (pids [0 .. n-1]) plus
    auxiliary nodes. Nothing runs until {!start}. Every node runs on
    [reactor] when given (borrowed, never stopped here), else on a private
    loop stopped by {!shutdown}; the same loop runs {!await} deadlines. *)

val start : 'msg t -> unit
(** Install every node's delivery hook and run every instance's [start] on
    the loop. *)

val stop_node : 'msg t -> Pid.t -> unit
(** Kill one node. Returns once no callback of the killed incarnation can
    run any more: one already running on the loop has finished, and its
    pending frames, timers and self-sends are tombstones. Traffic that
    reaches its endpoint while it is down is dropped. The transport endpoint
    stays up, so peers keep their links. The crash half of a single-node
    restart. No-op if the node is already stopped.
    @raise Invalid_argument on an unknown pid. *)

val start_node : 'msg t -> Pid.t -> 'msg Protocol.instance -> unit
(** Restart a stopped node with a {e fresh} instance (typically rebuilt from
    durable state), invoking the instance's [start] on the loop. It sees no
    traffic from while it was down — the new instance is expected to
    recover out of band.
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
