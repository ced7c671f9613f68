(** The client-facing front of a sharded deployment.

    A router terminates client sessions, classifies every request to its
    owning consensus group through a {!Shard_map}, submits it to {e all
    replicas of exactly that group} (first-commit-wins within the group,
    nothing crosses groups), and merges the reply streams of every group
    back into one session, deduped per [(client, rid)].

    The dedupe core ({!Dedupe}) pins each in-flight rid to the shard it was
    dispatched to and keeps a per-client settled watermark, so of the many
    [Applied] replies one request legitimately produces (every replica of
    the owning group answers) exactly one counts — and a reply from a group
    that does {e not} own the rid is surfaced as a misroute (an invariant
    violation of the map, counted, never delivered).

    Like {!Client}, one router value is single-threaded: drive it from one
    thread, or create several routers. *)

open Dex_service

type t

val connect :
  map:Shard_map.t ->
  client:int ->
  int list list ->
  t
(** [connect ~map ~client ports_per_shard] dials every replica of every
    shard on loopback; the outer list must have one entry (that shard's
    service ports) per {!Shard_map.shards} shard, in shard order. [client]
    is the base logical client id (see {!Load.run_many}). All connections
    share a single router-owned event loop ({!Client.dial}).
    @raise Invalid_argument on a shard-count mismatch, or when some shard
    has no reachable replica. *)

val close : t -> unit

val map : t -> Shard_map.t

val submit :
  ?timeout:float -> ?attempts:int -> t -> State_machine.command -> Client.result option
(** Submit one command through the map; block for the first commit reply
    from the owning shard. Same budget semantics as {!Client.submit}. *)

(** {2 Session dedupe} *)

module Dedupe : sig
  type t

  val create : unit -> t

  val route : t -> client:int -> rid:int -> shard:int -> unit
  (** Record that [rid] of [client] was dispatched to [shard]; later calls
      with a higher rid move the pin (closed-loop sessions issue rids in
      order). *)

  val settle : t -> client:int -> rid:int -> shard:int -> [ `First | `Duplicate | `Misrouted ]
  (** A commit reply for [(client, rid)] arrived from [shard]. [`First]:
      count it. [`Duplicate]: the rid is at or below the client's settled
      watermark — a replica echo or a retransmit answered twice.
      [`Misrouted]: the live rid's reply came from a shard that does not
      own it — a shard-map invariant violation. *)

  val duplicates : t -> int

  val misroutes : t -> int
end

val dedupe : t -> Dedupe.t
(** The router's live dedupe core (for observation after a run). *)

(** {2 Load generation} *)

module Load : sig
  type shard_stat = { s_issued : int; s_committed : int }

  type report = {
    agg : Client.Load.report;  (** the cross-shard aggregate *)
    per_shard : shard_stat array;  (** routing and commit breakdown *)
    dup_replies : int;  (** replies dropped by the settled watermark *)
    misroutes : int;  (** correctness target: 0 *)
  }

  val run_many :
    ?clients:int ->
    ?timeout:float ->
    duration:float ->
    t ->
    (int -> State_machine.command) ->
    report
  (** The throughput harness, also for an unsharded deployment (a
      one-shard map over its one group): [clients] (default 64) logical
      closed-loop clients with ids [client .. client + clients - 1], one
      thread, each request routed by the map, retransmitted only to its
      pinned shard, and submissions triggered by one reply wave flushed
      coalesced per connection. Issuing stops when the duration ends;
      the requests still outstanding then get up to [timeout] (default
      1 s, also the retransmit interval) more to be answered, and only
      those still unanswered count [failed]. Rid sequences are router state,
      not run state: a second run on the same router continues them, so
      its requests are fresh to the servers' session caches and to the
      dedupe watermark alike. *)

  val pp_report : Format.formatter -> report -> unit
end
