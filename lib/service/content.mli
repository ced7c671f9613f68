(** Content stage: batch content by digest, and everything about getting
    the content a replica is missing.

    Consensus decides digests; this stage holds the batches behind them
    (own proposals, peer payloads, fetch and decode results) and runs the
    lane that brings a replica the batch behind a committed digest it
    cannot resolve. It has two implementations behind this one signature,
    chosen once at {!create}:

    - {b full}: the classic whole-blob fetch — broadcast [Fetch], every
      holder answers with the batch, a [retry] self-timer re-broadcasts
      until it lands. A payload is recanonicalized and rehashed before it
      counts.
    - {b coded} (in the style of Liang & Vaidya's erasure-coded
      dissemination): the proposer's home replica pushes each peer its own
      systematic fragment; a missing batch is pulled as the fragment
      indices still needed and reconstructed from any [k] of [n]. A round
      timer re-requests for 3 rounds, backing off (round [r] waits
      [2^r x retry]), then fails over to the full lane —
      at most once per digest, also after a decode that does not rehash to
      the digest. Catch-up votes go digest-only and snapshots travel as one
      fragment per responder.

    Not internally synchronized: like {!Catch_up}, the replica drives it
    from its step and passes its apply frontier in as
    [frontier]. The
    stage never touches the apply loop: resolved content comes back as
    [(digest, batch)] for the replica to store with {!add} and apply.

    Counters, registered in the replica's registry whatever the lane:
    [service/fetches], [service/fetch_rtts], [service/fetch_bytes] and the
    [erasure/*] family. *)

open Dex_net

(** The stage's messages. The replica lifts them into its own wire type
    one to one. *)
type msg =
  | Fetch of int * int
      (** digest, stuck slot (the requester's frontier); from ourselves it
          is the full lane's retry timer *)
  | Batch_payload of int * Batch.t
  | Truncated of int
      (** refusal: we are past the requester's stuck slot and retired the
          content; the int is the newest slot we can serve a snapshot for *)
  | Frag_request of int * int * int
      (** digest, wanted-index bitmask (bit [n]: desperate round), stuck
          slot; from ourselves with mask 0 it is the coded round timer *)
  | Frag_payload of Dex_erasure.Fragment.t
  | Snapshot_fetch of int  (** requester's frontier; answered by {!serve_snapshot} *)
  | Snapshot_fetch_full of int  (** same, but always answered whole *)
  | Snapshot_payload of int * string
  | Snapshot_frag of { slot : int; frag : Dex_erasure.Fragment.t }
      (** [frag.digest] is the FNV-64 of the whole snapshot payload *)

type t

val create :
  metrics:Dex_metrics.Registry.t ->
  mode:Dex_erasure.Dissemination.mode ->
  n:int ->
  t:int ->
  me:Pid.t ->
  retry:float ->
  retain:int ->
  t
(** [retry]: fetch-round period (seconds). [retain]: keep content for this
    many slots behind the frontier. *)

(** {2 The store} *)

val find : t -> int -> Batch.t option

val add : t -> int -> Batch.t -> slot:int -> unit
(** Store verified content and {!pin} it at [slot]. *)

val pin : t -> int -> slot:int -> unit
(** Keep [digest]'s content while [slot] is within [retain] of the
    frontier; never lowers an existing pin. *)

val gc : t -> frontier:int -> unit
(** Retire content pinned more than [retain] slots behind the frontier,
    and coded fetch state nobody pins or fetches any more. *)

(** {2 The fetch lane} *)

val propose : t -> int -> Batch.t -> slot:int -> msg Protocol.action list
(** Our own proposal for [slot]: {!add} it, and on the coded lane, if we
    are the batch's home replica (digest mod n), push each peer its own
    fragment. *)

val request : t -> int -> frontier:int -> msg Protocol.action list
(** Start fetching a committed digest we do not hold; a no-op while it is
    already being fetched. *)

val fetching : t -> bool
(** Some digest is unresolved. *)

val fetches : t -> int
(** Fetches started ([service/fetches]). *)

val on_message :
  t ->
  frontier:int ->
  snapshot_slot:int ->
  from:Pid.t ->
  msg ->
  msg Protocol.action list * (int * Batch.t) option
(** Handle [Fetch], [Batch_payload], [Frag_request] and [Frag_payload]
    (other messages are ignored, as are fragments on the full lane).
    [snapshot_slot] goes into a [Truncated] refusal. Returns the replies
    plus the content this message resolved, if any: verified against its
    digest, no longer fetched, but not yet stored — {!add} it.

    Unsolicited fragments (a digest we are not fetching) are pooled only
    for [index = from] (a peer relaying its home fragment) or
    [index = me] (the home push), and only while fewer than 4,096 digests
    have pools. *)

val vote_content : t -> Batch.t -> Batch.t
(** What a catch-up vote for a held batch carries: the batch on the full
    lane; nothing on the coded lane, whose requester pulls it as fragments
    (a contentless vote, see {!Catch_up.record_slot_vote}). *)

(** {2 Snapshots} *)

val snapshot_fetch : t -> frontier:int -> msg Protocol.action list
(** One snapshot-fetch round to every peer. The coded lane asks for
    fragments for 2 rounds, then for the whole payload until
    {!snapshot_settled}. *)

val snapshot_settled : t -> unit
(** A snapshot installed or the catch-up finished: the next transfer
    starts over with fragments. *)

val serve_snapshot :
  t -> to_:Pid.t -> whole:bool -> slot:int -> string -> msg Protocol.action list
(** Ship the snapshot payload at [slot]: whole on the full lane or when
    [whole], else as our own fragment of it. *)

val snapshot_frag :
  t ->
  Catch_up.t ->
  from:Pid.t ->
  frontier:int ->
  slot:int ->
  validate:(string -> bool) ->
  Dex_erasure.Fragment.t ->
  (int * string) option
(** Pool one snapshot fragment in the catch-up stage's groups
    ({!Catch_up.record_snap_frag}); once a group can decode, reconstruct
    and return [(slot, payload)] if it hashes to the group's hash and
    [validate] accepts it. A failed reconstruction drops the group. *)
