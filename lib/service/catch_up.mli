(** Catch-up stage: the vote-collecting state machine behind the
    Slot_commit / Truncated / snapshot-transfer lane.

    A replica that restarted (or fell behind) pulls the slots it missed
    from its peers' commit logs. Because up to [t] peers may be Byzantine,
    nothing is installed on one peer's word: a slot installs only with
    {b [t+1] matching votes} for the same (slot, digest) — at least one is
    then from a correct replica — and a transferred snapshot likewise needs
    [t+1] votes for byte-identical payloads. This module owns the vote and
    frontier tables and the accept/threshold logic; the replica drives it
    and performs the actual installs.

    Not internally synchronized: the owner drives it from one thread (the
    replica's step). All slot arguments are relative to the owner's current apply
    frontier, passed in as [frontier]. *)

open Dex_net

type t

val create : n:int -> t:int -> cap:int -> grace:float -> t
(** [n]/[t]: deployment size and fault bound (the vote threshold is
    [t + 1]). [cap]: chunk size a responder serves, which also bounds the
    vote window. [grace]: seconds before an unfinished round gives up and
    rejoins anyway. *)

val active : t -> bool

val begin_ : t -> now:float -> bool
(** Arm the gate and stamp the grace deadline; false (and no restamp) if
    already active — callers broadcast their frontier only on a fresh
    arm. *)

val restamp : t -> now:float -> unit
(** Push the grace deadline out from [now] — used when a replica
    constructed in catch-up mode actually starts. *)

val finish : t -> unit
(** Disarm and drop every table. The replica follows with its rejoin
    actions (log skip + window release). *)

val note_frontier : t -> peer:Pid.t -> int -> unit
(** A peer reported its apply frontier (Catch_up_done); keeps the max per
    peer. Ignored while inactive. *)

val satisfied : t -> now:float -> frontier:int -> bool
(** Done when [n - 1 - t] peers report a frontier we have reached, or the
    grace deadline has passed (progress over liveness: rejoin and let the
    normal lanes fill any remaining gap). False while inactive. *)

val record_slot_vote :
  t ->
  from:Pid.t ->
  frontier:int ->
  slot:int ->
  digest:int ->
  provenance:Dex_core.Dex.provenance ->
  batch:Batch.t ->
  bool
(** Accept a Slot_commit vote if active, the slot is inside the window
    [\[frontier, frontier + 4*cap)] (so Byzantine chaff cannot grow the
    tables without bound), and the batch actually hashes to the claimed
    digest (the empty digest requires the empty batch). An {e empty} batch
    with a non-empty digest is a contentless vote — it counts toward the
    threshold but carries no content (coded dissemination serves catch-up
    digest-only; the fragment lane delivers the content, verified against
    the digest). Returns whether the vote was accepted — the caller then
    polls {!installable}. *)

val installable :
  t -> frontier:int -> (int * Dex_core.Dex.provenance * Batch.t option) option
(** The (digest, provenance, content) installable {e at the frontier slot} —
    i.e. one with [t+1] votes — if any. The empty digest yields
    [(empty, Underlying, Some \[\])]; [None] content means every vote was
    contentless and the caller must pull the batch over the fetch lane.
    Each install advances the frontier and may unlock the next; call
    {!drop_below} after installing. *)

val drop_below : t -> frontier:int -> unit
(** Votes for slots now behind the frontier are spent; drop them. *)

val record_snap_vote :
  t ->
  from:Pid.t ->
  frontier:int ->
  slot:int ->
  payload:string ->
  validate:(string -> bool) ->
  (int * string) option
(** Accept a Snapshot_payload vote (keyed by the payload's FNV-64, so only
    byte-identical payloads accumulate votes) if active, ahead of the
    frontier, and [validate] accepts the payload (the replica checks it
    decodes). Returns [Some (slot, payload)] exactly when this vote reaches
    the [t+1] threshold — install it. *)

val record_snap_frag :
  t ->
  from:Pid.t ->
  frontier:int ->
  slot:int ->
  hash:int ->
  index:int ->
  body:string ->
  data:int ->
  len:int ->
  (int * int * (int * string) list * int) option
(** Accept one erasure-coded snapshot fragment (coded dissemination).
    Groups are keyed by (slot, payload hash): only fragments claiming the
    same reconstruction target pool together, and the first fragment fixes
    the (k = [data], [len]) geometry — mismatching chaff is dropped.
    Returns [Some (slot, hash, (index, body) list, len)] once the group has
    both [t+1] distinct voters (at least one correct replica vouches for
    the hash) and [>= k] distinct indices (reconstruction is possible). The
    caller decodes, verifies the payload hashes to [hash], and installs —
    calling {!drop_snap_group} if verification fails (some fragment lied). *)

val drop_snap_group : t -> slot:int -> hash:int -> unit
(** Discard a fragment group whose reconstruction failed verification. *)
