(** Durability stage: the persist-before-reply queue over {!Dex_store}.

    Owns the replica's WAL, its group-commit syncer, the released-lsn
    watermark, the queue of replies waiting on that watermark, and the
    snapshot cadence. The contract it enforces: {b no reply leaves before
    the WAL record that justifies it is on disk}. A reply whose record is
    not yet covered by the durable watermark waits in the lane ({!gate})
    until the syncer's callback advances it ({!release_up_to}).

    Not internally synchronized: the owner drives every call from one
    thread (the replica's step, and the shell's WAL syncer on the same
    loop); only the WAL underneath has its own lock.

    With no data directory the lane is inert: {!append} returns lsn 0,
    which {!gate} treats as already-durable, so the undurable configuration
    costs one integer compare per reply. *)

type recovered = {
  snapshot : (int * string) option;  (** newest valid snapshot: slot, payload *)
  entries : string list;  (** surviving WAL records, lsn order *)
  had_state : bool;  (** any durable state (or a torn tail) was found *)
}

type t

val create :
  ?dir:string ->
  segment_bytes:int ->
  metrics:Dex_metrics.Registry.t ->
  unit ->
  t * recovered
(** With [dir], runs {!Dex_store.Recovery.run} (WAL counters land in
    [metrics] as [wal/*]; the lane adds [durability/snapshots]) and starts
    with both watermarks at the recovered last lsn. Without [dir] the lane
    is inert. *)

val enabled : t -> bool

val start_group_commit :
  reactor:Dex_runtime.Reactor.t ->
  t ->
  delay:float ->
  cap:int ->
  on_durable:(int -> unit) ->
  unit
(** Start the WAL group-commit syncer on [reactor]: the fsync cadence is a
    timer on that loop ({!Dex_store.Wal.syncer}), and [on_durable] runs
    there with each new watermark (call {!release_up_to} from it). No-op
    when the lane is inert. *)

val append : t -> string -> int
(** Append one commit record, returning the lsn that gates its replies
    (0 = already durable / durability off). Routes through the syncer when
    group commit is on; otherwise syncs inline (the record is durable — and
    the watermark advanced — before this returns). *)

val gate :
  t ->
  client:int ->
  rid:int ->
  lsn:int ->
  Wire.outcome ->
  reply:(client:int -> rid:int -> Wire.outcome -> unit) ->
  unit
(** Deliver the outcome now if [lsn] is covered by the released watermark,
    else queue it. *)

val kick : t -> unit
(** Ask the group-commit syncer for an immediate sync if any reply is queued
    behind the watermark ({!Wal.kick_syncer}) — call after an apply wave has
    gated its replies, so they pay one prompt fsync instead of the rest of
    the latency window. No-op when durability or group commit is off, or
    nothing is queued. *)

val release_up_to :
  t -> watermark:int -> reply:(client:int -> rid:int -> Wire.outcome -> unit) -> bool
(** Advance the released watermark, delivering every queued reply it now
    covers (in queue order per lsn). Returns whether it advanced. *)

val clear_queued : t -> unit
(** Drop every queued reply — after a snapshot transfer replaces the
    session table, queued replies for the old lsns are for clients that
    predate the crash anyway. *)

(** {2 Snapshot cadence} *)

val maybe_capture : t -> apply_next:int -> every:int -> encode:(unit -> string) -> unit
(** Capture a snapshot payload at the current apply boundary when the
    cadence is due (at most one capture outstanding). Capture is cheap and
    in-memory — call it on the apply path; the fsyncs happen in
    {!install_capture}. *)

val take_capture : t -> (int * string * int) option
(** Claim the outstanding capture (slot, payload, covering lsn), if any. *)

val install_capture : t -> slot:int -> payload:string -> covering_lsn:int -> unit
(** Persist a claimed capture: snapshot install (tmp + rename + dir sync),
    bump [durability/snapshots], truncate the WAL below the covering lsn.
    Runs on the replica's tick, off the apply path. *)

val note_installed : t -> slot:int -> payload:string -> unit
(** A snapshot transferred from a peer was just installed into the live
    state: persist it (and truncate the WAL behind it) {e before} anything
    after it can be applied or acknowledged — otherwise a crash here would
    leave WAL records unreachable behind a gap, losing acknowledged
    commits. Resets the cadence boundary to [slot]. *)

val preferred_snapshot_slot : t -> live:int -> int
(** The newest slot this replica can serve a snapshot for: the installed
    on-disk boundary when durable (deterministic cadence boundaries make
    [t+1] matching votes achievable), else [live]. *)

val load_disk_snapshot : t -> (int * string) option

(** {2 Observation / lifecycle} *)

val snapshot_slot : t -> int

val set_snapshot_slot : t -> int -> unit
(** Recovery found a snapshot at this boundary. *)

val wal_stats : t -> Dex_store.Wal.stats option

val durable_lsn : t -> int

val snapshots : t -> int
(** Snapshots installed locally (the [durability/snapshots] counter). *)

val stop : t -> unit
(** Final sync, stop the syncer, close the WAL. *)

val crash : t -> unit
(** Crash simulation: abandon syncer and WAL without the final sync. *)
