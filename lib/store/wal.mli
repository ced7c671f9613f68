(** Segmented, checksummed write-ahead log with group commit.

    The durability backbone of the service lane: an append-only log of
    length-framed, FNV-64-checksummed records split across fixed-size
    segment files ([wal-<first-lsn>.seg] under one directory). Records are
    opaque byte strings — the caller brings its own codec
    ({!Dex_codec.Codec.encode}); the WAL adds framing, checksums, segment
    rotation and crash recovery.

    {b Durability contract:} {!append} buffers (the record reaches the OS on
    the channel's schedule, not the platter); {!sync} makes every appended
    record durable ([fsync]). Records are numbered by {e log sequence
    number} (lsn), starting at 1 and contiguous across segments, so
    "everything up to lsn [d] is durable" is a single watermark
    ({!durable_lsn}).

    {b Group commit:} a {!syncer} batches fsyncs under a latency cap (sync
    at least every [delay] seconds while records are pending) and a size cap
    (an append that finds [cap] records unsynced kicks the syncer
    immediately) — the fsync analogue of the service batcher. One fsync
    covers the whole group; the callback reports the new watermark so the
    caller can release acknowledgements.

    {b Crash tolerance:} {!open_} scans the segment chain and recovers the
    longest valid prefix: a torn or truncated tail record (a crash mid-write)
    is cut off, a checksum mismatch mid-segment cuts the log there and
    discards later segments, and a gap in the segment chain discards
    everything from the gap on. The file is truncated to the recovered
    prefix, so subsequent appends extend a clean log. *)

type t

type stats = {
  appends : int;  (** records appended this process lifetime *)
  fsyncs : int;
  synced_records : int;  (** appends covered by those fsyncs *)
  max_group : int;  (** largest single fsync group *)
  bytes : int;  (** payload bytes appended *)
  segments : int;  (** segment files currently on disk *)
}

type opened = {
  wal : t;
  entries : string list;  (** recovered record payloads, lsn order *)
  next_lsn : int;  (** lsn the next {!append} will get *)
  torn : bool;  (** a torn/corrupt tail or segment was cut off *)
  replay_ms : float;  (** wall time of the recovery scan *)
}

val open_ :
  ?metrics:Dex_metrics.Registry.t -> ?segment_bytes:int -> ?preallocate:bool -> string -> opened
(** Open (creating the directory if needed) and recover. [segment_bytes]
    (default 4 MiB) is the rotation threshold: a segment that reaches it is
    fsynced and closed, and appends continue in a fresh file. [metrics]
    (default: a private registry) receives the operational counters as
    [wal/appends], [wal/fsyncs], [wal/synced_records], [wal/bytes], the
    [wal/max_group] gauge and a [wal/segments] callback gauge; {!stats}
    reads the same registry back.

    [preallocate] (default [true]) extends each segment to [segment_bytes]
    at creation (ftruncate-ahead) so the group-commit fsync never pays block
    allocation or an inode size extension on the latency path; rotation and
    {!close} trim the file back to its logical size. Recovery tells the
    zero-filled preallocated tail apart from a torn record (an all-zero
    frame header is unforgeable — a length-0 record checksums to the
    nonzero FNV-64 basis) and does not report it as [torn].
    @raise Sys_error / [Unix.Unix_error] on filesystem failure. *)

val append : t -> string -> int
(** Append one record, returning its lsn. Buffered — not durable until the
    covering {!sync}. Thread-safe. *)

val flush : t -> unit
(** Push buffered appends to the OS ([write], no [fsync]) — records become
    visible to the filesystem but are {e not} durable. This is where a
    non-preallocated segment pays file extension (inode size update + block
    reservation), so benchmarks that want to see the allocate+extend path
    per record flush per append instead of riding the channel's 64 KiB
    buffer. Thread-safe; a no-op on a closed log. *)

val sync : t -> int
(** Flush and fsync everything appended; returns the new durable watermark.
    A no-op (returning the current watermark) when nothing is pending. *)

val last_lsn : t -> int
(** Highest lsn appended (0 when the log is empty). *)

val durable_lsn : t -> int

val unsynced : t -> int
(** Records appended but not yet covered by a {!sync}. *)

val truncate_below : t -> lsn:int -> unit
(** Drop whole segments every record of which has lsn [< lsn] — called after
    a snapshot makes the prefix redundant. Segment-granular: records below
    [lsn] sharing a segment with records at or above it (or with the append
    head) are kept. *)

val close : t -> unit
(** Flush, fsync and close. Idempotent. *)

val abandon : t -> unit
(** Crash simulation: release the fd {e without} flushing or fsyncing —
    buffered records are dropped as a power cut would drop them, and
    {!open_} must recover the durable prefix. Idempotent. *)

val stats : t -> stats

(** {2 Group commit} *)

type syncer

val syncer :
  ?delay:float ->
  ?cap:int ->
  ?reactor:Dex_runtime.Reactor.t ->
  t ->
  on_durable:(int -> unit) ->
  syncer
(** Start the background fsync batcher: while records are pending, {!sync}
    runs at least every [delay] seconds (default 1 ms); an {!syncer_append}
    that finds [cap] (default 64) records unsynced wakes it immediately.
    [on_durable] is called with each new watermark — release
    acknowledgements there.

    The cadence runs as a periodic timer on [reactor] — fsync and
    [on_durable] execute on its loop thread — and the size cap posts an
    immediate sync there. Without [reactor] the syncer creates a private
    loop, stopped by {!stop_syncer} or {!abandon_syncer}. *)

val syncer_append : syncer -> string -> int
(** {!append} through the group-commit path (kicks the syncer at the size
    cap). *)

val kick_syncer : syncer -> unit
(** Request an immediate sync of everything pending, without waiting for the
    latency cap — the fsync analogue of an explicit flush. Persist-before-
    reply callers kick as soon as a reply is gated on the durable watermark,
    so the reply pays one prompt fsync (covering its whole group) instead of
    the remainder of the [delay] window. No-op when nothing is pending. *)

val stop_syncer : syncer -> unit
(** Stop the cadence (cancelling the timer, and stopping a private loop),
    then a final sync with its [on_durable] on the calling thread.
    Idempotent. *)

val abandon_syncer : syncer -> unit
(** Crash simulation: stop the driver {e without} the final sync (pair with
    {!abandon}). Idempotent. *)

(** {2 Shared helpers} *)

val fnv64 : string -> int
(** The checksum used for records (FNV-1a folded into a native int) —
    exported for peers that need a cheap content fingerprint. *)

val fsync_dir : string -> unit
(** Fsync a directory so renames/creates within it are durable. Best-effort:
    errors (filesystems that refuse directory fsync) are swallowed. *)

val mkdir_p : string -> unit
