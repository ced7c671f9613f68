(** Single-threaded event loop over [Unix.select]: the I/O core of the
    runtime.

    One reactor owns one loop thread. File descriptors register interest in
    readability/writability; timers fire ordered by deadline from a binary
    heap; closures posted from other threads run on the loop thread at the
    next iteration. All registration calls are thread-safe and wake the loop
    through a self-pipe, so a sleeping [select] picks up new interest
    immediately.

    Callbacks run {e on the loop thread, outside the reactor lock}: they may
    freely register, deregister, schedule or cancel — including removing a
    descriptor whose readiness was reported in the same iteration (the
    dispatcher re-checks registration before every invocation, so a handler
    never fires after {!remove} returns on the loop thread). An exception
    escaping a callback is counted ([reactor/handler_errors]) and reported
    on stderr, but never kills the loop.

    {b Capacity:} [select] is limited to [FD_SETSIZE] (1024) descriptors.
    Registration past the limit raises [Invalid_argument] with a clear
    message instead of letting [select] fail with [EINVAL] mid-loop. *)

type t

val create : ?metrics:Dex_metrics.Registry.t -> ?name:string -> unit -> t
(** Create the reactor and spawn its loop thread. [metrics] (when given)
    receives [reactor/fds] and [reactor/timers] callback gauges plus the
    [reactor/loops] and [reactor/handler_errors] counters. [name] labels
    stderr reports from escaped callbacks. *)

val stop : t -> unit
(** Stop the loop and join its thread (unless called from a callback on the
    loop thread itself, in which case the loop exits right after the current
    iteration and the thread is left to finish on its own). Idempotent.
    After [stop], registrations are accepted but inert and timers never
    fire. *)

val stopped : t -> bool

val on_loop : t -> bool
(** Whether the calling thread is this reactor's loop thread — how a caller
    tells that work it hands the loop will run after its own turn. *)

val max_fds : int
(** The [select] capacity bound (FD_SETSIZE, 1024). *)

(** {2 Descriptor interest} *)

val on_readable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Register (or replace) the readable handler for a descriptor.
    @raise Invalid_argument when the descriptor is [>= max_fds]. *)

val on_writable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Register (or replace) the writable handler. Writable interest is
    typically armed only while an output queue is nonempty — a permanently
    armed handler busy-spins the loop. *)

val clear_writable : t -> Unix.file_descr -> unit
(** Drop writable interest, keeping any readable handler. *)

val remove : t -> Unix.file_descr -> unit
(** Drop all interest in the descriptor. Does not close it. *)

val fd_count : t -> int

(** {2 Timers} *)

type timer

val after : t -> float -> (unit -> unit) -> timer
(** One-shot timer: run the closure on the loop thread [delay] seconds from
    now. Timers with equal deadlines fire in scheduling order. *)

val every : t -> float -> (unit -> unit) -> timer
(** Periodic timer with fixed delay between the end of one firing and the
    next deadline computation (period measured firing-to-firing, not
    drift-corrected). *)

val cancel : t -> timer -> unit
(** Cancel a timer; a periodic timer stops rescheduling. Cancelling a timer
    that already fired (or twice) is a no-op. *)

val timer_count : t -> int
(** Live entries in the timer heap (cancelled-but-unpopped entries count). *)

val post : t -> (unit -> unit) -> unit
(** Run a closure on the loop thread as soon as possible — the cross-thread
    entry point (equivalent to [after t 0.0] but cheaper). Closures run in
    posting order. A post from the loop thread itself writes no wake pipe:
    the closure runs on the next loop turn, after that turn's [select]
    (which then does not sleep) and its ready descriptors. *)

val call : t -> (unit -> 'a) -> 'a
(** Run a closure on the loop thread and wait for its result (or its
    exception) — how other threads read state the loop owns. Runs the
    closure directly when the caller already is the loop thread, or once
    the loop thread has exited, so it never hangs on a stopped loop. *)

(** {2 Buffered connections}

    A [Conn] owns a nonblocking descriptor registered on a reactor: inbound
    bytes are read into a reactor-wide reusable buffer and handed to
    [on_bytes]; outbound frames are queued and flushed by the writable
    handler, coalescing as many frames as fit into one reusable write buffer
    per [write] syscall — the writev-style batching that replaces
    per-message [flush]. *)

module Conn : sig
  type reactor := t

  type t

  val attach :
    reactor ->
    Unix.file_descr ->
    on_bytes:(bytes -> int -> unit) ->
    on_close:(unit -> unit) ->
    t
  (** Take ownership of the descriptor: set it nonblocking and register it.
      [on_bytes buf len] is called on the loop thread with each received
      chunk; the buffer is reused, so the callback must consume (copy or
      parse) before returning. An exception escaping [on_bytes] closes the
      connection — a codec's [Decode_error] tears down exactly this peer.
      [on_close] fires once, on EOF, read/write error or [on_bytes] failure
      — {e not} on an explicit {!close}.
      @raise Invalid_argument when the descriptor is [>= max_fds]. *)

  val send : t -> string -> unit
  (** Enqueue one frame (thread-safe) and arm the writable handler. Frames
      are delivered in order; a frame is never interleaved inside another.
      Sending on a closed connection is a silent drop — shutdown races lose
      messages like a dead peer would. *)

  val buffer : t -> string -> unit
  (** Enqueue one frame without scheduling the loop-side flush (thread-safe).
      {b Must} be paired with a {!pump} from the same caller — a buffered
      frame nobody pumps is not delivered until some later {!send} arms the
      connection. A wave of [buffer] calls followed by one [pump] that drains
      them never touches the reactor at all: no interest change, no wake
      pipe, no loop turn. Use {!send} when no pump is guaranteed. *)

  val pump : t -> unit
  (** Flush everything queued right now, coalesced into one [write], from the
      calling thread (thread-safe) — instead of waiting a loop turn for the
      armed writability callback. Senders enqueue a wave of frames with
      {!buffer} (or {!send}) and pump once at the wave boundary, taking the
      reactor wake-up off the latency path. Whatever the socket refuses is
      armed for the loop-side flush; a hard write error is also left for that
      flush to surface, so teardown never runs under a caller's locks. *)

  val close : t -> unit
  (** Deregister and close the descriptor. Pending unwritten frames stay
      readable through {!unsent}. Idempotent; does not fire [on_close]. *)

  val is_open : t -> bool

  val unsent : t -> string list
  (** Frames enqueued but not fully written, oldest first — the head frame
      may have been partially transmitted, and is returned whole (the peer's
      framing layer discards the partial tail when the connection dies, so
      resending the whole frame on a fresh connection is safe). *)

  val pending_bytes : t -> int

  val hwm : t -> int
  (** High-water mark of {!pending_bytes} over the connection's lifetime. *)

  val fd : t -> Unix.file_descr
end
