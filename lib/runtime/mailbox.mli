(** Thread-safe blocking FIFO queues — the reply inbox of the service
    clients, and the receive buffer of a transport endpoint that has no
    delivery hook installed. *)

type 'a t

val create : unit -> 'a t
(** Blocked {!pop} deadlines are re-checked by a per-mailbox watcher
    thread, spawned on the first {!pop} and joined by {!close}. *)

val push : 'a t -> 'a -> unit
(** Never blocks (unbounded queue). Pushing to a closed mailbox is a no-op:
    shutdown races lose messages by design, like a dead network peer. *)

val pop : timeout:float -> 'a t -> 'a option
(** Block up to [timeout] seconds for an element. [None] on timeout or when
    the mailbox is closed and drained. Deadline precision is one tick
    (5 ms) — arrival latency is sharp, timeout latency is coarse. *)

val take_all : 'a t -> 'a list
(** Remove and return every queued element, oldest first, without
    blocking. *)

val close : 'a t -> unit
(** Wake all blocked readers and join the watcher thread (if any);
    subsequent pushes are dropped. *)

val length : 'a t -> int
