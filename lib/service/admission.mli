(** Admission stage: the bounded queue of client requests accepted but not
    yet applied.

    A request is admitted at most once per (client, rid) key and the queue
    is bounded by [cap]; overflow is the caller's cue to answer
    {!Wire.Busy} (backpressure). The stage also maintains the batcher's
    arming invariant: [oldest] is the minimum admission time over the
    {e whole} pending set — proposed-but-not-yet-applied requests included,
    since a proposal can lose its slot and the request must keep the
    batcher armed for the next one.

    Not internally synchronized: the owner drives it from one thread (the
    replica's step). *)

type verdict = Admitted | Duplicate | Overflow

type t

val create : cap:int -> t

val admit : t -> now:float -> Wire.request -> verdict
(** Record the request keyed by (client, rid), stamping [now] as its
    admission time and lowering [oldest] accordingly. *)

val remove : t -> client:int -> rid:int -> unit
(** Drop one request (it was applied, or superseded). Does {e not} restore
    the [oldest] invariant — call {!refresh_oldest} after a removal wave. *)

val size : t -> int

val oldest : t -> float
(** Minimum admission time over the pending set; [infinity] when empty. *)

val set_oldest : t -> float -> unit
(** Overwrite [oldest] — used by {!Batcher.cut}, which recomputes it in the
    same fold that selects the batch. *)

val refresh_oldest : t -> unit
(** Recompute [oldest] by folding the pending set (bounded by [cap], so one
    fold per applied batch is cheap). *)

val fold : t -> (Wire.request -> admitted:float -> 'a -> 'a) -> 'a -> 'a
