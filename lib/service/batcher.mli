(** Batcher stage: when to cut a batch, and what goes in it.

    Two pure-ish entry points, factored out of the replica so the timing
    rules that protect the one-step rate are unit-testable without a live
    deployment:

    - {!cut} selects the proposal content for a slot: the canonical batch
      of every pending request that has {e settled} for at least [settle]
      seconds. Replicas activate a slot at slightly different instants, and
      a request whose submit-to-all fan-out straddles that skew would make
      the proposals diverge (costing the one-step path); a cutoff pushed
      [settle] into the past falls in the quiet gap between request waves,
      so every replica cuts the same batch.
    - {!tick} is the replica's per-tick decision: whether to release
      the next slot ([fire]) and whether the stall watchdog should force a
      catch-up round ([wedged]). *)

val cut : Admission.t -> now:float -> settle:float -> cap:int -> Batch.t
(** Cut the settled batch (capped at [cap] by {!Batch.canonical}) and
    re-arm the admission stage's [oldest] over the {e whole} pending set —
    including requests that just made the batch, since their proposal can
    still lose the slot. *)

type decision = { fire : bool; wedged : bool }

val stall_after : catchup_retry:float -> batch_delay:float -> float
(** How long without progress before the watchdog may fire:
    [max (5 * catchup_retry) (25 * batch_delay)]. *)

val tick :
  now:float ->
  catching_up:bool ->
  backlog:int ->
  oldest:float ->
  settle:float ->
  batch_delay:float ->
  catchup_retry:float ->
  idle:bool ->
  outstanding:bool ->
  last_progress:float ->
  last_release:float ->
  last_watchdog:float ->
  decision
(** [fire] iff there is settled backlog ([backlog > 0] and [oldest] at
    least [settle] old) and either the log is locally quiet ([idle]) or
    neither progress ([last_progress]: a commit, apply or install) nor a
    release ([last_release]) has happened for 10 batch delays (the overdue
    valve). [wedged] iff [outstanding] work exists and both [last_progress]
    and [last_watchdog] are more than {!stall_after} ago; releases do not
    count as progress there. Both legs are gated on [not catching_up]: a
    catching-up replica neither proposes nor watchdogs. *)
