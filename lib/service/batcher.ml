(* See the interface; both entry points are straight transcriptions of the
   logic that lived inline in the server monolith, so the timing behaviour
   (and hence the one-step rate) is unchanged. *)

let cut adm ~now ~settle ~cap =
  let cutoff = now -. settle in
  (* [oldest] deliberately spans the whole pending set, proposed requests
     included: a request stays pending until applied, and its proposal can
     lose the slot (contention, an equivocator's chaff, cap truncation), in
     which case it must keep the batcher armed for the next slot. The
     [idle] gate in [tick] keeps this from releasing slots while the
     covering proposal is still in flight. *)
  let requests, oldest =
    Admission.fold adm
      (fun r ~admitted (acc, oldest) ->
        ((if admitted <= cutoff then r :: acc else acc), Float.min oldest admitted))
      ([], Float.infinity)
  in
  Admission.set_oldest adm oldest;
  Batch.canonical ~cap requests

type decision = { fire : bool; wedged : bool }

let stall_after ~catchup_retry ~batch_delay =
  Float.max (5.0 *. catchup_retry) (25.0 *. batch_delay)

let tick ~now ~catching_up ~backlog ~oldest ~settle ~batch_delay ~catchup_retry ~idle
    ~outstanding ~last_progress ~last_release ~last_watchdog =
  let want = (not catching_up) && backlog > 0 && now -. oldest >= settle in
  (* Release a new slot only when the log is locally quiet (everything
     touched has been applied) — if a slot is already in flight, pending
     requests ride it via propose-on-contact, and releasing more slots
     would just commit the same batch several times. The overdue valve
     breaks stalls (slot gaps opened by a Byzantine initiator, lost
     releases): after ~10 ticks without progress or release, release
     anyway. *)
  let overdue = now -. Float.max last_progress last_release > 10.0 *. batch_delay in
  let fire = want && (idle || overdue) in
  (* Stall watchdog: outstanding work (started-but-undecided slots, or
     commits we cannot apply) with no progress for a while means some
     quorum is wedged on traffic we never saw — a restarted replica's
     endpoint was drained while it was down, or a link lost a message.
     The replica then (re-)enters catch-up, which pulls the slots the
     peers committed from their commit logs, and has its log resend its
     uncommitted slots' traffic, for the slots that no replica could
     decide. Progress resets the clock, so a healthy replica never fires
     this; a release does not, or the overdue valve, which fires every ~10
     ticks while a backlog waits, would keep a replica that missed one
     slot's decision from ever catching up. *)
  let sa = stall_after ~catchup_retry ~batch_delay in
  let wedged =
    (not catching_up) && outstanding && now -. last_progress > sa && now -. last_watchdog > sa
  in
  { fire; wedged }
