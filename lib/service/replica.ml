open Dex_condition
open Dex_net
open Dex_smr

module Registry = Dex_metrics.Registry
module PL = Dex_core.Protocol_lane

module Make (L : PL.LANE) = struct
  module Log = Replicated_log.Make (L)

  type smsg =
    | Log_msg of Log.msg
    | Fetch of int * int  (* digest, stuck slot (the requester's apply frontier) *)
    | Batch_payload of int * Batch.t
    | Truncated of int
        (* fetch/catch-up refusal: the peer retired that history; the int is
           the newest slot it can serve a snapshot for *)
    | Catch_up of int  (* from_slot; from ourselves it is the retry timer *)
    | Slot_commit of {
        slot : int;
        digest : int;
        provenance : Dex_core.Dex.provenance;
        batch : Batch.t;
      }
    | Catch_up_done of int  (* the responder's apply frontier *)
    | Snapshot_fetch of int  (* the requester's apply frontier *)
    | Snapshot_payload of int * string  (* slot, encoded snapshot payload *)
    | Frag_request of int * int * int
        (* digest, wanted-index bitmask, stuck slot; from ourselves with
           mask 0 it is the coded-fetch fallback timer *)
    | Frag_payload of Dex_erasure.Fragment.t
    | Snapshot_frag of { slot : int; frag : Dex_erasure.Fragment.t }
        (* one erasure-coded fragment of the snapshot payload at [slot];
           [frag.digest] is the FNV-64 of the whole payload *)
    | Snapshot_fetch_full of int
        (* requester's apply frontier; always answered with a full
           [Snapshot_payload] — the coded lane's alignment fallback *)

  let smsg_codec =
    let open Dex_codec.Codec in
    variant ~name:"Server.smsg"
      (function
        | Log_msg m -> (0, fun buf -> Log.codec.write buf m)
        | Fetch (d, slot) ->
          ( 1,
            fun buf ->
              int.write buf d;
              int.write buf slot )
        | Batch_payload (d, b) ->
          ( 2,
            fun buf ->
              int.write buf d;
              Batch.codec.write buf b )
        | Truncated slot -> (3, fun buf -> int.write buf slot)
        | Catch_up from_slot -> (4, fun buf -> int.write buf from_slot)
        | Slot_commit { slot; digest; provenance; batch } ->
          ( 5,
            fun buf ->
              int.write buf slot;
              int.write buf digest;
              Wire.provenance_codec.write buf provenance;
              Batch.codec.write buf batch )
        | Catch_up_done frontier -> (6, fun buf -> int.write buf frontier)
        | Snapshot_fetch from_slot -> (7, fun buf -> int.write buf from_slot)
        | Snapshot_payload (slot, payload) ->
          ( 8,
            fun buf ->
              int.write buf slot;
              string.write buf payload )
        | Frag_request (d, mask, slot) ->
          ( 9,
            fun buf ->
              int.write buf d;
              int.write buf mask;
              int.write buf slot )
        | Frag_payload frag -> (10, fun buf -> Dex_erasure.Fragment.codec.write buf frag)
        | Snapshot_frag { slot; frag } ->
          ( 11,
            fun buf ->
              int.write buf slot;
              Dex_erasure.Fragment.codec.write buf frag )
        | Snapshot_fetch_full from_slot -> (12, fun buf -> int.write buf from_slot))
      (fun tag r ->
        match tag with
        | 0 -> Log_msg (Log.codec.read r)
        | 1 ->
          let d = int.read r in
          Fetch (d, int.read r)
        | 2 ->
          let d = int.read r in
          Batch_payload (d, Batch.codec.read r)
        | 3 -> Truncated (int.read r)
        | 4 -> Catch_up (int.read r)
        | 5 ->
          let slot = int.read r in
          let digest = int.read r in
          let provenance = Wire.provenance_codec.read r in
          Slot_commit { slot; digest; provenance; batch = Batch.codec.read r }
        | 6 -> Catch_up_done (int.read r)
        | 7 -> Snapshot_fetch (int.read r)
        | 8 ->
          let slot = int.read r in
          Snapshot_payload (slot, string.read r)
        | 9 ->
          let d = int.read r in
          let mask = int.read r in
          Frag_request (d, mask, int.read r)
        | 10 -> Frag_payload (Dex_erasure.Fragment.codec.read r)
        | 11 ->
          let slot = int.read r in
          Snapshot_frag { slot; frag = Dex_erasure.Fragment.codec.read r }
        | 12 -> Snapshot_fetch_full (int.read r)
        | other -> bad_tag ~name:"Server.smsg" other)

  type config = {
    n : int;
    t : int;
    seed : int;
    pair : int -> Pair.t;
    window : int;
    slots : int;
    batch_cap : int;
    batch_delay : float;
    settle : float;
    queue_cap : int;
    fetch_retry : float;
    retain : int;
    commit_log_cap : int;
    data_dir : string option;
    wal_segment_bytes : int;
    group_commit : bool;
    sync_delay : float;
    sync_cap : int;
    snapshot_every : int;
    catchup_cap : int;
    catchup_retry : float;
    catchup_grace : float;
    dissemination : Dex_erasure.Dissemination.mode;
  }

  let config ?(seed = 0) ?(window = 8) ?(slots = 1 lsl 20) ?(batch_cap = 256)
      ?(batch_delay = 0.002) ?(settle = 0.0001) ?(queue_cap = 4096) ?(fetch_retry = 0.05)
      ?(retain = 256) ?(commit_log_cap = 1 lsl 16) ?data_dir
      ?(wal_segment_bytes = 4 * 1024 * 1024) ?(group_commit = true) ?(sync_delay = 0.001)
      ?(sync_cap = 64) ?(snapshot_every = 4096) ?(catchup_cap = 256) ?(catchup_retry = 0.05)
      ?(catchup_grace = 5.0) ?(dissemination = Dex_erasure.Dissemination.Full) ~pair ~n ~t () =
    if batch_cap < 1 then invalid_arg "Server.config: batch_cap must be >= 1";
    if batch_delay <= 0.0 then invalid_arg "Server.config: batch_delay must be > 0";
    if settle < 0.0 then invalid_arg "Server.config: settle must be >= 0";
    if queue_cap < 1 then invalid_arg "Server.config: queue_cap must be >= 1";
    if retain < 2 * window then invalid_arg "Server.config: retain must be >= 2*window";
    if commit_log_cap < 1 then invalid_arg "Server.config: commit_log_cap must be >= 1";
    if wal_segment_bytes < 4096 then
      invalid_arg "Server.config: wal_segment_bytes must be >= 4096";
    if sync_delay <= 0.0 then invalid_arg "Server.config: sync_delay must be > 0";
    if sync_cap < 1 then invalid_arg "Server.config: sync_cap must be >= 1";
    if snapshot_every < 1 then invalid_arg "Server.config: snapshot_every must be >= 1";
    if catchup_cap < 1 then invalid_arg "Server.config: catchup_cap must be >= 1";
    if catchup_retry <= 0.0 then invalid_arg "Server.config: catchup_retry must be > 0";
    if catchup_grace <= 0.0 then invalid_arg "Server.config: catchup_grace must be > 0";
    { n; t; seed; pair; window; slots; batch_cap; batch_delay; settle; queue_cap; fetch_retry;
      retain; commit_log_cap; data_dir; wal_segment_bytes; group_commit; sync_delay; sync_cap;
      snapshot_every; catchup_cap; catchup_retry; catchup_grace; dissemination }

  let log_config cfg =
    Log.config ~seed:cfg.seed ~window:cfg.window ~pair:cfg.pair ~slots:cfg.slots ~n:cfg.n
      ~t:cfg.t ()

  (* Each replica's durable state lives in its own subdirectory of the
     configured base, so one config serves a whole deployment. *)
  let replica_dir cfg me =
    Option.map (fun base -> Filename.concat base (Printf.sprintf "replica-%d" me)) cfg.data_dir

  (* One WAL record per applied slot (empty slots included, so replay is
     slot-contiguous): the commit plus the batch content, self-sufficient
     for replay without the digest store. *)
  let wal_record_codec =
    let open Dex_codec.Codec in
    conv
      (fun (slot, digest, provenance, batch) -> (slot, (digest, (provenance, batch))))
      (fun (slot, (digest, (provenance, batch))) -> (slot, digest, provenance, batch))
      (pair int (pair int (pair Wire.provenance_codec Batch.codec)))

  (* Snapshot payload: state-machine snapshot + session table (as replies,
     sorted by client). Deterministic given the applied prefix, so correct
     replicas snapshotting at the same slot produce byte-identical payloads —
     which is what lets a catch-up install demand [t+1] matching votes. *)
  let snap_payload_codec =
    let open Dex_codec.Codec in
    pair (list (pair string int)) (list Wire.reply_codec)

  type stats = {
    committed_slots : int;
    empty_slots : int;
    one_step : int;  (** non-empty committed slots decided on the one-step path *)
    two_step : int;
    underlying : int;
    applied : int;
    suppressed_duplicates : int;
    busy_rejections : int;
    fetches : int;
    backlog : int;
    apply_lag : int;
    recovered_slots : int;  (** slots replayed from snapshot+WAL at startup *)
    catchup_installed : int;  (** slots installed over the peer catch-up lane *)
    state_transfers : int;  (** snapshots installed from a peer *)
    snapshots : int;  (** snapshots installed locally *)
  }

  type event =
    | Start
    | Message of Pid.t * smsg
    | Request of Wire.request
    | Tick
    | Cut
    | Durable of int

  type effect =
    | Act of smsg Protocol.action
    | Reply of Wire.reply
    | Arm_cut of float
    | Via_transport of Pid.t * smsg

  type t = {
    cfg : config;
    me : Pid.t;
    (* Pipeline stages. The admission queue and batcher decide what enters a
       proposal; the durability lane gates replies on the WAL; catch-up
       holds the vote tables of the recovery lane; the content stage holds
       batches by digest and fetches the ones we miss. All are driven from
       [step]. *)
    admission : Admission.t;
    lane : Durability_lane.t;
    cu : Catch_up.t;
    content : Content.t;
    (* Per-client session: last applied rid, its cached outcome, and the WAL
       lsn that makes it durable (0 when durable already / durability off) —
       client retries are idempotent, and a reply never leaves before its
       record is on disk. *)
    sessions : (int, int * Wire.outcome * int) Hashtbl.t;
    commit_buf : (int, int * Dex_core.Dex.provenance) Hashtbl.t;  (* slot -> commit *)
    mutable log : Log.msg Protocol.instance;  (* set in [create]: its callbacks close over [t] *)
    mutable effects : effect list;  (* the current step's effects, newest first *)
    mutable now : float;  (* the current step's clock *)
    mutable state : State_machine.t;
    (* Newest first; bounded by [commit_log_cap] (a long-lived server would
       otherwise leak one entry per slot forever). Truncated lazily at twice
       the cap, so the amortized append cost stays O(1). *)
    mutable commit_log : (int * int * Dex_core.Dex.provenance) list;
    mutable commit_log_len : int;
    mutable commit_log_floor : int;  (* no commit-log coverage below this slot *)
    mutable apply_next : int;
    mutable next_slot : int;  (* one past the highest slot this replica has touched *)
    mutable last_progress : float;  (* time of the last commit/apply/release *)
    mutable last_watchdog : float;  (* last stall-watchdog firing *)
    (* Per-replica metrics registry: every counter below, the [wal/*] and
       [durability/*] families, and the backlog/apply-lag gauges. *)
    metrics : Registry.t;
    c_committed : Registry.counter;
    c_empty : Registry.counter;
    (* One counter per decision provenance, named
       ["service/" ^ Protocol_lane.metric_of_provenance p] — the single
       mapping the stats report and the server's registry dump both read. *)
    c_provenance : (PL.provenance * Registry.counter) list;
    c_applied : Registry.counter;
    c_suppressed : Registry.counter;
    c_busy : Registry.counter;
    c_recovered : Registry.counter;
    c_catchup_installed : Registry.counter;
    c_state_transfers : Registry.counter;
    mutable cut_armed : bool;  (* a one-shot cut is outstanding *)
    (* Extra delay added to the one-shot cut timer beyond settle-eligibility.
       Adaptive: every underlying-provenance commit is evidence the replicas
       cut divergent batches (some loop proposed before its client reads
       drained), so the margin widens multiplicatively; one-step commits
       decay it back toward the floor. In-process waves keep it at the floor
       (~0.1 ms); cross-process saturation finds the knee where cuts land in
       wave gaps again. *)
    mutable cut_margin : float;
  }

  let push t effect = t.effects <- effect :: t.effects

  let push_action t action = push t (Act action)

  let drain t =
    let effects = List.rev t.effects in
    t.effects <- [];
    effects

  let lift actions = List.map (fun a -> Act a) (Protocol.map_actions (fun m -> Log_msg m) actions)

  (* The content stage speaks a subset of [smsg], one to one. *)
  let emit t actions =
    List.iter (push_action t)
      (Protocol.map_actions
         (function
           | Content.Fetch (d, slot) -> Fetch (d, slot)
           | Content.Batch_payload (d, b) -> Batch_payload (d, b)
           | Content.Truncated slot -> Truncated slot
           | Content.Frag_request (d, mask, slot) -> Frag_request (d, mask, slot)
           | Content.Frag_payload frag -> Frag_payload frag
           | Content.Snapshot_fetch slot -> Snapshot_fetch slot
           | Content.Snapshot_fetch_full slot -> Snapshot_fetch_full slot
           | Content.Snapshot_payload (slot, payload) -> Snapshot_payload (slot, payload)
           | Content.Snapshot_frag { slot; frag } -> Snapshot_frag { slot; frag })
         actions)

  let peers t = List.filter (fun p -> not (Pid.equal p t.me)) (Pid.all ~n:t.cfg.n)

  (* ----------------------- consensus-side callbacks ----------------------- *)

  (* The proposal for a slot: the digest of the canonical batch of everything
     pending and settled (see {!Batcher.cut}). Evaluated when the slot's
     instance materializes — on our own release, or on first remote traffic
     (we join with what we have; under submit-to-all the sets coincide and
     the slot is uncontended). *)
  let propose t ~slot =
    if slot >= t.next_slot then t.next_slot <- slot + 1;
    let batch = Batcher.cut t.admission ~now:t.now ~settle:t.cfg.settle ~cap:t.cfg.batch_cap in
    let d = Batch.digest batch in
    if d <> Batch.empty_digest then emit t (Content.propose t.content d batch ~slot);
    d

  (* One batcher tick: decide via {!Batcher.tick}, then send the release /
     watchdog messages to ourselves as [Via_transport] effects, so they
     cross the transport and its fault plan. This is an open defect, not a
     design: a local event should not cross the transport, but today
     liveness under loss depends on the hop. A release handed straight to
     our own instance made this replica cut its batch a hop ahead of the
     peers that cut on its proposal, so under saturation most slots
     diverged to the underlying consensus; and an undelayed, unfaulted
     release stalled the chaos gauntlet within 20 slots. ROADMAP item 1(c)
     owns the cut-alignment half and item 11(c) the liveness half; once
     both are done, [Via_transport] can go. *)
  let batcher_tick t =
    let now = t.now in
    let { Batcher.fire; wedged } =
      Batcher.tick ~now
        ~catching_up:(Catch_up.active t.cu)
        ~backlog:(Admission.size t.admission)
        ~oldest:(Admission.oldest t.admission)
        ~settle:t.cfg.settle ~batch_delay:t.cfg.batch_delay ~catchup_retry:t.cfg.catchup_retry
        ~idle:(t.next_slot = t.apply_next)
        ~outstanding:(t.next_slot > t.apply_next || Hashtbl.length t.commit_buf > 0)
        ~last_progress:t.last_progress ~last_watchdog:t.last_watchdog
    in
    if fire then t.last_progress <- now;
    if wedged then t.last_watchdog <- now;
    let upto = t.next_slot + 1 in
    Content.gc t.content ~frontier:t.apply_next;
    if fire then push t (Via_transport (t.me, Log_msg (Log.release upto)));
    if wedged then push t (Via_transport (t.me, Catch_up (-1)))

  (* One-shot cut: fire when the just-admitted request (or the oldest
     pending one) turns settle-eligible, with a small margin so the tick
     lands on the eligible side of the cutoff. The periodic [Tick] remains
     the safety net (watchdog, GC, missed edges), so a cut that fires
     fractionally early costs one cadence. *)
  let arm_cut t =
    if not t.cut_armed then begin
      t.cut_armed <- true;
      let oldest = Admission.oldest t.admission in
      let margin = t.cut_margin in
      push t
        (Arm_cut
           (if oldest = Float.infinity then t.cfg.settle +. margin
            else Float.max margin (t.cfg.settle -. (t.now -. oldest) +. margin)))
    end

  let reply t ~client ~rid outcome = push t (Reply { Wire.client; rid; outcome })

  (* Persist-before-reply: route through the durability lane, which queues
     the reply until the group-commit watermark covers its lsn. *)
  let reply_or_queue t ~client ~rid ~lsn outcome =
    Durability_lane.gate t.lane ~client ~rid ~lsn outcome ~reply:(reply t)

  (* The WAL's group commit advanced its watermark: release every reply it
     now covers. *)
  let on_durable t watermark =
    ignore (Durability_lane.release_up_to t.lane ~watermark ~reply:(reply t))

  (* Append the slot's commit record; returns the lsn gating its replies
     (0 = already durable / durability off). *)
  let wal_append t ~slot ~digest ~provenance batch =
    if not (Durability_lane.enabled t.lane) then 0
    else
      Durability_lane.append t.lane
        (Dex_codec.Codec.encode wal_record_codec (slot, digest, provenance, batch))

  let commit_log_push t ~slot ~digest ~provenance =
    t.commit_log <- (slot, digest, provenance) :: t.commit_log;
    t.commit_log_len <- t.commit_log_len + 1;
    if t.commit_log_len > 2 * t.cfg.commit_log_cap then begin
      t.commit_log <- List.filteri (fun i _ -> i < t.cfg.commit_log_cap) t.commit_log;
      t.commit_log_len <- t.cfg.commit_log_cap;
      (* Everything at or below the slot of the oldest survivor may be gone:
         record the floor so the catch-up responder answers [Truncated]
         instead of serving a hole. *)
      match List.rev t.commit_log with
      | (oldest, _, _) :: _ -> t.commit_log_floor <- max t.commit_log_floor oldest
      | [] -> ()
    end

  let apply_batch t ~slot ~provenance ~lsn batch =
    List.iter
      (fun (r : Wire.request) ->
        Admission.remove t.admission ~client:r.Wire.client ~rid:r.Wire.rid;
        let fresh =
          match Hashtbl.find_opt t.sessions r.Wire.client with
          | Some (last, _, _) -> r.Wire.rid > last
          | None -> true
        in
        if fresh then begin
          let output = State_machine.apply t.state r.Wire.command in
          let outcome = Wire.Applied { output; slot; provenance } in
          Hashtbl.replace t.sessions r.Wire.client (r.Wire.rid, outcome, lsn);
          Registry.incr t.c_applied;
          reply_or_queue t ~client:r.Wire.client ~rid:r.Wire.rid ~lsn outcome
        end
        else begin
          (* The same request rode two batches (client retry, or concurrent
             slots proposing overlapping pending sets): apply once, and
             retransmit the cached outcome if this is the latest rid. *)
          Registry.incr t.c_suppressed;
          match Hashtbl.find_opt t.sessions r.Wire.client with
          | Some (last, cached, cached_lsn) when last = r.Wire.rid ->
            reply_or_queue t ~client:r.Wire.client ~rid:r.Wire.rid ~lsn:cached_lsn
              cached
          | _ -> ()
        end)
      batch;
    (* Restore the admission [oldest] invariant after the removals (resets
       to infinity when the batch drained everything). *)
    Admission.refresh_oldest t.admission;
    (* The wave's replies are gated on this slot's WAL record: sync it now
       rather than at the latency cap. *)
    Durability_lane.kick t.lane

  (* Deterministic snapshot payload of the applied prefix: sorted state, plus
     the session table as replies sorted by client. *)
  let encode_snapshot t =
    let sessions =
      Hashtbl.fold
        (fun client (rid, outcome, _) acc -> { Wire.client; rid; outcome } :: acc)
        t.sessions []
      |> List.sort (fun (a : Wire.reply) (b : Wire.reply) -> compare a.Wire.client b.Wire.client)
    in
    Dex_codec.Codec.encode snap_payload_codec (State_machine.snapshot t.state, sessions)

  (* Capture a snapshot at the current apply boundary when the cadence is
     due. Capture (cheap, in-memory) happens here, on the apply path; the
     fsyncs of the install run later, off it ({!install_pending_snapshot}). *)
  let maybe_snapshot t =
    Durability_lane.maybe_capture t.lane ~apply_next:t.apply_next ~every:t.cfg.snapshot_every
      ~encode:(fun () -> encode_snapshot t)

  (* Drain the committed prefix in slot order; stop (and fetch) at the first
     digest whose content we do not hold. Every applied slot (empty ones
     included) logs one WAL record first, so the durable log is
     slot-contiguous. *)
  let rec apply_ready t =
    match Hashtbl.find_opt t.commit_buf t.apply_next with
    | None -> ()
    | Some (digest, provenance) -> (
      let empty = digest = Batch.empty_digest in
      match if empty then Some [] else Content.find t.content digest with
      | Some batch ->
        let slot = t.apply_next in
        Hashtbl.remove t.commit_buf slot;
        let lsn = wal_append t ~slot ~digest ~provenance batch in
        t.apply_next <- slot + 1;
        if not empty then apply_batch t ~slot ~provenance ~lsn batch;
        maybe_snapshot t;
        apply_ready t
      | None -> emit t (Content.request t.content digest ~frontier:t.apply_next))

  let on_commit t ~slot ~provenance digest =
    (* A slot the catch-up lane already installed can still flush out of the
       log (it decided passively while we lagged): it is applied, logged and
       counted — drop the duplicate. *)
    if slot >= t.apply_next then begin
      t.last_progress <- t.now;
      Registry.incr t.c_committed;
      commit_log_push t ~slot ~digest ~provenance;
      if digest = Batch.empty_digest then Registry.incr t.c_empty
      else begin
        Content.pin t.content digest ~slot;
        Registry.incr (List.assoc provenance t.c_provenance);
        (* Cut-margin adaptation keys on the lane's own fast path: an
           expedited commit is evidence the batch cuts converge (decay the
           margin); an underlying-provenance commit is evidence they
           diverged (widen it). *)
        if L.fast_path provenance then
          t.cut_margin <- Float.max 0.0001 (t.cut_margin *. 0.95)
        else if provenance = PL.Underlying then
          t.cut_margin <- Float.min 0.002 ((t.cut_margin *. 1.5) +. 0.00005)
      end;
      Hashtbl.replace t.commit_buf slot (digest, provenance);
      (* Prefetch: start resolving this slot's content now even when the
         apply frontier is stuck further back — otherwise a backlog of
         missing digests resolves strictly one round-trip at a time (and in
         coded mode each pays the full fragment-round patience serially). *)
      if digest <> Batch.empty_digest && Content.find t.content digest = None then
        emit t (Content.request t.content digest ~frontier:t.apply_next);
      apply_ready t;
      (* Requests admitted while this slot was in flight were held back by
         the batcher's [idle] gate: re-arm the cut now that the log is
         locally quiet again. *)
      if Admission.size t.admission > 0 then arm_cut t
    end

  (* ------------------------------- catch-up ------------------------------- *)

  (* The newest slot this replica can serve a snapshot for. With a data dir
     the installed on-disk snapshot is preferred (cadence boundaries are
     deterministic, so correct replicas hold byte-identical snapshots for the
     same slot — [t+1] matching votes are achievable); otherwise the live
     state is captured at the current frontier. *)
  let snapshot_slot t = Durability_lane.preferred_snapshot_slot t.lane ~live:t.apply_next

  let broadcast_catchup t =
    List.iter (fun peer -> push_action t (Protocol.Send (peer, Catch_up t.apply_next))) (peers t);
    push_action t
      (Protocol.Set_timer { delay = t.cfg.catchup_retry; msg = Catch_up t.apply_next })

  let begin_catchup t =
    if Catch_up.begin_ t.cu ~now:t.now then broadcast_catchup t

  let finish_catchup t =
    if Catch_up.active t.cu then begin
      Catch_up.finish t.cu;
      Content.snapshot_settled t.content;
      (* Fast-forward the log's commit frontier past everything installed out
         of band; slots that decided passively meanwhile flush on arrival. *)
      push_action t (Protocol.Send (t.me, Log_msg (Log.skip t.apply_next)));
      (* Then self-release a full window past the frontier: slots the peers
         started while we were down had their traffic drained with our old
         endpoint backlog, and the log layer never retransmits — without our
         votes those in-flight slots (all within [window] of the commit
         frontier, by pipelining) would wedge every quorum that needs us.
         Activating them locally broadcasts our votes and unwedges them. *)
      push_action t
        (Protocol.Send
           (t.me, Log_msg (Log.release (min (t.apply_next + t.cfg.window) t.cfg.slots))))
    end

  let check_catchup_done t =
    if Catch_up.satisfied t.cu ~now:t.now ~frontier:t.apply_next then
      finish_catchup t

  (* Install every slot at the frontier that has [t+1] matching votes; each
     install advances the frontier and may unlock the next. A contentless
     install (coded catch-up: digest-only votes) parks the commit in
     [commit_buf] and lets the apply loop pull the content over the
     fragment lane — the [commit_buf] guard keeps us from re-installing
     the same slot while that fetch is in flight. *)
  let rec try_install t =
    if Hashtbl.mem t.commit_buf t.apply_next then ()
    else
      match Catch_up.installable t.cu ~frontier:t.apply_next with
      | None -> ()
      | Some (digest, provenance, content) ->
        let slot = t.apply_next in
        Registry.incr t.c_catchup_installed;
        t.last_progress <- t.now;
        commit_log_push t ~slot ~digest ~provenance;
        (if digest <> Batch.empty_digest then
           match content with
           | Some batch -> Content.add t.content digest batch ~slot
           | None -> Content.pin t.content digest ~slot);
        Hashtbl.replace t.commit_buf slot (digest, provenance);
        apply_ready t;
        Catch_up.drop_below t.cu ~frontier:t.apply_next;
        check_catchup_done t;
        try_install t

  let record_slot_vote t ~from ~slot ~digest ~provenance ~batch =
    if
      Catch_up.record_slot_vote t.cu ~from ~frontier:t.apply_next ~slot ~digest ~provenance
        ~batch
    then try_install t

  (* Install a transferred snapshot: replaces state, sessions and frontier.
     Persisted to disk (and the WAL truncated) {e before} anything after it
     can be applied or acknowledged — see {!Durability_lane.note_installed}. *)
  let install_snapshot t ~slot payload =
    match Dex_codec.Codec.decode snap_payload_codec payload with
    | Error _ -> ()
    | Ok (st, replies) ->
      Durability_lane.note_installed t.lane ~slot ~payload;
      t.state <- State_machine.of_snapshot st;
      Hashtbl.reset t.sessions;
      List.iter
        (fun (r : Wire.reply) ->
          Hashtbl.replace t.sessions r.Wire.client (r.Wire.rid, r.Wire.outcome, 0))
        replies;
      Hashtbl.iter
        (fun s _ -> if s < slot then Hashtbl.remove t.commit_buf s)
        (Hashtbl.copy t.commit_buf);
      t.apply_next <- slot;
      t.next_slot <- max t.next_slot slot;
      t.commit_log_floor <- max t.commit_log_floor slot;
      Content.snapshot_settled t.content;
      Registry.incr t.c_state_transfers;
      t.last_progress <- t.now;
      (* Snapshot covers every session outcome; queued replies for the old
         lsns are for clients that predate the crash anyway. *)
      Durability_lane.clear_queued t.lane;
      try_install t;
      check_catchup_done t

  let valid_snapshot payload = Result.is_ok (Dex_codec.Codec.decode snap_payload_codec payload)

  let record_snap_vote t ~from ~slot payload =
    match
      Catch_up.record_snap_vote t.cu ~from ~frontier:t.apply_next ~slot ~payload
        ~validate:valid_snapshot
    with
    | Some (slot, payload) -> install_snapshot t ~slot payload
    | None -> ()

  (* The snapshot to serve a requester stuck at [from_slot]: the preferred
     on-disk snapshot when it is ahead of the requester (stable and
     byte-identical across correct replicas), else a live capture. The
     content stage ships it whole or as our own fragment. *)
  let serve_snapshot t ~from ~from_slot ~whole =
    let chosen =
      match Durability_lane.load_disk_snapshot t.lane with
      | Some (slot, payload) when slot > from_slot -> Some (slot, payload)
      | _ -> if t.apply_next > from_slot then Some (t.apply_next, encode_snapshot t) else None
    in
    Option.iter
      (fun (slot, payload) ->
        emit t (Content.serve_snapshot t.content ~to_:from ~whole ~slot payload))
      chosen

  (* Verified batch content for [digest] came back from the content stage:
     store it, pinned for as long as a committed-but-unapplied slot still
     references it (the newest such slot in [commit_buf], else the apply
     frontier), and drain whatever it unblocks. *)
  let accept_content_message t digest batch =
    let newest_ref =
      Hashtbl.fold
        (fun slot (d, _) acc -> if d = digest then max acc slot else acc)
        t.commit_buf t.apply_next
    in
    Content.add t.content digest batch ~slot:newest_ref;
    apply_ready t;
    (* A contentless catch-up install may have been waiting on exactly this
       digest; with the frontier advanced, further voted slots can land. *)
    if Catch_up.active t.cu then try_install t

  let content_message t ~from msg =
    let sends, resolved =
      Content.on_message t.content ~frontier:t.apply_next
        ~snapshot_slot:(snapshot_slot t) ~from msg
    in
    emit t sends;
    Option.iter (fun (digest, batch) -> accept_content_message t digest batch) resolved

  (* Serve a catch-up request: a chunk of [Slot_commit]s from the commit log
     (content from the store), or [Truncated] if that history is retired. *)
  let serve_catchup t ~from ~from_slot =
    if from_slot >= t.apply_next then
      push_action t (Protocol.Send (from, Catch_up_done t.apply_next))
    else if from_slot < t.commit_log_floor then
      push_action t (Protocol.Send (from, Truncated (snapshot_slot t)))
    else begin
      let upto = min t.apply_next (from_slot + t.cfg.catchup_cap) in
      let by_slot = Hashtbl.create 64 in
      List.iter
        (fun (slot, digest, provenance) ->
          if slot >= from_slot && slot < upto then
            Hashtbl.replace by_slot slot (digest, provenance))
        t.commit_log;
      let complete = ref true in
      let entries = ref [] in
      for slot = upto - 1 downto from_slot do
        match Hashtbl.find_opt by_slot slot with
        | None -> complete := false
        | Some (digest, provenance) -> (
          let content =
            if digest = Batch.empty_digest then Some []
            else Option.map (Content.vote_content t.content) (Content.find t.content digest)
          in
          match content with
          | Some batch -> entries := (slot, digest, provenance, batch) :: !entries
          | None -> complete := false)
      done;
      if not !complete then
        push_action t (Protocol.Send (from, Truncated (snapshot_slot t)))
      else begin
        List.iter
          (fun (slot, digest, provenance, batch) ->
            push_action t (Protocol.Send (from, Slot_commit { slot; digest; provenance; batch })))
          !entries;
        push_action t (Protocol.Send (from, Catch_up_done t.apply_next))
      end
    end

  (* ------------------------------- recovery ------------------------------- *)

  (* Rebuild from the newest valid snapshot plus the WAL's surviving prefix
     (already scanned by the durability lane). Replay stops at any slot gap
     (possible only after a mid-log corruption cut) — everything before the
     gap is the recovered durable prefix. *)
  let replay t (r : Durability_lane.recovered) =
    (match r.Durability_lane.snapshot with
    | Some (slot, payload) -> (
      match Dex_codec.Codec.decode snap_payload_codec payload with
      | Ok (st, replies) ->
        t.state <- State_machine.of_snapshot st;
        List.iter
          (fun (rp : Wire.reply) ->
            Hashtbl.replace t.sessions rp.Wire.client (rp.Wire.rid, rp.Wire.outcome, 0))
          replies;
        t.apply_next <- slot;
        t.next_slot <- slot;
        Durability_lane.set_snapshot_slot t.lane slot;
        t.commit_log_floor <- slot
      | Error _ -> ())
    | None -> ());
    let stop = ref false in
    List.iter
      (fun entry ->
        if not !stop then
          match Dex_codec.Codec.decode wal_record_codec entry with
          | Error _ -> stop := true
          | Ok (slot, digest, provenance, batch) ->
            if slot < t.apply_next then ()  (* covered by the snapshot *)
            else if slot > t.apply_next then stop := true
            else begin
              commit_log_push t ~slot ~digest ~provenance;
              if digest <> Batch.empty_digest then
                apply_batch t ~slot ~provenance ~lsn:0 batch;
              t.apply_next <- slot + 1;
              t.next_slot <- t.apply_next;
              Registry.incr t.c_recovered
            end)
      r.Durability_lane.entries

  (* ------------------------------- events -------------------------------- *)

  (* A message for the lanes: everything but log traffic. *)
  let on_message t ~from m =
    let self = Pid.equal from t.me in
    let content msg = content_message t ~from msg in
    match m with
    | Log_msg _ -> ()
    | Fetch (digest, slot) -> content (Content.Fetch (digest, slot))
    | Batch_payload (digest, batch) -> content (Content.Batch_payload (digest, batch))
    | Frag_request (digest, mask, slot) -> content (Content.Frag_request (digest, mask, slot))
    | Frag_payload frag -> content (Content.Frag_payload frag)
    | Catch_up from_slot when self ->
      (* Our own control traffic: [-1] is the batcher's stall watchdog
         ((re-)enter catch-up); otherwise it is the retry timer — while
         catching up, re-ask from the current frontier (peers committed
         more since the last round). *)
      if from_slot < 0 then begin
        if
          (not (Catch_up.active t.cu))
          && (t.next_slot > t.apply_next || Hashtbl.length t.commit_buf > 0)
        then begin_catchup t
      end
      else if Catch_up.active t.cu then begin
        check_catchup_done t;
        if Catch_up.active t.cu then begin
          List.iter
            (fun peer -> push_action t (Protocol.Send (peer, Catch_up t.apply_next)))
            (peers t);
          push_action t
            (Protocol.Set_timer { delay = t.cfg.catchup_retry; msg = Catch_up from_slot })
        end
      end
    | Catch_up from_slot ->
      if from_slot >= 0 && from_slot <= t.cfg.slots then serve_catchup t ~from ~from_slot
    | _ when self -> ()
    | Truncated snap_slot ->
      (* A peer retired the history we were fetching: switch to snapshot
         transfer. Only honoured while actually stuck (an unresolved fetch
         or an ongoing catch-up) — a lying peer cannot put an idle replica
         into the catch-up gate. *)
      if snap_slot > t.apply_next && (Catch_up.active t.cu || Content.fetching t.content)
      then begin
        begin_catchup t;
        emit t (Content.snapshot_fetch t.content ~frontier:t.apply_next)
      end
    | Slot_commit { slot; digest; provenance; batch } ->
      record_slot_vote t ~from ~slot ~digest ~provenance ~batch
    | Catch_up_done frontier ->
      if Catch_up.active t.cu then begin
        Catch_up.note_frontier t.cu ~peer:from frontier;
        check_catchup_done t
      end
    | Snapshot_fetch from_slot -> serve_snapshot t ~from ~from_slot ~whole:false
    | Snapshot_fetch_full from_slot -> serve_snapshot t ~from ~from_slot ~whole:true
    | Snapshot_payload (slot, payload) -> record_snap_vote t ~from ~slot payload
    | Snapshot_frag { slot; frag } -> (
      match
        Content.snapshot_frag t.content t.cu ~from ~frontier:t.apply_next ~slot
          ~validate:valid_snapshot frag
      with
      | Some (slot, payload) -> install_snapshot t ~slot payload
      | None -> ())

  let on_request t (r : Wire.request) =
    match Hashtbl.find_opt t.sessions r.Wire.client with
    | Some (last, cached, cached_lsn) when r.Wire.rid <= last ->
      (* Idempotent retry: answer from the session cache (stale rids below
         the cached one get nothing — the client has long moved on). The
         cached outcome still waits for its WAL record if that has not
         synced yet. *)
      if r.Wire.rid = last then
        reply_or_queue t ~client:r.Wire.client ~rid:r.Wire.rid ~lsn:cached_lsn cached
    | _ ->
      if Catch_up.active t.cu then begin
        (* Not admitted until we have rejoined the present: we could neither
           propose nor apply this request at the right slot yet. *)
        Registry.incr t.c_busy;
        reply t ~client:r.Wire.client ~rid:r.Wire.rid Wire.Busy
      end
      else begin
        match Admission.admit t.admission ~now:t.now r with
        | Admission.Admitted ->
          (* Event-driven cut: fire when this request turns settle-eligible
             instead of waiting for the next periodic tick. *)
          arm_cut t
        | Admission.Duplicate -> ()
        | Admission.Overflow ->
          Registry.incr t.c_busy;
          reply t ~client:r.Wire.client ~rid:r.Wire.rid Wire.Busy
      end

  (* The fsyncs of a snapshot install (tmp write + rename + dir sync + WAL
     truncation) run on the tick, off the apply path; capture happened at
     the slot boundary. *)
  let install_pending_snapshot t =
    match Durability_lane.take_capture t.lane with
    | Some (slot, payload, covering_lsn) ->
      Durability_lane.install_capture t.lane ~slot ~payload ~covering_lsn
    | None -> ()

  (* Log traffic goes to the log instance, whose actions come before what
     its callbacks queued. *)
  let step t ~now event =
    t.now <- now;
    let actions =
      match event with
      | Start ->
        if Catch_up.active t.cu then begin
          Catch_up.restamp t.cu ~now;
          broadcast_catchup t
        end;
        lift (t.log.Protocol.start ())
      | Message (from, Log_msg m) -> lift (t.log.Protocol.on_message ~now ~from m)
      | Message (from, m) -> on_message t ~from m; []
      | Request r -> on_request t r; []
      | Tick -> install_pending_snapshot t; batcher_tick t; []
      | Cut -> t.cut_armed <- false; batcher_tick t; []
      | Durable watermark -> on_durable t watermark; []
    in
    actions @ drain t

  (* ----------------------------- the replica ----------------------------- *)

  let create ?catchup cfg ~me ~now =
    let metrics = Registry.create () in
    let lane, recovered =
      Durability_lane.create ?dir:(replica_dir cfg me) ~segment_bytes:cfg.wal_segment_bytes
        ~metrics ()
    in
    let t =
      {
        cfg;
        me;
        admission = Admission.create ~cap:cfg.queue_cap;
        lane;
        cu = Catch_up.create ~n:cfg.n ~t:cfg.t ~cap:cfg.catchup_cap ~grace:cfg.catchup_grace;
        content =
          Content.create ~metrics ~mode:cfg.dissemination ~n:cfg.n ~t:cfg.t ~me
            ~retry:cfg.fetch_retry ~retain:cfg.retain;
        sessions = Hashtbl.create 64;
        commit_buf = Hashtbl.create 64;
        log = { Protocol.start = (fun () -> []); on_message = (fun ~now:_ ~from:_ _ -> []) };
        effects = [];
        now;
        state = State_machine.create ();
        commit_log = [];
        commit_log_len = 0;
        commit_log_floor = 0;
        apply_next = 0;
        next_slot = 0;
        last_progress = now;
        last_watchdog = now;
        metrics;
        c_committed = Registry.counter metrics "service/committed_slots";
        c_empty = Registry.counter metrics "service/empty_slots";
        c_provenance =
          List.map
            (fun p ->
              (p, Registry.counter metrics ("service/" ^ PL.metric_of_provenance p)))
            PL.all_provenances;
        c_applied = Registry.counter metrics "service/applied";
        c_suppressed = Registry.counter metrics "service/suppressed_duplicates";
        c_busy = Registry.counter metrics "service/busy_rejections";
        c_recovered = Registry.counter metrics "service/recovered_slots";
        c_catchup_installed = Registry.counter metrics "service/catchup_installed";
        c_state_transfers = Registry.counter metrics "service/state_transfers";
        cut_armed = false;
        cut_margin = 0.0001;
      }
    in
    Registry.gauge_fn metrics "service/backlog" (fun () -> Admission.size t.admission);
    Registry.gauge_fn metrics "service/apply_lag" (fun () -> Hashtbl.length t.commit_buf);
    replay t recovered;
    let want_catchup =
      match catchup with Some c -> c | None -> recovered.Durability_lane.had_state
    in
    (* Arm the gate immediately — traffic arriving before [Start] must see
       it up; [Start] restamps the grace deadline and broadcasts. *)
    if want_catchup then ignore (Catch_up.begin_ t.cu ~now);
    t.log <-
      Log.replica ~activation:`On_demand ~retain:cfg.retain ~base:t.apply_next (log_config cfg)
        ~me
        ~propose:(fun ~slot -> propose t ~slot)
        ~on_commit:(fun ~slot ~provenance v -> on_commit t ~slot ~provenance v);
    t

  (* ------------------------------ observation ----------------------------- *)

  let lane t = t.lane

  let stats t =
    {
      committed_slots = Registry.value t.c_committed;
      empty_slots = Registry.value t.c_empty;
      one_step = Registry.value (List.assoc PL.One_step t.c_provenance);
      two_step = Registry.value (List.assoc PL.Two_step t.c_provenance);
      underlying = Registry.value (List.assoc PL.Underlying t.c_provenance);
      applied = Registry.value t.c_applied;
      suppressed_duplicates = Registry.value t.c_suppressed;
      busy_rejections = Registry.value t.c_busy;
      fetches = Content.fetches t.content;
      backlog = Admission.size t.admission;
      apply_lag = Hashtbl.length t.commit_buf;
      recovered_slots = Registry.value t.c_recovered;
      catchup_installed = Registry.value t.c_catchup_installed;
      state_transfers = Registry.value t.c_state_transfers;
      snapshots = Durability_lane.snapshots t.lane;
    }

  let metrics t = t.metrics

  let wal_stats t = Durability_lane.wal_stats t.lane

  let durable_lsn t = Durability_lane.durable_lsn t.lane

  let catching_up t = Catch_up.active t.cu

  let apply_frontier t = t.apply_next

  let commit_log t = List.rev t.commit_log

  let state_snapshot t = State_machine.snapshot t.state

  let state_digest t = State_machine.digest t.state

  let pp_stats ppf (s : stats) =
    Format.fprintf ppf
      "slots %d (empty %d) | 1-step %d 2-step %d uc %d | applied %d dup %d busy %d fetch %d | backlog %d lag %d | recov %d catchup %d xfer %d snap %d"
      s.committed_slots s.empty_slots s.one_step s.two_step s.underlying s.applied
      s.suppressed_duplicates s.busy_rejections s.fetches s.backlog s.apply_lag
      s.recovered_slots s.catchup_installed s.state_transfers s.snapshots
end
