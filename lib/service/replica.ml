open Dex_condition
open Dex_net
open Dex_runtime
open Dex_smr

module Registry = Dex_metrics.Registry
module Rs = Dex_erasure.Rs
module Fragment = Dex_erasure.Fragment
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

  let pp_smsg ppf = function
    | Log_msg m -> Log.pp_msg ppf m
    | Fetch (d, slot) -> Format.fprintf ppf "fetch %d@%d" d slot
    | Batch_payload (d, b) -> Format.fprintf ppf "payload %d (%d reqs)" d (List.length b)
    | Truncated slot -> Format.fprintf ppf "truncated (snap %d)" slot
    | Catch_up from_slot -> Format.fprintf ppf "catch-up from %d" from_slot
    | Slot_commit { slot; digest; _ } -> Format.fprintf ppf "slot-commit %d=%d" slot digest
    | Catch_up_done frontier -> Format.fprintf ppf "catch-up-done @%d" frontier
    | Snapshot_fetch from_slot -> Format.fprintf ppf "snapshot-fetch from %d" from_slot
    | Snapshot_payload (slot, payload) ->
      Format.fprintf ppf "snapshot @%d (%d bytes)" slot (String.length payload)
    | Frag_request (d, mask, slot) ->
      Format.fprintf ppf "frag-request %d mask=%#x@%d" d mask slot
    | Frag_payload frag -> Format.fprintf ppf "frag-payload %a" Dex_erasure.Fragment.pp frag
    | Snapshot_frag { slot; frag } ->
      Format.fprintf ppf "snapshot-frag @%d %a" slot Dex_erasure.Fragment.pp frag
    | Snapshot_fetch_full from_slot ->
      Format.fprintf ppf "snapshot-fetch-full from %d" from_slot

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

  (* State and counters of the dissemination lane. In coded mode the fetch
     path pulls distinct fragments from distinct peers and reconstructs;
     these tables hold the partial reconstructions ([frags]: digest ->
     index -> body, [frag_len]: the claimed blob length), a responder-side
     cache of encoded fragment bodies ([enc_cache]: digest -> blob length *
     bodies), and the set of digests already failed over to the full lane
     ([fb], so the fallback timer and a decode failure don't double-fire).
     All driven under the replica lock. *)
  type dissem_lane = {
    k : int;  (* data-shard count: Rs.data_count over the deployment geometry *)
    frags : (int, (int, string) Hashtbl.t) Hashtbl.t;
    frag_len : (int, int) Hashtbl.t;
    enc_cache : (int, int * string array) Hashtbl.t;
    fb : (int, unit) Hashtbl.t;
    rounds : (int, int) Hashtbl.t;
        (* coded-fetch rounds already spent per digest: the fallback timer
           re-requests the (recomputed) missing mask a few times before
           failing over — the full lane retries forever, so the coded lane
           deserves more than one 50 ms round under load *)
    mutable snap_rounds : int;  (* coded snapshot-fetch rounds without an install *)
    c_fetch_rtts : Registry.counter;
    c_fetch_bytes : Registry.counter;
    c_frag_sent : Registry.counter;
    c_frag_recv : Registry.counter;
    c_frag_bytes_out : Registry.counter;
    c_frag_bytes_in : Registry.counter;
    c_pushes : Registry.counter;
    c_decodes : Registry.counter;
    c_decode_failures : Registry.counter;
    c_decode_fallbacks : Registry.counter;
    c_bytes_saved : Registry.counter;
  }

  type t = {
    cfg : config;
    me : Pid.t;
    transport : smsg Transport.t;
    lock : Mutex.t;
    (* Pipeline stages. The admission queue and batcher decide what enters a
       proposal; the durability lane gates replies on the WAL; catch-up
       holds the vote tables of the recovery lane. All are driven under
       [lock]. *)
    admission : Admission.t;
    lane : Durability_lane.t;
    cu : Catch_up.t;
    dl : dissem_lane;
    (* Batch content by digest: own proposals, peer payloads, fetch results. *)
    store : (int, Batch.t) Hashtbl.t;
    last_use : (int, int) Hashtbl.t;  (* digest -> newest slot that referenced it *)
    (* Per-client session: last applied rid, its cached outcome, and the WAL
       lsn that makes it durable (0 when durable already / durability off) —
       client retries are idempotent, and a reply never leaves before its
       record is on disk. *)
    sessions : (int, int * Wire.outcome * int) Hashtbl.t;
    conns : (int, Reactor.Conn.t) Hashtbl.t;  (* client -> latest reply connection *)
    dirty : (Unix.file_descr, Reactor.Conn.t) Hashtbl.t;
        (* connections with unpumped replies, pumped once per wave: one
           coalesced [write] instead of a reactor loop turn *)
    commit_buf : (int, int * Dex_core.Dex.provenance) Hashtbl.t;  (* slot -> commit *)
    unresolved : (int, unit) Hashtbl.t;  (* digests being fetched *)
    outbox : smsg Protocol.action list ref;  (* actions produced by callbacks *)
    mutable state : State_machine.t;
    (* Newest first; bounded by [commit_log_cap] (a long-lived server would
       otherwise leak one entry per slot forever). Truncated lazily at twice
       the cap, so the amortized append cost stays O(1). *)
    mutable commit_log : (int * int * Dex_core.Dex.provenance) list;
    mutable commit_log_len : int;
    mutable commit_log_floor : int;  (* no commit-log coverage below this slot *)
    mutable apply_next : int;
    mutable next_slot : int;  (* one past the highest slot this replica has touched *)
    mutable last_progress : float;  (* wall time of the last commit/apply/release *)
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
    c_fetches : Registry.counter;
    c_recovered : Registry.counter;
    c_catchup_installed : Registry.counter;
    c_state_transfers : Registry.counter;
    (* Service-side plumbing, owned by the socket layer in [Server]. *)
    mutable running : bool;
    mutable listener : Unix.file_descr option;
    mutable service_port : int option;
    (* The replica's own loop: client I/O, batcher cadence and the WAL
       group-commit timer all run on it. *)
    service_reactor : Reactor.t;
    (* Whether this replica created [service_reactor] (and so must stop it)
       or borrowed a shared loop from the deployment (which stops it). *)
    owns_reactor : bool;
    mutable client_conns : Reactor.Conn.t list;
    mutable batch_timer : Reactor.timer option;
    mutable cut_armed : bool;  (* a one-shot cut timer is outstanding *)
    (* The outstanding one-shot cut timer itself, so [stop_service] can
       cancel it: the reactor may outlive this replica incarnation
       (crash/restart under a shared loop), and an orphaned cut timer must
       not tick a dead — or worse, restarted — instance's batcher. *)
    mutable cut_timer : Reactor.timer option;
    (* Extra delay added to the one-shot cut timer beyond settle-eligibility.
       Adaptive: every underlying-provenance commit is evidence the replicas
       cut divergent batches (some loop proposed before its client reads
       drained), so the margin widens multiplicatively; one-step commits
       decay it back toward the floor. In-process waves keep it at the floor
       (~0.1 ms); cross-process saturation finds the knee where cuts land in
       wave gaps again. *)
    mutable cut_margin : float;
    g_client_hwm : Registry.gauge;
        (* high-water mark of client-connection write buffers (bytes) *)
  }

  let push_action t action = t.outbox := action :: !(t.outbox)

  let drain t =
    let actions = List.rev !(t.outbox) in
    t.outbox := [];
    actions

  let lift actions = Protocol.map_actions (fun m -> Log_msg m) actions

  let peers t = List.filter (fun p -> not (Pid.equal p t.me)) (Pid.all ~n:t.cfg.n)

  let coded t =
    Dex_erasure.Dissemination.equal t.cfg.dissemination Dex_erasure.Dissemination.Coded

  (* Encode (and cache) the fragment bodies of a batch we hold. The cache
     is keyed by digest and GC'd with the content store, so a responder
     encodes each batch once no matter how many peers pull fragments. *)
  let fragments_locked t digest batch =
    match Hashtbl.find_opt t.dl.enc_cache digest with
    | Some entry -> entry
    | None ->
      let blob = Batch.to_blob batch in
      let entry = (String.length blob, Rs.encode ~k:t.dl.k ~n:t.cfg.n blob) in
      Hashtbl.replace t.dl.enc_cache digest entry;
      entry

  let frag_of_locked t digest ~index (len, bodies) =
    Dex_erasure.Fragment.make ~digest ~index ~total:t.cfg.n ~data:t.dl.k ~len bodies.(index)

  let send_frag_locked t ~to_ frag =
    Registry.incr t.dl.c_frag_sent;
    Registry.add t.dl.c_frag_bytes_out (String.length frag.Dex_erasure.Fragment.body);
    push_action t (Protocol.Send (to_, Frag_payload frag))

  (* Coded proposer push: instead of every replica re-deriving the batch
     from its own admission queue (the common case under submit-to-all) or
     fetching the whole blob, the batch's {e home} replica (digest mod n)
     sends each peer its own systematic fragment — one blob's worth of
     egress spread over the mesh, not n-1 copies. Purely an optimization:
     replicas that already hold the content ignore the fragment, and ones
     that miss it still have the request lane. *)
  let push_fragments_locked t digest batch =
    if digest mod t.cfg.n = t.me then begin
      let entry = fragments_locked t digest batch in
      Registry.incr t.dl.c_pushes;
      List.iter
        (fun peer -> send_frag_locked t ~to_:peer (frag_of_locked t digest ~index:peer entry))
        (peers t)
    end

  let clear_frag_state_locked t digest =
    Hashtbl.remove t.dl.frags digest;
    Hashtbl.remove t.dl.frag_len digest;
    Hashtbl.remove t.dl.fb digest;
    Hashtbl.remove t.dl.rounds digest

  (* ----------------------- consensus-side callbacks ----------------------- *)

  (* The proposal for a slot: the digest of the canonical batch of everything
     pending and settled (see {!Batcher.cut}). Evaluated when the slot's
     instance materializes — on our own release, or on first remote traffic
     (we join with what we have; under submit-to-all the sets coincide and
     the slot is uncontended). *)
  let propose t ~slot =
    Mutex.lock t.lock;
    if slot >= t.next_slot then t.next_slot <- slot + 1;
    let batch =
      Batcher.cut t.admission ~now:(Unix.gettimeofday ()) ~settle:t.cfg.settle
        ~cap:t.cfg.batch_cap
    in
    let d = Batch.digest batch in
    if d <> Batch.empty_digest then begin
      Hashtbl.replace t.store d batch;
      Hashtbl.replace t.last_use d slot;
      if coded t then push_fragments_locked t d batch
    end;
    Mutex.unlock t.lock;
    d

  (* Retire batch content nobody can still ask for: digests whose newest
     reference trails the apply frontier by more than [retain] slots. The
     coded lane's tables (fragment pools, encode cache) ride the same
     horizon — except pools still being fetched, which stay pinned. *)
  let gc_store_locked t =
    let floor = t.apply_next - t.cfg.retain in
    let stale =
      Hashtbl.fold
        (fun digest last acc -> if last < floor then digest :: acc else acc)
        t.last_use []
    in
    List.iter
      (fun digest ->
        Hashtbl.remove t.store digest;
        Hashtbl.remove t.last_use digest)
      stale;
    let dead tbl =
      Hashtbl.fold
        (fun digest _ acc ->
          if
            (not (Hashtbl.mem t.unresolved digest))
            && not (Hashtbl.mem t.last_use digest)
          then digest :: acc
          else acc)
        tbl []
    in
    List.iter (clear_frag_state_locked t) (dead t.dl.frags);
    List.iter (fun digest -> Hashtbl.remove t.dl.enc_cache digest) (dead t.dl.enc_cache)

  (* One batcher tick: decide via {!Batcher.tick} under the lock, then
     self-send the release / watchdog messages outside it. *)
  let batcher_tick t =
    Mutex.lock t.lock;
    let now = Unix.gettimeofday () in
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
    gc_store_locked t;
    Mutex.unlock t.lock;
    if fire then t.transport.Transport.send ~src:t.me ~dst:t.me (Log_msg (Log.release upto));
    if wedged then t.transport.Transport.send ~src:t.me ~dst:t.me (Catch_up (-1))

  (* One-shot cut timer, armed under [t.lock]: fire when the just-admitted
     request (or the oldest pending one) turns settle-eligible, with a small
     margin so the tick lands on the eligible side of the cutoff. The
     server's periodic batch timer remains the safety net (watchdog, GC,
     missed edges), so a timer that fires fractionally early costs one
     cadence. A no-op until the server starts the service. *)
  let arm_cut t =
    if t.running && not t.cut_armed then begin
      t.cut_armed <- true;
      let oldest = Admission.oldest t.admission in
      let margin = t.cut_margin in
      let delay =
        if oldest = Float.infinity then t.cfg.settle +. margin
        else Float.max margin (t.cfg.settle -. (Unix.gettimeofday () -. oldest) +. margin)
      in
      (* Tracked (in [t.cut_timer]) so the server's stop can cancel it, and
         the callback re-checks [running]: the reactor can outlive this
         replica incarnation under crash/restart, and an orphaned one-shot
         must not tick a stopped instance's batcher. *)
      t.cut_timer <-
        Some
          (Reactor.after t.service_reactor delay (fun () ->
               Mutex.lock t.lock;
               t.cut_armed <- false;
               t.cut_timer <- None;
               let live = t.running in
               Mutex.unlock t.lock;
               if live then batcher_tick t))
    end

  (* All socket replies happen under [t.lock]; [conns] holds the most recent
     connection a client spoke on. A dead client costs a silent drop. *)
  let reply_locked t ~client ~rid outcome =
    match Hashtbl.find_opt t.conns client with
    | None -> ()
    | Some c ->
      if Reactor.Conn.is_open c then begin
        Reactor.Conn.buffer c
          (Dex_codec.Codec.Frame.to_string Wire.reply_codec { Wire.client; rid; outcome });
        Hashtbl.replace t.dirty (Reactor.Conn.fd c) c
      end
      else Hashtbl.remove t.conns client

  (* Persist-before-reply: route through the durability lane, which queues
     the reply until the group-commit watermark covers its lsn. *)
  let reply_or_queue_locked t ~client ~rid ~lsn outcome =
    Durability_lane.gate t.lane ~client ~rid ~lsn outcome ~reply:(fun ~client ~rid outcome ->
        reply_locked t ~client ~rid outcome)

  (* Reply writes are buffered; one pump per wave of replies (an applied
     batch touches many clients over few connections). *)
  let flush_dirty_locked t =
    Hashtbl.iter (fun _ c -> Reactor.Conn.pump c) t.dirty;
    Hashtbl.reset t.dirty

  (* Syncer callback (runs on the syncer thread): the watermark advanced, so
     release every reply it now covers. Lock order: the server lock is taken
     here and the WAL takes its own lock inside lane calls — the two are
     never nested the other way, so there is no cycle. *)
  let on_durable t watermark =
    Mutex.lock t.lock;
    let advanced =
      Durability_lane.release_up_to t.lane ~watermark ~reply:(fun ~client ~rid outcome ->
          reply_locked t ~client ~rid outcome)
    in
    if advanced then flush_dirty_locked t;
    Mutex.unlock t.lock

  (* Append the slot's commit record; returns the lsn gating its replies
     (0 = already durable / durability off). *)
  let wal_append_locked t ~slot ~digest ~provenance batch =
    if not (Durability_lane.enabled t.lane) then 0
    else
      Durability_lane.append t.lane
        (Dex_codec.Codec.encode wal_record_codec (slot, digest, provenance, batch))

  let commit_log_push_locked t ~slot ~digest ~provenance =
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

  let apply_batch_locked t ~slot ~provenance ~lsn batch =
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
          reply_or_queue_locked t ~client:r.Wire.client ~rid:r.Wire.rid ~lsn outcome
        end
        else begin
          (* The same request rode two batches (client retry, or concurrent
             slots proposing overlapping pending sets): apply once, and
             retransmit the cached outcome if this is the latest rid. *)
          Registry.incr t.c_suppressed;
          match Hashtbl.find_opt t.sessions r.Wire.client with
          | Some (last, cached, cached_lsn) when last = r.Wire.rid ->
            reply_or_queue_locked t ~client:r.Wire.client ~rid:r.Wire.rid ~lsn:cached_lsn
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
  let encode_snapshot_locked t =
    let sessions =
      Hashtbl.fold
        (fun client (rid, outcome, _) acc -> { Wire.client; rid; outcome } :: acc)
        t.sessions []
      |> List.sort (fun (a : Wire.reply) (b : Wire.reply) -> compare a.Wire.client b.Wire.client)
    in
    Dex_codec.Codec.encode snap_payload_codec (State_machine.snapshot t.state, sessions)

  (* Capture a snapshot at the current apply boundary when the cadence is
     due. Capture (cheap, in-memory) happens here under the lock; the fsyncs
     of the install run on the batcher thread. *)
  let maybe_snapshot_locked t =
    Durability_lane.maybe_capture t.lane ~apply_next:t.apply_next ~every:t.cfg.snapshot_every
      ~encode:(fun () -> encode_snapshot_locked t)

  (* The classic full-blob fetch round: broadcast, every holder answers
     with the whole batch, self-timer retries. Also the coded lane's
     fallback (timeout or decode failure). *)
  let full_fetch_locked t digest =
    List.iter
      (fun peer -> push_action t (Protocol.Send (peer, Fetch (digest, t.apply_next))))
      (peers t);
    push_action t
      (Protocol.Set_timer { delay = t.cfg.fetch_retry; msg = Fetch (digest, t.apply_next) })

  (* Coded fetch round: ask every peer for the fragment indices we still
     miss — each holder answers with only its own systematic fragment, so
     a resolution ingresses ~one blob spread over n-1 links instead of
     n-1 full copies. The self [Frag_request] with mask 0 is the fallback
     timer: if the decode has not landed by then, fail over to the full
     lane (which has its own retry). *)
  let coded_fetch_locked t digest =
    let held =
      match Hashtbl.find_opt t.dl.frags digest with
      | Some m -> m
      | None -> Hashtbl.create 0
    in
    let mask = ref 0 in
    for i = 0 to t.cfg.n - 1 do
      if not (Hashtbl.mem held i) then mask := !mask lor (1 lsl i)
    done;
    (* Retry rounds set the desperate bit (bit n): fewer than k peers hold
       this batch, so home fragments alone cannot complete the decode — ask
       holders to encode every missing index. The mask lists only what is
       missing, so the duplicate cost is bounded by holders x missing. *)
    if Option.value ~default:0 (Hashtbl.find_opt t.dl.rounds digest) > 0 then
      mask := !mask lor (1 lsl t.cfg.n);
    List.iter
      (fun peer -> push_action t (Protocol.Send (peer, Frag_request (digest, !mask, t.apply_next))))
      (peers t);
    push_action t
      (Protocol.Set_timer { delay = t.cfg.fetch_retry; msg = Frag_request (digest, 0, t.apply_next) })

  let request_fetch_locked t digest =
    if not (Hashtbl.mem t.unresolved digest) then begin
      Hashtbl.replace t.unresolved digest ();
      Registry.incr t.c_fetches;
      if coded t then coded_fetch_locked t digest else full_fetch_locked t digest
    end

  (* Drain the committed prefix in slot order; stop (and fetch) at the first
     digest whose content we do not hold. Every applied slot (empty ones
     included) logs one WAL record first, so the durable log is
     slot-contiguous. *)
  let rec apply_ready_locked t =
    match Hashtbl.find_opt t.commit_buf t.apply_next with
    | None -> ()
    | Some (digest, provenance) ->
      if digest = Batch.empty_digest then begin
        let slot = t.apply_next in
        Hashtbl.remove t.commit_buf slot;
        ignore (wal_append_locked t ~slot ~digest ~provenance []);
        t.apply_next <- slot + 1;
        maybe_snapshot_locked t;
        apply_ready_locked t
      end
      else begin
        match Hashtbl.find_opt t.store digest with
        | Some batch ->
          let slot = t.apply_next in
          Hashtbl.remove t.commit_buf slot;
          let lsn = wal_append_locked t ~slot ~digest ~provenance batch in
          t.apply_next <- slot + 1;
          apply_batch_locked t ~slot ~provenance ~lsn batch;
          maybe_snapshot_locked t;
          apply_ready_locked t
        | None -> request_fetch_locked t digest
      end

  let on_commit t ~slot ~provenance digest =
    Mutex.lock t.lock;
    (* A slot the catch-up lane already installed can still flush out of the
       log (it decided passively while we lagged): it is applied, logged and
       counted — drop the duplicate. *)
    if slot < t.apply_next then Mutex.unlock t.lock
    else begin
      t.last_progress <- Unix.gettimeofday ();
      Registry.incr t.c_committed;
      commit_log_push_locked t ~slot ~digest ~provenance;
      if digest = Batch.empty_digest then Registry.incr t.c_empty
      else begin
        Hashtbl.replace t.last_use digest slot;
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
      if digest <> Batch.empty_digest && not (Hashtbl.mem t.store digest) then
        request_fetch_locked t digest;
      apply_ready_locked t;
      flush_dirty_locked t;
      (* Requests admitted while this slot was in flight were held back by
         the batcher's [idle] gate: re-arm the cut now that the log is
         locally quiet again. *)
      if Admission.size t.admission > 0 then arm_cut t;
      Mutex.unlock t.lock
    end

  (* ------------------------------- catch-up ------------------------------- *)

  (* The newest slot this replica can serve a snapshot for. With a data dir
     the installed on-disk snapshot is preferred (cadence boundaries are
     deterministic, so correct replicas hold byte-identical snapshots for the
     same slot — [t+1] matching votes are achievable); otherwise the live
     state is captured at the current frontier. *)
  let snapshot_slot_locked t = Durability_lane.preferred_snapshot_slot t.lane ~live:t.apply_next

  let broadcast_catchup_locked t =
    List.iter (fun peer -> push_action t (Protocol.Send (peer, Catch_up t.apply_next))) (peers t);
    push_action t
      (Protocol.Set_timer { delay = t.cfg.catchup_retry; msg = Catch_up t.apply_next })

  let begin_catchup_locked t =
    if Catch_up.begin_ t.cu ~now:(Unix.gettimeofday ()) then broadcast_catchup_locked t

  let finish_catchup_locked t =
    if Catch_up.active t.cu then begin
      Catch_up.finish t.cu;
      t.dl.snap_rounds <- 0;
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

  let check_catchup_done_locked t =
    if Catch_up.satisfied t.cu ~now:(Unix.gettimeofday ()) ~frontier:t.apply_next then
      finish_catchup_locked t

  (* Install every slot at the frontier that has [t+1] matching votes; each
     install advances the frontier and may unlock the next. A contentless
     install (coded catch-up: digest-only votes) parks the commit in
     [commit_buf] and lets the apply loop pull the content over the
     fragment lane — the [commit_buf] guard keeps us from re-installing
     the same slot while that fetch is in flight. *)
  let rec try_install_locked t =
    if Hashtbl.mem t.commit_buf t.apply_next then ()
    else
      match Catch_up.installable t.cu ~frontier:t.apply_next with
      | None -> ()
      | Some (digest, provenance, content) ->
        let slot = t.apply_next in
        Registry.incr t.c_catchup_installed;
        t.last_progress <- Unix.gettimeofday ();
        commit_log_push_locked t ~slot ~digest ~provenance;
        if digest <> Batch.empty_digest then begin
          (match content with
          | Some batch -> Hashtbl.replace t.store digest batch
          | None -> ());
          Hashtbl.replace t.last_use digest slot
        end;
        Hashtbl.replace t.commit_buf slot (digest, provenance);
        apply_ready_locked t;
        Catch_up.drop_below t.cu ~frontier:t.apply_next;
        check_catchup_done_locked t;
        try_install_locked t

  let record_slot_vote_locked t ~from ~slot ~digest ~provenance ~batch =
    if
      Catch_up.record_slot_vote t.cu ~from ~frontier:t.apply_next ~slot ~digest ~provenance
        ~batch
    then try_install_locked t

  (* Install a transferred snapshot: replaces state, sessions and frontier.
     Persisted to disk (and the WAL truncated) {e before} anything after it
     can be applied or acknowledged — see {!Durability_lane.note_installed}. *)
  let install_snapshot_locked t ~slot payload =
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
      t.dl.snap_rounds <- 0;
      Registry.incr t.c_state_transfers;
      t.last_progress <- Unix.gettimeofday ();
      (* Snapshot covers every session outcome; queued replies for the old
         lsns are for clients that predate the crash anyway. *)
      Durability_lane.clear_queued t.lane;
      try_install_locked t;
      check_catchup_done_locked t

  let record_snap_vote_locked t ~from ~slot payload =
    let validate p = Result.is_ok (Dex_codec.Codec.decode snap_payload_codec p) in
    match Catch_up.record_snap_vote t.cu ~from ~frontier:t.apply_next ~slot ~payload ~validate with
    | Some (slot, payload) -> install_snapshot_locked t ~slot payload
    | None -> ()

  (* One coded snapshot fragment arrived: pool it under (slot, payload
     hash); once [t+1] peers vouch for the hash and [k] indices are in,
     reconstruct and verify against the hash before installing. A failed
     verification (some fragment lied) drops the group — the hash had
     [t+1] voters, so honest refills can still assemble it. *)
  let record_snap_frag_locked t ~from ~slot frag =
    if Fragment.valid frag && frag.Fragment.total = t.cfg.n && frag.Fragment.data = t.dl.k
    then begin
      Registry.incr t.dl.c_frag_recv;
      Registry.add t.dl.c_frag_bytes_in (String.length frag.Fragment.body);
      match
        Catch_up.record_snap_frag t.cu ~from ~frontier:t.apply_next ~slot
          ~hash:frag.Fragment.digest ~index:frag.Fragment.index ~body:frag.Fragment.body
          ~data:frag.Fragment.data ~len:frag.Fragment.len
      with
      | None -> ()
      | Some (slot, hash, bodies, len) -> (
        match Rs.decode ~k:t.dl.k ~n:t.cfg.n ~len bodies with
        | Some payload
          when Fragment.fnv64 payload = hash
               && Result.is_ok (Dex_codec.Codec.decode snap_payload_codec payload) ->
          Registry.incr t.dl.c_decodes;
          install_snapshot_locked t ~slot payload
        | _ ->
          Registry.incr t.dl.c_decode_failures;
          Catch_up.drop_snap_group t.cu ~slot ~hash)
    end

  (* Serve a full snapshot payload: the preferred on-disk snapshot when it
     is ahead of the requester (stable and byte-identical across correct
     replicas), else a live capture. *)
  let serve_snapshot_full t ~from ~from_slot =
    match Durability_lane.load_disk_snapshot t.lane with
    | Some (slot, payload) when slot > from_slot ->
      [ Protocol.Send (from, Snapshot_payload (slot, payload)) ]
    | _ ->
      Mutex.lock t.lock;
      let slot = t.apply_next in
      let payload = encode_snapshot_locked t in
      Mutex.unlock t.lock;
      if slot > from_slot then [ Protocol.Send (from, Snapshot_payload (slot, payload)) ]
      else []

  (* Coded variant: same snapshot choice, but ship only our own systematic
     fragment of it — the requester assembles k fragments from k peers.
     Works when peers answer for the same (slot, payload); the requester
     falls back to {!serve_snapshot_full} via [Snapshot_fetch_full] after
     a couple of fruitless rounds (e.g. misaligned live frontiers). *)
  let serve_snapshot_coded t ~from ~from_slot =
    let chosen =
      match Durability_lane.load_disk_snapshot t.lane with
      | Some (slot, payload) when slot > from_slot -> Some (slot, payload)
      | _ ->
        Mutex.lock t.lock;
        let slot = t.apply_next in
        let payload = encode_snapshot_locked t in
        Mutex.unlock t.lock;
        if slot > from_slot then Some (slot, payload) else None
    in
    match chosen with
    | None -> []
    | Some (slot, payload) ->
      let hash = Fragment.fnv64 payload in
      let len = String.length payload in
      let bodies = Rs.encode ~k:t.dl.k ~n:t.cfg.n payload in
      let frag =
        Fragment.make ~digest:hash ~index:t.me ~total:t.cfg.n ~data:t.dl.k ~len bodies.(t.me)
      in
      Mutex.lock t.lock;
      Registry.incr t.dl.c_frag_sent;
      Registry.add t.dl.c_frag_bytes_out (String.length frag.Fragment.body);
      Mutex.unlock t.lock;
      [ Protocol.Send (from, Snapshot_frag { slot; frag }) ]

  (* ------------------------- content resolution ------------------------- *)

  (* Verified batch content for [digest] is in hand (peer payload or a
     fragment decode): store it, pin it for as long as a committed slot
     references it, clear the fetch state, and drain whatever it unblocks. *)
  let accept_content_locked t digest batch =
    if not (Hashtbl.mem t.store digest) then Hashtbl.replace t.store digest batch;
    (* Pin the content for as long as a committed-but-unapplied slot still
       references it: the newest such slot in [commit_buf] (falling back to
       the apply frontier), never downgrading a newer reference already
       recorded. *)
    let newest_ref =
      Hashtbl.fold
        (fun slot (d, _) acc -> if d = digest then max acc slot else acc)
        t.commit_buf t.apply_next
    in
    let prev = Option.value ~default:0 (Hashtbl.find_opt t.last_use digest) in
    Hashtbl.replace t.last_use digest (max prev newest_ref);
    Hashtbl.remove t.unresolved digest;
    clear_frag_state_locked t digest;
    apply_ready_locked t;
    (* A contentless catch-up install may have been waiting on exactly this
       digest; with the frontier advanced, further voted slots can land. *)
    if Catch_up.active t.cu then try_install_locked t

  (* Fail an unresolved coded fetch over to the full lane — once: the
     fallback timer and a decode failure can both get here. *)
  let fallback_to_full_locked t digest =
    if Hashtbl.mem t.unresolved digest && not (Hashtbl.mem t.dl.fb digest) then begin
      Hashtbl.replace t.dl.fb digest ();
      Registry.incr t.dl.c_decode_fallbacks;
      full_fetch_locked t digest
    end

  (* Enough fragments pooled: reconstruct, decode, recanonicalize, rehash.
     Only a digest match lets the content in — a Byzantine fragment with a
     self-consistent checksum can corrupt the reconstruction but cannot
     forge the batch digest. *)
  let try_decode_locked t digest =
    match (Hashtbl.find_opt t.dl.frags digest, Hashtbl.find_opt t.dl.frag_len digest) with
    | Some pool, Some len when Hashtbl.length pool >= t.dl.k ->
      let picks = Hashtbl.fold (fun i b acc -> (i, b) :: acc) pool [] in
      let ingress = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 picks in
      let reconstructed =
        match Rs.decode ~k:t.dl.k ~n:t.cfg.n ~len picks with
        | None -> None
        | Some blob -> (
          match Batch.of_blob blob with
          | Error _ -> None
          | Ok body ->
            let batch = Batch.canonical body in
            if Batch.digest batch = digest then Some batch else None)
      in
      (match reconstructed with
      | Some batch ->
        Registry.incr t.dl.c_decodes;
        (* Versus the full lane, where every holder answers the broadcast
           with the whole blob: (n-1) full copies vs what we ingressed. *)
        Registry.add t.dl.c_bytes_saved (max 0 (((t.cfg.n - 1) * len) - ingress));
        accept_content_locked t digest batch
      | None ->
        (* Some fragment lied (or pools mixed): drop the pool and fail
           over to the full lane, whose rehash gate is per-payload. *)
        Registry.incr t.dl.c_decode_failures;
        Hashtbl.remove t.dl.frags digest;
        Hashtbl.remove t.dl.frag_len digest;
        fallback_to_full_locked t digest)
    | _ -> ()

  (* One batch fragment arrived. Solicited fragments (the digest is being
     fetched) are accepted from anyone; unsolicited ones (the proposer
     push) only from their home replica (index = sender), and only while
     the pool table has room — a Byzantine sender cannot grow the tables. *)
  let handle_frag_locked t ~from frag =
    let digest = frag.Fragment.digest in
    if
      Fragment.valid frag && frag.Fragment.total = t.cfg.n && frag.Fragment.data = t.dl.k
      && digest <> Batch.empty_digest
      && not (Hashtbl.mem t.store digest)
    then begin
      let wanted = Hashtbl.mem t.unresolved digest in
      (* Unsolicited acceptance, two bounded shapes: a peer relaying its
         home fragment ([index = from]) and the proposer push assigning us
         ours ([index = me]) — one fragment per digest either way. *)
      let solicited_ok =
        wanted || frag.Fragment.index = from || frag.Fragment.index = t.me
      in
      let room = Hashtbl.mem t.dl.frags digest || Hashtbl.length t.dl.frags < 4096 in
      if solicited_ok && room then begin
        Registry.incr t.dl.c_frag_recv;
        Registry.add t.dl.c_frag_bytes_in (String.length frag.Fragment.body);
        let pool =
          match Hashtbl.find_opt t.dl.frags digest with
          | Some m -> m
          | None ->
            let m = Hashtbl.create 8 in
            Hashtbl.replace t.dl.frags digest m;
            (* Pin fresh pools at the current frontier so the store GC
               keeps them for [retain] slots, like any other content. *)
            if not (Hashtbl.mem t.last_use digest) then
              Hashtbl.replace t.last_use digest t.apply_next;
            m
        in
        let len_ok =
          match Hashtbl.find_opt t.dl.frag_len digest with
          | Some l -> l = frag.Fragment.len
          | None ->
            Hashtbl.replace t.dl.frag_len digest frag.Fragment.len;
            true
        in
        if len_ok && not (Hashtbl.mem pool frag.Fragment.index) then
          Hashtbl.replace pool frag.Fragment.index frag.Fragment.body;
        if wanted then try_decode_locked t digest
      end
    end

  (* Serve a catch-up request: a chunk of [Slot_commit]s from the commit log
     (content from the store), or [Truncated] if that history is retired. *)
  let serve_catchup_locked t ~from ~from_slot =
    if from_slot >= t.apply_next then
      push_action t (Protocol.Send (from, Catch_up_done t.apply_next))
    else if from_slot < t.commit_log_floor then
      push_action t (Protocol.Send (from, Truncated (snapshot_slot_locked t)))
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
        | Some (digest, provenance) ->
          if digest = Batch.empty_digest then
            entries := (slot, digest, provenance, []) :: !entries
          else begin
            match Hashtbl.find_opt t.store digest with
            | Some batch ->
              (* Coded mode serves the vote digest-only (an empty batch
                 with a non-empty digest): the requester pulls the content
                 over the fragment lane, which this responder can answer
                 since it holds the batch. *)
              let body = if coded t then [] else batch in
              entries := (slot, digest, provenance, body) :: !entries
            | None -> complete := false
          end
      done;
      if not !complete then
        push_action t (Protocol.Send (from, Truncated (snapshot_slot_locked t)))
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
              commit_log_push_locked t ~slot ~digest ~provenance;
              if digest <> Batch.empty_digest then
                apply_batch_locked t ~slot ~provenance ~lsn:0 batch;
              t.apply_next <- slot + 1;
              t.next_slot <- t.apply_next;
              Registry.incr t.c_recovered
            end)
      r.Durability_lane.entries

  (* ----------------------------- the replica ----------------------------- *)

  let replica ?catchup ?service_reactor:shared_loop cfg ~me ~transport =
    let metrics = Registry.create () in
    let lane, recovered =
      Durability_lane.create ?dir:(replica_dir cfg me) ~segment_bytes:cfg.wal_segment_bytes
        ~metrics ()
    in
    (* The replica runs on one reactor: client I/O, the batcher cadence and
       the WAL group-commit timer all land on it. By default it owns a
       private loop (whose [reactor/*] gauges land in this replica's
       registry); a sharded deployment passes [service_reactor] to share
       loops across co-located replicas — borrowed, never stopped by this
       replica. *)
    let owns_reactor, service_reactor =
      match shared_loop with
      | Some r -> (false, r)
      | None -> (true, Reactor.create ~metrics ~name:(Printf.sprintf "replica-%d" me) ())
    in
    let t =
      {
        cfg;
        me;
        transport;
        lock = Mutex.create ();
        admission = Admission.create ~cap:cfg.queue_cap;
        lane;
        cu = Catch_up.create ~n:cfg.n ~t:cfg.t ~cap:cfg.catchup_cap ~grace:cfg.catchup_grace;
        dl =
          {
            k = Rs.data_count ~n:cfg.n ~t:cfg.t;
            frags = Hashtbl.create 16;
            frag_len = Hashtbl.create 16;
            enc_cache = Hashtbl.create 16;
            fb = Hashtbl.create 8;
            rounds = Hashtbl.create 8;
            snap_rounds = 0;
            c_fetch_rtts = Registry.counter metrics "service/fetch_rtts";
            c_fetch_bytes = Registry.counter metrics "service/fetch_bytes";
            c_frag_sent = Registry.counter metrics "erasure/frag_sent";
            c_frag_recv = Registry.counter metrics "erasure/frag_recv";
            c_frag_bytes_out = Registry.counter metrics "erasure/frag_bytes_out";
            c_frag_bytes_in = Registry.counter metrics "erasure/frag_bytes_in";
            c_pushes = Registry.counter metrics "erasure/pushes";
            c_decodes = Registry.counter metrics "erasure/decodes";
            c_decode_failures = Registry.counter metrics "erasure/decode_failures";
            c_decode_fallbacks = Registry.counter metrics "erasure/decode_fallbacks";
            c_bytes_saved = Registry.counter metrics "erasure/bytes_saved";
          };
        store = Hashtbl.create 256;
        last_use = Hashtbl.create 256;
        sessions = Hashtbl.create 64;
        conns = Hashtbl.create 64;
        dirty = Hashtbl.create 8;
        commit_buf = Hashtbl.create 64;
        unresolved = Hashtbl.create 8;
        outbox = ref [];
        state = State_machine.create ();
        commit_log = [];
        commit_log_len = 0;
        commit_log_floor = 0;
        apply_next = 0;
        next_slot = 0;
        last_progress = Unix.gettimeofday ();
        last_watchdog = Unix.gettimeofday ();
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
        c_fetches = Registry.counter metrics "service/fetches";
        c_recovered = Registry.counter metrics "service/recovered_slots";
        c_catchup_installed = Registry.counter metrics "service/catchup_installed";
        c_state_transfers = Registry.counter metrics "service/state_transfers";
        running = false;
        listener = None;
        service_port = None;
        service_reactor;
        owns_reactor;
        client_conns = [];
        batch_timer = None;
        cut_armed = false;
        cut_timer = None;
        cut_margin = 0.0001;
        g_client_hwm = Registry.gauge metrics "service/client_wbuf_hwm";
      }
    in
    Registry.gauge_fn metrics "service/backlog" (fun () -> Admission.size t.admission);
    Registry.gauge_fn metrics "service/apply_lag" (fun () -> Hashtbl.length t.commit_buf);
    replay t recovered;
    if cfg.group_commit then
      Durability_lane.start_group_commit ~reactor:service_reactor lane ~delay:cfg.sync_delay
        ~cap:cfg.sync_cap ~on_durable:(on_durable t);
    let want_catchup =
      match catchup with Some c -> c | None -> recovered.Durability_lane.had_state
    in
    (* Arm the gate immediately — traffic arriving before [start] must see
       it up; [start] restamps the grace deadline and broadcasts. *)
    if want_catchup then ignore (Catch_up.begin_ t.cu ~now:(Unix.gettimeofday ()));
    let log_inst =
      Log.replica ~activation:`On_demand ~retain:cfg.retain ~base:t.apply_next (log_config cfg)
        ~me
        ~propose:(fun ~slot -> propose t ~slot)
        ~on_commit:(fun ~slot ~provenance v -> on_commit t ~slot ~provenance v)
    in
    let start () =
      Mutex.lock t.lock;
      if Catch_up.active t.cu then begin
        Catch_up.restamp t.cu ~now:(Unix.gettimeofday ());
        broadcast_catchup_locked t
      end;
      Mutex.unlock t.lock;
      lift (log_inst.Protocol.start ()) @ drain t
    in
    let on_message ~now ~from m =
      match m with
      | Log_msg lm -> lift (log_inst.Protocol.on_message ~now ~from lm) @ drain t
      | Fetch (digest, _) when Pid.equal from t.me ->
        (* Our own retry timer: re-broadcast while still unresolved. *)
        Mutex.lock t.lock;
        if Hashtbl.mem t.unresolved digest then begin
          List.iter
            (fun peer -> push_action t (Protocol.Send (peer, Fetch (digest, t.apply_next))))
            (peers t);
          push_action t
            (Protocol.Set_timer
               { delay = t.cfg.fetch_retry; msg = Fetch (digest, t.apply_next) })
        end;
        Mutex.unlock t.lock;
        drain t
      | Fetch (digest, stuck_slot) ->
        Mutex.lock t.lock;
        let content = Hashtbl.find_opt t.store digest in
        let answer =
          match content with
          | Some batch -> Some (Batch_payload (digest, batch))
          | None ->
            (* We are past that slot and have retired the content: point the
               requester at snapshot transfer instead of letting its fetch
               retry forever (commit_log_cap truncation closes this path). *)
            if stuck_slot < t.apply_next then Some (Truncated (snapshot_slot_locked t))
            else None
        in
        Mutex.unlock t.lock;
        (match answer with Some reply -> [ Protocol.Send (from, reply) ] | None -> [])
      | Batch_payload (digest, body) ->
        (* Never trust the claimed digest: recanonicalize and rehash. *)
        let batch = Batch.canonical body in
        if digest <> Batch.empty_digest && Batch.digest batch = digest then begin
          Mutex.lock t.lock;
          (* Full-lane ingress accounting: every holder answers the fetch
             broadcast, so redundant copies are real fetched bytes too. *)
          Registry.add t.dl.c_fetch_bytes (String.length (Batch.to_blob batch));
          if Hashtbl.mem t.unresolved digest then Registry.incr t.dl.c_fetch_rtts;
          accept_content_locked t digest batch;
          flush_dirty_locked t;
          Mutex.unlock t.lock;
          drain t
        end
        else []
      | Catch_up from_slot when Pid.equal from t.me ->
        (* Our own control traffic: [-1] is the batcher's stall watchdog
           ((re-)enter catch-up); otherwise it is the retry timer — while
           catching up, re-ask from the current frontier (peers committed
           more since the last round). *)
        Mutex.lock t.lock;
        if from_slot < 0 then begin
          if
            (not (Catch_up.active t.cu))
            && (t.next_slot > t.apply_next || Hashtbl.length t.commit_buf > 0)
          then begin_catchup_locked t
        end
        else if Catch_up.active t.cu then begin
          check_catchup_done_locked t;
          if Catch_up.active t.cu then begin
            List.iter
              (fun peer -> push_action t (Protocol.Send (peer, Catch_up t.apply_next)))
              (peers t);
            push_action t
              (Protocol.Set_timer { delay = t.cfg.catchup_retry; msg = Catch_up from_slot })
          end
        end;
        Mutex.unlock t.lock;
        drain t
      | Catch_up from_slot ->
        Mutex.lock t.lock;
        if from_slot >= 0 && from_slot <= t.cfg.slots then serve_catchup_locked t ~from ~from_slot;
        Mutex.unlock t.lock;
        drain t
      | Slot_commit { slot; digest; provenance; batch } ->
        if Pid.equal from t.me then []
        else begin
          Mutex.lock t.lock;
          record_slot_vote_locked t ~from ~slot ~digest ~provenance ~batch;
          flush_dirty_locked t;
          Mutex.unlock t.lock;
          drain t
        end
      | Catch_up_done frontier ->
        if Pid.equal from t.me then []
        else begin
          Mutex.lock t.lock;
          if Catch_up.active t.cu then begin
            Catch_up.note_frontier t.cu ~peer:from frontier;
            check_catchup_done_locked t
          end;
          Mutex.unlock t.lock;
          drain t
        end
      | Truncated snap_slot ->
        (* A peer retired the history we were fetching: switch to snapshot
           transfer. Only honoured while actually stuck (an unresolved fetch
           or an ongoing catch-up) — a lying peer cannot put an idle replica
           into the catch-up gate. *)
        Mutex.lock t.lock;
        if
          (not (Pid.equal from t.me))
          && snap_slot > t.apply_next
          && (Catch_up.active t.cu || Hashtbl.length t.unresolved > 0)
        then begin
          begin_catchup_locked t;
          (* Coded transfer needs k peers aligned on one (slot, payload);
             after a couple of fruitless rounds (misaligned live
             frontiers, churn) demand the full payload instead. *)
          let msg =
            if coded t && t.dl.snap_rounds >= 2 then Snapshot_fetch_full t.apply_next
            else begin
              if coded t then t.dl.snap_rounds <- t.dl.snap_rounds + 1;
              Snapshot_fetch t.apply_next
            end
          in
          List.iter (fun peer -> push_action t (Protocol.Send (peer, msg))) (peers t)
        end;
        Mutex.unlock t.lock;
        drain t
      | Snapshot_fetch from_slot ->
        if Pid.equal from t.me then []
        else if coded t then serve_snapshot_coded t ~from ~from_slot
        else serve_snapshot_full t ~from ~from_slot
      | Snapshot_fetch_full from_slot ->
        if Pid.equal from t.me then [] else serve_snapshot_full t ~from ~from_slot
      | Snapshot_payload (slot, payload) ->
        if Pid.equal from t.me then []
        else begin
          Mutex.lock t.lock;
          record_snap_vote_locked t ~from ~slot payload;
          flush_dirty_locked t;
          Mutex.unlock t.lock;
          drain t
        end
      | Frag_request (digest, _, _) when Pid.equal from t.me ->
        (* Coded-fetch round timer. The pool may already hold enough
           fragments (pushed before the fetch began) without anything
           having triggered a decode, so try that first; otherwise
           re-request the still-missing indices for a few rounds — the
           full lane retries forever, so one 50 ms round is not a fair
           trial — and only then fail over. *)
        Mutex.lock t.lock;
        if Hashtbl.mem t.unresolved digest then begin
          try_decode_locked t digest;
          if Hashtbl.mem t.unresolved digest && not (Hashtbl.mem t.dl.fb digest) then begin
            let r = 1 + Option.value ~default:0 (Hashtbl.find_opt t.dl.rounds digest) in
            if r <= 3 then begin
              Hashtbl.replace t.dl.rounds digest r;
              coded_fetch_locked t digest
            end
            else fallback_to_full_locked t digest
          end
        end;
        Mutex.unlock t.lock;
        drain t
      | Frag_request (digest, mask, stuck_slot) ->
        Mutex.lock t.lock;
        (match Hashtbl.find_opt t.store digest with
        | Some batch ->
          if mask land (1 lsl t.cfg.n) <> 0 then begin
            (* Desperate round: serve every missing index we can encode. *)
            let entry = fragments_locked t digest batch in
            for i = 0 to t.cfg.n - 1 do
              if mask land (1 lsl i) <> 0 then
                send_frag_locked t ~to_:from (frag_of_locked t digest ~index:i entry)
            done
          end
          else if mask land (1 lsl t.me) <> 0 then begin
            let entry = fragments_locked t digest batch in
            send_frag_locked t ~to_:from (frag_of_locked t digest ~index:t.me entry)
          end
        | None -> (
          (* No full content, but the proposer push may have seeded us with
             our home fragment — relay it, turning every pushed-to replica
             into a server for its own index. *)
          match
            ( Hashtbl.find_opt t.dl.frags digest,
              Hashtbl.find_opt t.dl.frag_len digest )
          with
          | Some pool, Some len
            when mask land (1 lsl t.me) <> 0 && Hashtbl.mem pool t.me ->
            send_frag_locked t ~to_:from
              (Fragment.make ~digest ~index:t.me ~total:t.cfg.n ~data:t.dl.k ~len
                 (Hashtbl.find pool t.me))
          | _ ->
            (* Same refusal as the full lane: if we are past the requester's
               stuck slot and retired the content, point it at snapshot
               transfer rather than letting it retry forever. *)
            if stuck_slot < t.apply_next then
              push_action t (Protocol.Send (from, Truncated (snapshot_slot_locked t)))));
        Mutex.unlock t.lock;
        drain t
      | Frag_payload frag ->
        if Pid.equal from t.me then []
        else begin
          Mutex.lock t.lock;
          handle_frag_locked t ~from frag;
          flush_dirty_locked t;
          Mutex.unlock t.lock;
          drain t
        end
      | Snapshot_frag { slot; frag } ->
        if Pid.equal from t.me then []
        else begin
          Mutex.lock t.lock;
          record_snap_frag_locked t ~from ~slot frag;
          flush_dirty_locked t;
          Mutex.unlock t.lock;
          drain t
        end
    in
    (t, { Protocol.start; on_message })

  (* --------------------------- service hooks ----------------------------- *)

  let handle_request t ~conn (r : Wire.request) =
    Mutex.lock t.lock;
    Hashtbl.replace t.conns r.Wire.client conn;
    (match Hashtbl.find_opt t.sessions r.Wire.client with
    | Some (last, cached, cached_lsn) when r.Wire.rid <= last ->
      (* Idempotent retry: answer from the session cache (stale rids below
         the cached one get nothing — the client has long moved on). The
         cached outcome still waits for its WAL record if that has not
         synced yet. *)
      if r.Wire.rid = last then
        reply_or_queue_locked t ~client:r.Wire.client ~rid:r.Wire.rid ~lsn:cached_lsn cached
    | _ ->
      if Catch_up.active t.cu then begin
        (* Not admitted until we have rejoined the present: we could neither
           propose nor apply this request at the right slot yet. *)
        Registry.incr t.c_busy;
        reply_locked t ~client:r.Wire.client ~rid:r.Wire.rid Wire.Busy
      end
      else begin
        match Admission.admit t.admission ~now:(Unix.gettimeofday ()) r with
        | Admission.Admitted ->
          (* Event-driven cut: fire when this request turns settle-eligible
             instead of waiting for the next periodic tick. *)
          arm_cut t
        | Admission.Duplicate -> ()
        | Admission.Overflow ->
          Registry.incr t.c_busy;
          reply_locked t ~client:r.Wire.client ~rid:r.Wire.rid Wire.Busy
      end);
    flush_dirty_locked t;
    Mutex.unlock t.lock

  (* The fsyncs of a snapshot install (tmp write + rename + dir sync + WAL
     truncation) run here, off the apply path; capture happened under the
     lock at the slot boundary. *)
  let install_pending_snapshot t =
    let snap =
      Mutex.lock t.lock;
      let s = Durability_lane.take_capture t.lane in
      Mutex.unlock t.lock;
      s
    in
    match snap with
    | Some (slot, payload, covering_lsn) ->
      Durability_lane.install_capture t.lane ~slot ~payload ~covering_lsn
    | None -> ()

  (* ------------------------------ observation ----------------------------- *)

  let stats t =
    Mutex.lock t.lock;
    let backlog = Admission.size t.admission in
    let apply_lag = Hashtbl.length t.commit_buf in
    Mutex.unlock t.lock;
    {
      committed_slots = Registry.value t.c_committed;
      empty_slots = Registry.value t.c_empty;
      one_step = Registry.value (List.assoc PL.One_step t.c_provenance);
      two_step = Registry.value (List.assoc PL.Two_step t.c_provenance);
      underlying = Registry.value (List.assoc PL.Underlying t.c_provenance);
      applied = Registry.value t.c_applied;
      suppressed_duplicates = Registry.value t.c_suppressed;
      busy_rejections = Registry.value t.c_busy;
      fetches = Registry.value t.c_fetches;
      backlog;
      apply_lag;
      recovered_slots = Registry.value t.c_recovered;
      catchup_installed = Registry.value t.c_catchup_installed;
      state_transfers = Registry.value t.c_state_transfers;
      snapshots = Durability_lane.snapshots t.lane;
    }

  let metrics t = t.metrics

  let wal_stats t = Durability_lane.wal_stats t.lane

  let durable_lsn t = Durability_lane.durable_lsn t.lane

  let catching_up t =
    Mutex.lock t.lock;
    let c = Catch_up.active t.cu in
    Mutex.unlock t.lock;
    c

  let apply_frontier t =
    Mutex.lock t.lock;
    let f = t.apply_next in
    Mutex.unlock t.lock;
    f

  let commit_log t =
    Mutex.lock t.lock;
    let log = List.rev t.commit_log in
    Mutex.unlock t.lock;
    log

  let state_snapshot t =
    Mutex.lock t.lock;
    let snap = State_machine.snapshot t.state in
    Mutex.unlock t.lock;
    snap

  let state_digest t =
    Mutex.lock t.lock;
    let d = State_machine.digest t.state in
    Mutex.unlock t.lock;
    d

  let pp_stats ppf (s : stats) =
    Format.fprintf ppf
      "slots %d (empty %d) | 1-step %d 2-step %d uc %d | applied %d dup %d busy %d fetch %d | backlog %d lag %d | recov %d catchup %d xfer %d snap %d"
      s.committed_slots s.empty_slots s.one_step s.two_step s.underlying s.applied
      s.suppressed_duplicates s.busy_rejections s.fetches s.backlog s.apply_lag
      s.recovered_slots s.catchup_installed s.state_transfers s.snapshots
end
