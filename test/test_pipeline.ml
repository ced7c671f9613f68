(* Unit tests for the staged replica pipeline (lib/service): admission
   verdicts and the oldest-age invariant, batcher cut/tick timing (settle
   exclusion, cap truncation, oldest re-arming, overdue valve, stall
   watchdog), the durability lane's persist-before-reply gate and snapshot
   cadence, the catch-up stage's [t+1] vote thresholds, and the content
   stage's full and coded fetch lanes; and the replica they make up, driven
   through [Replica.step] alone. None of these need a live deployment —
   they drive the stages directly, with no socket, thread or loop. *)

open Dex_service
module Registry = Dex_metrics.Registry
module Sm = State_machine
module Protocol = Dex_net.Protocol
module Fragment = Dex_erasure.Fragment

let req ?(client = 1) rid = { Wire.client; rid; command = Sm.Add ("k", 1) }

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dex-pipeline-test-%d-%d" (Unix.getpid ()) !dir_counter)

(* ----------------------------- admission ----------------------------- *)

let test_admission_verdicts () =
  let adm = Admission.create ~cap:2 in
  Alcotest.(check bool) "admitted" true (Admission.admit adm ~now:1.0 (req 1) = Admission.Admitted);
  Alcotest.(check bool) "duplicate" true (Admission.admit adm ~now:2.0 (req 1) = Admission.Duplicate);
  Alcotest.(check bool) "second" true (Admission.admit adm ~now:2.0 (req 2) = Admission.Admitted);
  Alcotest.(check bool) "overflow" true (Admission.admit adm ~now:3.0 (req 3) = Admission.Overflow);
  (* A duplicate of a pending request is reported as such even at cap. *)
  Alcotest.(check bool) "dup at cap" true (Admission.admit adm ~now:3.0 (req 2) = Admission.Duplicate);
  Alcotest.(check int) "size" 2 (Admission.size adm)

let test_admission_oldest () =
  let adm = Admission.create ~cap:8 in
  Alcotest.(check bool) "empty oldest" true (Admission.oldest adm = Float.infinity);
  ignore (Admission.admit adm ~now:5.0 (req 1));
  ignore (Admission.admit adm ~now:3.0 (req 2));
  ignore (Admission.admit adm ~now:9.0 (req 3));
  Alcotest.(check (float 0.0)) "oldest tracks min" 3.0 (Admission.oldest adm);
  Admission.remove adm ~client:1 ~rid:2;
  (* [remove] does not rescan; the owner refreshes after a batch of
     removals. *)
  Admission.refresh_oldest adm;
  Alcotest.(check (float 0.0)) "refreshed" 5.0 (Admission.oldest adm);
  Admission.remove adm ~client:1 ~rid:1;
  Admission.remove adm ~client:1 ~rid:3;
  Admission.refresh_oldest adm;
  Alcotest.(check bool) "drained resets" true (Admission.oldest adm = Float.infinity)

(* ------------------------------ batcher ------------------------------ *)

let test_cut_settle_exclusion () =
  let adm = Admission.create ~cap:8 in
  ignore (Admission.admit adm ~now:1.0 (req 1));
  ignore (Admission.admit adm ~now:1.0 (req 2));
  ignore (Admission.admit adm ~now:1.95 (req 3));
  (* settle = 0.1: requests admitted at 1.0 have settled by now = 2.0, the
     one from 1.95 has not. *)
  let batch = Batcher.cut adm ~now:2.0 ~settle:0.1 ~cap:256 in
  Alcotest.(check int) "settled only" 2 (List.length batch);
  Alcotest.(check bool) "unsettled excluded" true
    (List.for_all (fun (r : Wire.request) -> r.Wire.rid <> 3) batch)

let test_cut_cap_truncation () =
  let adm = Admission.create ~cap:64 in
  for rid = 1 to 10 do
    ignore (Admission.admit adm ~now:1.0 (req rid))
  done;
  let batch = Batcher.cut adm ~now:2.0 ~settle:0.1 ~cap:4 in
  Alcotest.(check int) "capped" 4 (List.length batch);
  (* Canonical truncation keeps the lowest (client, rid) keys, so the cut
     is deterministic across replicas. *)
  Alcotest.(check bool) "lowest rids kept" true
    (List.for_all (fun (r : Wire.request) -> r.Wire.rid <= 4) batch)

let test_cut_rearms_oldest () =
  let adm = Admission.create ~cap:8 in
  ignore (Admission.admit adm ~now:1.0 (req 1));
  ignore (Admission.admit adm ~now:1.9 (req 2));
  let batch = Batcher.cut adm ~now:2.0 ~settle:0.5 ~cap:256 in
  Alcotest.(check int) "one settled" 1 (List.length batch);
  (* The cut request stays pending until applied (it may lose the slot), so
     [oldest] still spans the whole set — including both the proposed
     request and the unsettled one. *)
  Alcotest.(check (float 0.0)) "oldest spans proposed too" 1.0 (Admission.oldest adm);
  Admission.remove adm ~client:1 ~rid:1;
  Admission.refresh_oldest adm;
  Alcotest.(check (float 0.0)) "re-arms for the straggler" 1.9 (Admission.oldest adm)

let tick ?(now = 10.0) ?(catching_up = false) ?(backlog = 1) ?(oldest = 0.0) ?(settle = 0.002)
    ?(batch_delay = 0.004) ?(catchup_retry = 0.05) ?(idle = true) ?(outstanding = false)
    ?(last_progress = 10.0) ?(last_watchdog = 0.0) () =
  Batcher.tick ~now ~catching_up ~backlog ~oldest ~settle ~batch_delay ~catchup_retry ~idle
    ~outstanding ~last_progress ~last_watchdog

let test_tick_fire () =
  Alcotest.(check bool) "idle + settled backlog fires" true (tick ()).Batcher.fire;
  Alcotest.(check bool) "no backlog" false (tick ~backlog:0 ()).Batcher.fire;
  Alcotest.(check bool) "catching up" false (tick ~catching_up:true ()).Batcher.fire;
  Alcotest.(check bool) "not settled" false (tick ~oldest:9.999 ()).Batcher.fire;
  Alcotest.(check bool) "slot in flight" false (tick ~idle:false ()).Batcher.fire;
  (* The overdue valve: a stalled in-flight slot stops gating the release
     after ~10 ticks without progress. *)
  Alcotest.(check bool) "overdue valve" true
    (tick ~idle:false ~last_progress:9.9 ()).Batcher.fire

let test_tick_watchdog () =
  let sa = Batcher.stall_after ~catchup_retry:0.05 ~batch_delay:0.004 in
  Alcotest.(check (float 1e-9)) "stall_after is the larger bound" 0.25 sa;
  let stalled = tick ~backlog:0 ~outstanding:true ~last_progress:9.0 () in
  Alcotest.(check bool) "wedged after stall" true stalled.Batcher.wedged;
  Alcotest.(check bool) "healthy never wedges" false
    (tick ~backlog:0 ~outstanding:true ~last_progress:9.9 ()).Batcher.wedged;
  Alcotest.(check bool) "nothing outstanding" false
    (tick ~backlog:0 ~outstanding:false ~last_progress:9.0 ()).Batcher.wedged;
  (* The watchdog fires once per stall window, not once per tick. *)
  Alcotest.(check bool) "recent firing suppresses" false
    (tick ~backlog:0 ~outstanding:true ~last_progress:9.0 ~last_watchdog:9.9 ()).Batcher.wedged;
  Alcotest.(check bool) "catch-up suppresses" false
    (tick ~catching_up:true ~backlog:0 ~outstanding:true ~last_progress:9.0 ()).Batcher.wedged

(* --------------------------- durability lane --------------------------- *)

let test_lane_inert () =
  let metrics = Registry.create () in
  let lane, recovered = Durability_lane.create ~segment_bytes:4096 ~metrics () in
  Alcotest.(check bool) "disabled" false (Durability_lane.enabled lane);
  Alcotest.(check bool) "no prior state" false recovered.Durability_lane.had_state;
  Alcotest.(check int) "append is lsn 0" 0 (Durability_lane.append lane "rec");
  let got = ref [] in
  let reply ~client ~rid outcome = got := (client, rid, outcome) :: !got in
  Durability_lane.gate lane ~client:1 ~rid:2 ~lsn:0 Wire.Busy ~reply;
  Alcotest.(check int) "lsn 0 replies immediately" 1 (List.length !got);
  (* No capture cadence without a data dir. *)
  Durability_lane.maybe_capture lane ~apply_next:100 ~every:1 ~encode:(fun () -> "snap");
  Alcotest.(check bool) "no capture" true (Durability_lane.take_capture lane = None)

let test_lane_gate_and_release () =
  let metrics = Registry.create () in
  let lane, _ =
    Durability_lane.create ~dir:(fresh_dir ()) ~segment_bytes:4096 ~metrics ()
  in
  Alcotest.(check bool) "enabled" true (Durability_lane.enabled lane);
  (* Group commit on, but never started: appends queue behind the syncer —
     use the inline path instead by appending without a syncer. *)
  let lsn1 = Durability_lane.append lane "r1" in
  Alcotest.(check bool) "real lsn" true (lsn1 > 0);
  (* Inline sync already advanced the watermark, so the gate passes. *)
  let got = ref [] in
  let reply ~client ~rid outcome = got := (client, rid, outcome) :: !got in
  Durability_lane.gate lane ~client:1 ~rid:1 ~lsn:lsn1 Wire.Busy ~reply;
  Alcotest.(check int) "covered lsn replies" 1 (List.length !got);
  (* A reply gated on a future lsn waits for the watermark. *)
  Durability_lane.gate lane ~client:1 ~rid:2 ~lsn:(lsn1 + 5) Wire.Busy ~reply;
  Alcotest.(check int) "future lsn queued" 1 (List.length !got);
  Alcotest.(check bool) "stale watermark is a no-op" false
    (Durability_lane.release_up_to lane ~watermark:lsn1 ~reply);
  Alcotest.(check bool) "watermark releases" true
    (Durability_lane.release_up_to lane ~watermark:(lsn1 + 5) ~reply);
  Alcotest.(check int) "queued reply delivered" 2 (List.length !got);
  Durability_lane.stop lane

let test_lane_capture_cadence () =
  let metrics = Registry.create () in
  let dir = fresh_dir () in
  let lane, _ = Durability_lane.create ~dir ~segment_bytes:4096 ~metrics () in
  Durability_lane.maybe_capture lane ~apply_next:3 ~every:8 ~encode:(fun () -> "early");
  Alcotest.(check bool) "below cadence" true (Durability_lane.take_capture lane = None);
  let lsn = Durability_lane.append lane "r1" in
  Durability_lane.maybe_capture lane ~apply_next:8 ~every:8 ~encode:(fun () -> "snap8");
  (match Durability_lane.take_capture lane with
  | Some (slot, payload, covering_lsn) ->
    Alcotest.(check int) "capture slot" 8 slot;
    Alcotest.(check string) "payload" "snap8" payload;
    Alcotest.(check int) "covering lsn" lsn covering_lsn;
    Durability_lane.install_capture lane ~slot ~payload ~covering_lsn
  | None -> Alcotest.fail "expected a capture at the cadence boundary");
  Alcotest.(check int) "snapshots counted" 1 (Durability_lane.snapshots lane);
  Alcotest.(check bool) "claimed" true (Durability_lane.take_capture lane = None);
  (* One capture per boundary: the cadence pointer moved to slot 8. *)
  Durability_lane.maybe_capture lane ~apply_next:9 ~every:8 ~encode:(fun () -> "again");
  Alcotest.(check bool) "not due again" true (Durability_lane.take_capture lane = None);
  Durability_lane.stop lane;
  (* A fresh lane over the same dir recovers the installed snapshot and
     reports prior state. *)
  let lane2, recovered = Durability_lane.create ~dir ~segment_bytes:4096 ~metrics () in
  Alcotest.(check bool) "had state" true recovered.Durability_lane.had_state;
  (match recovered.Durability_lane.snapshot with
  | Some (slot, payload) ->
    Alcotest.(check int) "recovered slot" 8 slot;
    Alcotest.(check string) "recovered payload" "snap8" payload
  | None -> Alcotest.fail "expected the installed snapshot to recover");
  Durability_lane.stop lane2

(* ------------------------------ catch-up ------------------------------ *)

let batch_of rid = Batch.canonical [ req rid ]

let test_catchup_votes () =
  let cu = Catch_up.create ~n:4 ~t:1 ~cap:4 ~grace:60.0 in
  Alcotest.(check bool) "inactive" false (Catch_up.active cu);
  Alcotest.(check bool) "armed" true (Catch_up.begin_ cu ~now:0.0);
  Alcotest.(check bool) "second arm is a no-op" false (Catch_up.begin_ cu ~now:0.0);
  let b = batch_of 1 in
  let d = Batch.digest b in
  let vote from =
    Catch_up.record_slot_vote cu ~from ~frontier:0 ~slot:0 ~digest:d
      ~provenance:Dex_core.Dex.One_step ~batch:b
  in
  Alcotest.(check bool) "vote accepted" true (vote 1);
  Alcotest.(check bool) "one vote below t+1" true (Catch_up.installable cu ~frontier:0 = None);
  (* Re-votes from the same peer do not advance the count. *)
  Alcotest.(check bool) "revote accepted" true (vote 1);
  Alcotest.(check bool) "revote not counted" true (Catch_up.installable cu ~frontier:0 = None);
  Alcotest.(check bool) "second voter" true (vote 2);
  (match Catch_up.installable cu ~frontier:0 with
  | Some (digest, provenance, batch) ->
    Alcotest.(check bool) "digest" true (digest = d);
    Alcotest.(check bool) "provenance" true (provenance = Dex_core.Dex.One_step);
    Alcotest.(check bool) "content" true (batch = Some b)
  | None -> Alcotest.fail "t+1 votes must install");
  Catch_up.drop_below cu ~frontier:1;
  Alcotest.(check bool) "spent votes dropped" true (Catch_up.installable cu ~frontier:0 = None)

let test_catchup_vote_hygiene () =
  let cu = Catch_up.create ~n:4 ~t:1 ~cap:4 ~grace:60.0 in
  ignore (Catch_up.begin_ cu ~now:0.0);
  let b = batch_of 1 in
  let d = Batch.digest b in
  (* A forged digest is rejected (content must rehash to the claim). *)
  Alcotest.(check bool) "forged digest rejected" false
    (Catch_up.record_slot_vote cu ~from:1 ~frontier:0 ~slot:0 ~digest:(d + 1)
       ~provenance:Dex_core.Dex.One_step ~batch:b);
  (* Votes outside [frontier, frontier + 4*cap) are chaff. *)
  Alcotest.(check bool) "behind frontier rejected" false
    (Catch_up.record_slot_vote cu ~from:1 ~frontier:5 ~slot:4 ~digest:d
       ~provenance:Dex_core.Dex.One_step ~batch:b);
  Alcotest.(check bool) "past window rejected" false
    (Catch_up.record_slot_vote cu ~from:1 ~frontier:0 ~slot:16 ~digest:d
       ~provenance:Dex_core.Dex.One_step ~batch:b);
  (* The empty digest demands the empty batch, and installs as a no-op. *)
  Alcotest.(check bool) "empty digest + content rejected" false
    (Catch_up.record_slot_vote cu ~from:1 ~frontier:0 ~slot:0 ~digest:Batch.empty_digest
       ~provenance:Dex_core.Dex.One_step ~batch:b);
  let empty from =
    Catch_up.record_slot_vote cu ~from ~frontier:0 ~slot:0 ~digest:Batch.empty_digest
      ~provenance:Dex_core.Dex.Underlying ~batch:[]
  in
  ignore (empty 1);
  ignore (empty 2);
  (match Catch_up.installable cu ~frontier:0 with
  | Some (digest, _, batch) ->
    Alcotest.(check bool) "empty installs empty" true
      (digest = Batch.empty_digest && batch = Some [])
  | None -> Alcotest.fail "empty slot must install");
  Catch_up.finish cu;
  Alcotest.(check bool) "finish disarms" false (Catch_up.active cu);
  Alcotest.(check bool) "votes ignored while inactive" false
    (Catch_up.record_slot_vote cu ~from:1 ~frontier:0 ~slot:0 ~digest:d
       ~provenance:Dex_core.Dex.One_step ~batch:b)

let test_catchup_done () =
  let cu = Catch_up.create ~n:4 ~t:1 ~cap:4 ~grace:10.0 in
  ignore (Catch_up.begin_ cu ~now:0.0);
  Alcotest.(check bool) "not satisfied yet" false (Catch_up.satisfied cu ~now:1.0 ~frontier:5);
  (* n - 1 - t = 2 peers must confirm a frontier we have reached. *)
  Catch_up.note_frontier cu ~peer:1 3;
  Catch_up.note_frontier cu ~peer:2 9;
  Alcotest.(check bool) "peer ahead of us does not count" false
    (Catch_up.satisfied cu ~now:1.0 ~frontier:5);
  Catch_up.note_frontier cu ~peer:2 4;
  (* note_frontier keeps the max per peer: 9 still stands for peer 2. *)
  Alcotest.(check bool) "frontier reports are max-merged" false
    (Catch_up.satisfied cu ~now:1.0 ~frontier:5);
  Alcotest.(check bool) "reached the reports" true (Catch_up.satisfied cu ~now:1.0 ~frontier:9);
  (* Grace deadline: progress over completeness. *)
  Alcotest.(check bool) "grace deadline satisfies" true
    (Catch_up.satisfied cu ~now:10.5 ~frontier:0)

let test_catchup_snap_votes () =
  let cu = Catch_up.create ~n:4 ~t:1 ~cap:4 ~grace:60.0 in
  ignore (Catch_up.begin_ cu ~now:0.0);
  let validate p = p <> "bogus" in
  let vote from payload =
    Catch_up.record_snap_vote cu ~from ~frontier:2 ~slot:10 ~payload ~validate
  in
  Alcotest.(check bool) "invalid payload rejected" true (vote 1 "bogus" = None);
  Alcotest.(check bool) "behind frontier rejected" true
    (Catch_up.record_snap_vote cu ~from:1 ~frontier:10 ~slot:10 ~payload:"snap" ~validate
    = None);
  Alcotest.(check bool) "first vote waits" true (vote 1 "snap" = None);
  (* A different payload for the same slot accumulates separately — only
     byte-identical payloads share votes. *)
  Alcotest.(check bool) "divergent payload waits" true (vote 2 "other" = None);
  Alcotest.(check bool) "t+1 identical installs" true (vote 3 "snap" = Some (10, "snap"))

(* ------------------------------- content ------------------------------- *)

(* n = 4, t = 1: the coded lane decodes from any k = 3 fragments. *)
let content ?(mode = Dex_erasure.Dissemination.Full) me =
  let metrics = Registry.create () in
  (Content.create ~metrics ~mode ~n:4 ~t:1 ~me ~retry:0.05 ~retain:16, metrics)

let coded = Dex_erasure.Dissemination.Coded

let count metrics name = Registry.value (Registry.counter metrics name)

let deliver c ~from msg = Content.on_message c ~frontier:0 ~snapshot_slot:0 ~from msg

let batch6 = Batch.canonical (List.init 6 (fun rid -> req (rid + 1)))

let sent_frags actions =
  List.filter_map
    (function Protocol.Send (to_, Content.Frag_payload f) -> Some (to_, f) | _ -> None)
    actions

let test_content_full_fetch () =
  let c, metrics = content 0 in
  let b = batch_of 1 in
  let d = Batch.digest b in
  let actions = Content.request c d ~frontier:3 in
  let fetched_by =
    List.filter_map
      (function Protocol.Send (p, Content.Fetch (d', 3)) when d' = d -> Some p | _ -> None)
      actions
  in
  Alcotest.(check (list int)) "Fetch to every peer" [ 1; 2; 3 ] (List.sort compare fetched_by);
  Alcotest.(check bool) "plus a retry timer" true
    (List.mem (Protocol.Set_timer { delay = 0.05; msg = Content.Fetch (d, 3) }) actions);
  Alcotest.(check int) "fetch counted once" 1 (Content.fetches c);
  Alcotest.(check bool) "re-request while fetching is a no-op" true
    (Content.request c d ~frontier:3 = []);
  (* A payload whose body does not hash to the claimed digest is dropped. *)
  let _, forged = deliver c ~from:1 (Content.Batch_payload (d, batch_of 2)) in
  Alcotest.(check bool) "forged payload rejected" true (forged = None);
  Alcotest.(check bool) "still fetching" true (Content.fetching c);
  let retry, _ = deliver c ~from:0 (Content.Fetch (d, 3)) in
  Alcotest.(check int) "retry timer re-broadcasts" 4 (List.length retry);
  let _, resolved = deliver c ~from:2 (Content.Batch_payload (d, b)) in
  Alcotest.(check bool) "genuine payload resolves" true (resolved = Some (d, b));
  Alcotest.(check bool) "fetch over" false (Content.fetching c);
  Alcotest.(check int) "one fetch round trip" 1 (count metrics "service/fetch_rtts");
  Alcotest.(check bool) "late retry timer is a no-op" true
    (fst (deliver c ~from:0 (Content.Fetch (d, 3))) = [])

let test_content_coded_resolve () =
  let b = batch6 in
  let d = Batch.digest b in
  let home = d mod 4 in
  let others = List.filter (( <> ) home) [ 0; 1; 2; 3 ] in
  let proposer, proposer_metrics = content ~mode:coded home in
  let pushed = sent_frags (Content.propose proposer d b ~slot:0) in
  Alcotest.(check (list (pair int int))) "home push: each peer its own index"
    (List.map (fun p -> (p, p)) others)
    (List.sort compare (List.map (fun (to_, f) -> (to_, f.Fragment.index)) pushed));
  Alcotest.(check int) "push counted" 1 (count proposer_metrics "erasure/pushes");
  let away, _ = content ~mode:coded ((home + 1) mod 4) in
  Alcotest.(check bool) "only the home replica pushes" true
    (Content.propose away d b ~slot:0 = []);
  (* Replica r missed the push. The three other holders answer its request
     with their own fragments; any k = 3 of them reconstruct the batch. *)
  let me = List.hd others in
  let r, metrics = content ~mode:coded me in
  let mask =
    match Content.request r d ~frontier:0 with
    | Protocol.Send (_, Content.Frag_request (_, mask, _)) :: _ -> mask
    | _ -> Alcotest.fail "expected a fragment request"
  in
  let holder pid =
    let h, _ = content ~mode:coded pid in
    Content.add h d b ~slot:0;
    match sent_frags (fst (deliver h ~from:me (Content.Frag_request (d, mask, 0)))) with
    | [ (to_, f) ] when to_ = me && f.Fragment.index = pid -> f
    | _ -> Alcotest.fail "a holder serves exactly its own fragment"
  in
  let frags = List.map holder (List.filter (( <> ) me) [ 0; 1; 2; 3 ]) in
  let results =
    List.map (fun f -> snd (deliver r ~from:f.Fragment.index (Content.Frag_payload f))) frags
  in
  Alcotest.(check bool) "k - 1 fragments do not resolve" true
    (List.filteri (fun i _ -> i < 2) results = [ None; None ]);
  Alcotest.(check bool) "k fragments resolve the digest" true (List.nth results 2 = Some (d, b));
  Alcotest.(check int) "one decode" 1 (count metrics "erasure/decodes");
  Alcotest.(check int) "no fallback" 0 (count metrics "erasure/decode_fallbacks")

let test_content_coded_lie () =
  let b = batch6 in
  let d = Batch.digest b in
  let blob = Batch.to_blob b in
  let len = String.length blob in
  let bodies = Dex_erasure.Rs.encode ~k:3 ~n:4 blob in
  let frag i body = Fragment.make ~digest:d ~index:i ~total:4 ~data:3 ~len body in
  let r, metrics = content ~mode:coded 3 in
  ignore (Content.request r d ~frontier:0);
  ignore (deliver r ~from:0 (Content.Frag_payload (frag 0 bodies.(0))));
  ignore (deliver r ~from:1 (Content.Frag_payload (frag 1 bodies.(1))));
  (* Replica 2 lies with a self-consistent fragment: valid checksum, wrong
     body. The reconstruction cannot rehash to the digest. *)
  let lie = frag 2 (String.map (fun ch -> Char.chr (Char.code ch lxor 0x5a)) bodies.(2)) in
  Alcotest.(check bool) "the lie passes the checksum" true (Fragment.valid lie);
  let fallback, resolved = deliver r ~from:2 (Content.Frag_payload lie) in
  Alcotest.(check bool) "not resolved" true (resolved = None);
  Alcotest.(check int) "one decode failure" 1 (count metrics "erasure/decode_failures");
  Alcotest.(check int) "one fallback" 1 (count metrics "erasure/decode_fallbacks");
  Alcotest.(check bool) "fallback is a full fetch round" true
    (List.mem (Protocol.Set_timer { delay = 0.05; msg = Content.Fetch (d, 0) }) fallback
    && List.length fallback = 4);
  (* The coded round timer also fires, repeatedly: no second fallback. *)
  for _ = 1 to 5 do
    ignore (deliver r ~from:3 (Content.Frag_request (d, 0, 0)))
  done;
  Alcotest.(check int) "still one fallback" 1 (count metrics "erasure/decode_fallbacks");
  Alcotest.(check int) "still one decode failure" 1 (count metrics "erasure/decode_failures");
  (* The same fragments again rebuild the pool and fail a second decode:
     still no second fallback. *)
  ignore (deliver r ~from:0 (Content.Frag_payload (frag 0 bodies.(0))));
  ignore (deliver r ~from:1 (Content.Frag_payload (frag 1 bodies.(1))));
  let again, _ = deliver r ~from:2 (Content.Frag_payload lie) in
  Alcotest.(check int) "second decode failure" 2 (count metrics "erasure/decode_failures");
  Alcotest.(check int) "no second fallback" 1 (count metrics "erasure/decode_fallbacks");
  Alcotest.(check bool) "and no second full round" true (again = []);
  let _, resolved = deliver r ~from:1 (Content.Batch_payload (d, b)) in
  Alcotest.(check bool) "the full lane resolves it" true (resolved = Some (d, b))

(* Coded fetch rounds back off: round r waits 2^r x retry, so the fetch
   fails over to the full lane after 0.05 + 0.1 + 0.2 + 0.4 = 0.75 s
   (15 x retry) of unanswered rounds — once. *)
let test_content_coded_backoff () =
  let d = Batch.digest batch6 in
  let r, metrics = content ~mode:coded 3 in
  let round_timer actions =
    List.filter_map
      (function
        | Protocol.Set_timer { delay; msg = Content.Frag_request (d', 0, 0) } when d' = d ->
          Some delay
        | _ -> None)
      actions
  in
  let fire () = fst (deliver r ~from:3 (Content.Frag_request (d, 0, 0))) in
  Alcotest.(check (list (float 1e-9))) "first round waits retry" [ 0.05 ]
    (round_timer (Content.request r d ~frontier:0));
  List.iter
    (fun delay ->
      Alcotest.(check (list (float 1e-9))) "next round waits twice as long" [ delay ]
        (round_timer (fire ())))
    [ 0.1; 0.2; 0.4 ];
  Alcotest.(check int) "no fallback yet" 0 (count metrics "erasure/decode_fallbacks");
  let fallback = fire () in
  Alcotest.(check bool) "fourth firing falls over to a full fetch round" true
    (List.mem (Protocol.Set_timer { delay = 0.05; msg = Content.Fetch (d, 0) }) fallback
    && round_timer fallback = []);
  Alcotest.(check int) "one fallback" 1 (count metrics "erasure/decode_fallbacks");
  Alcotest.(check bool) "a later firing does nothing" true (fire () = []);
  Alcotest.(check int) "still one fallback" 1 (count metrics "erasure/decode_fallbacks")

let test_content_coded_unsolicited () =
  let r, metrics = content ~mode:coded 3 in
  let frag ~digest index = Fragment.make ~digest ~index ~total:4 ~data:3 ~len:3 "x" in
  let received () = count metrics "erasure/frag_recv" in
  ignore (deliver r ~from:2 (Content.Frag_payload (frag ~digest:1 1)));
  Alcotest.(check int) "index of neither sender nor us: ignored" 0 (received ());
  ignore (deliver r ~from:2 (Content.Frag_payload (frag ~digest:1 2)));
  Alcotest.(check int) "relayed home fragment pooled" 1 (received ());
  ignore (deliver r ~from:0 (Content.Frag_payload (frag ~digest:1 3)));
  Alcotest.(check int) "our own index pooled" 2 (received ());
  (* Each further digest opens a pool; the table stops at 4,096. *)
  for digest = 2 to 5000 do
    ignore (deliver r ~from:1 (Content.Frag_payload (frag ~digest 1)))
  done;
  Alcotest.(check int) "pool table bounded" (2 + 4095) (received ());
  ignore (deliver r ~from:1 (Content.Frag_payload (frag ~digest:1 1)));
  Alcotest.(check int) "an open pool still fills" (2 + 4095 + 1) (received ())

(* ------------------------------ replica ------------------------------ *)

module R = Replica.Make (Dex_core.Dex.Lane (Dex_underlying.Uc_oracle))

let freq4 = Dex_condition.Pair.freq ~n:4 ~t:0

let cfg4 = R.config ~pair:(fun _ -> freq4) ~n:4 ~t:0 ()

(* The batcher's release and its stall watchdog are self-addressed sends
   that must cross the transport (and its fault plan): each is a
   [Via_transport] to the replica itself, never a plain [Act]. *)
let test_replica_release_hop () =
  let me = 2 in
  let r = R.create cfg4 ~me ~now:0.0 in
  ignore (R.step r ~now:0.0 R.Start);
  let admitted = R.step r ~now:0.0 (R.Request (req 1)) in
  Alcotest.(check bool) "an admitted request arms the cut" true
    (List.exists (function R.Arm_cut _ -> true | _ -> false) admitted);
  let settled = cfg4.R.settle +. 0.0001 in
  let release = R.Log_msg (R.Log.release 1) in
  Alcotest.(check bool) "a tick past settle releases slot 0 over the transport" true
    (R.step r ~now:settled R.Tick = [ R.Via_transport (me, release) ]);
  (* The release opens slot 0 (our proposal goes out; no peer answers), so
     work is outstanding; with no progress past the stall bound the tick is
     wedged. *)
  ignore (R.step r ~now:settled (R.Message (me, release)));
  let stall =
    Batcher.stall_after ~catchup_retry:cfg4.R.catchup_retry ~batch_delay:cfg4.R.batch_delay
  in
  let wedged = R.step r ~now:(settled +. stall +. 0.001) R.Tick in
  Alcotest.(check bool) "a wedged tick sends Catch_up (-1) over the transport" true
    (List.mem (R.Via_transport (me, R.Catch_up (-1))) wedged);
  Alcotest.(check bool) "nothing of the tick is a plain action" true
    (List.for_all (function R.Via_transport (dst, _) -> dst = me | _ -> false) wedged)

(* A whole n=4 t=0 group driven only through [Replica.step]: an in-memory
   event queue ordered by a fake clock the test advances, a fixed hop
   latency, the UC oracle as a plain instance, and closed-loop clients
   that submit each request to every replica and send the next once all
   four have answered. *)
type target =
  | Step of Dex_net.Pid.t * R.event  (* a replica event *)
  | Node of Dex_net.Pid.t * Dex_net.Pid.t * R.smsg  (* to an auxiliary node, from *)

module Queue = Map.Make (struct
  type t = float * int

  let compare = compare
end)

let test_replica_group_on_fake_clock () =
  let n = 4 and clients = 4 and hop = 0.0002 and target_slots = 20 in
  let replicas = Array.init n (fun me -> R.create cfg4 ~me ~now:0.0) in
  let extra =
    List.map
      (fun (pid, inst) ->
        ( pid,
          Protocol.embed
            ~inject:(fun m -> R.Log_msg m)
            ~project:(function R.Log_msg m -> Some m | _ -> None)
            inst ))
      (R.Log.extra (R.log_config cfg4))
  in
  let queue = ref Queue.empty and seq = ref 0 in
  let at time target =
    incr seq;
    queue := Queue.add (time, !seq) target !queue
  in
  let send ~now ~src dst m =
    if dst < n then at (now +. hop) (Step (dst, R.Message (src, m)))
    else at (now +. hop) (Node (dst, src, m))
  in
  let actions ~now ~src =
    List.iter (function
      | Protocol.Send (dst, m) -> send ~now ~src dst m
      | Protocol.Set_timer { delay; msg } -> at (now +. delay) (Step (src, R.Message (src, msg)))
      | Protocol.Decide _ -> ())
  in
  (* Applied replies per (replica, client, rid), and per-request answers. *)
  let applied = Hashtbl.create 256 and answered = Hashtbl.create 64 in
  let next_rid = Array.make clients 0 and stopped = ref false in
  let submit ~now client =
    next_rid.(client) <- next_rid.(client) + 1;
    let r = { Wire.client; rid = next_rid.(client); command = Sm.Add ("k", 1) } in
    for p = 0 to n - 1 do
      at (now +. hop) (Step (p, R.Request r))
    done
  in
  let on_reply ~now me (r : Wire.reply) =
    match r.Wire.outcome with
    | Wire.Applied _ ->
      let key = (me, r.Wire.client, r.Wire.rid) in
      Hashtbl.replace applied key (1 + Option.value ~default:0 (Hashtbl.find_opt applied key));
      let k = (r.Wire.client, r.Wire.rid) in
      let got = 1 + Option.value ~default:0 (Hashtbl.find_opt answered k) in
      Hashtbl.replace answered k got;
      if got = n && r.Wire.rid = next_rid.(r.Wire.client) && not !stopped then
        submit ~now r.Wire.client
    | Wire.Busy -> Alcotest.fail "no replica is busy in a fault-free group"
  in
  let step ~now me event =
    let effects = R.step replicas.(me) ~now event in
    (match event with
    | R.Start | R.Message _ -> ()
    | _ ->
      if List.exists (function R.Act _ -> true | _ -> false) effects then
        Alcotest.fail "only Start and Message yield protocol actions");
    List.iter
      (function
        | R.Act a -> actions ~now ~src:me [ a ]
        | R.Reply r -> on_reply ~now me r
        | R.Arm_cut delay -> at (now +. delay) (Step (me, R.Cut))
        | R.Via_transport (dst, m) -> send ~now ~src:me dst m)
      effects
  in
  List.iter (fun (pid, inst) -> actions ~now:0.0 ~src:pid (inst.Protocol.start ())) extra;
  for me = 0 to n - 1 do
    step ~now:0.0 me R.Start;
    at cfg4.R.batch_delay (Step (me, R.Tick))
  done;
  for client = 0 to clients - 1 do
    submit ~now:0.0 client
  done;
  let committed () =
    Array.fold_left (fun acc r -> min acc (List.length (R.commit_log r))) max_int replicas
  in
  let all_answered () =
    Array.for_all Fun.id
      (Array.mapi (fun c rid -> Hashtbl.find_opt answered (c, rid) = Some n) next_rid)
  in
  let rec run () =
    match Queue.min_binding_opt !queue with
    | None -> ()
    | Some (((now, _) as key), target) ->
      queue := Queue.remove key !queue;
      if now > 30.0 then Alcotest.fail "the group did not commit within 30 s of fake time";
      if committed () >= target_slots then stopped := true;
      (match target with
      | Step (me, R.Tick) ->
        step ~now me R.Tick;
        at (now +. cfg4.R.batch_delay) (Step (me, R.Tick))
      | Step (me, event) -> step ~now me event
      | Node (pid, from, m) ->
        actions ~now ~src:pid ((List.assoc pid extra).Protocol.on_message ~now ~from m));
      if not (!stopped && all_answered ()) then run ()
  in
  run ();
  Alcotest.(check bool) "at least 20 slots committed" true (committed () >= target_slots);
  let log r = List.map (fun (slot, digest, _) -> (slot, digest)) (R.commit_log r) in
  Array.iter
    (fun r ->
      Alcotest.(check (list (pair int int))) "equal commit logs" (log replicas.(0)) (log r);
      Alcotest.(check int) "equal state digests" (R.state_digest replicas.(0)) (R.state_digest r))
    replicas;
  let requests = Array.fold_left ( + ) 0 next_rid in
  Alcotest.(check int) "every request applied at every replica" (n * requests)
    (Hashtbl.length applied);
  Alcotest.(check int) "exactly one Applied reply per request and replica" 0
    (Hashtbl.fold (fun _ count bad -> if count = 1 then bad else bad + 1) applied 0);
  Alcotest.(check (list (pair string int))) "the counter holds every request"
    [ ("k", requests) ] (R.state_snapshot replicas.(0))

let () =
  Alcotest.run "dex_pipeline"
    [
      ( "admission",
        [
          Alcotest.test_case "verdicts" `Quick test_admission_verdicts;
          Alcotest.test_case "oldest invariant" `Quick test_admission_oldest;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "cut: settle exclusion" `Quick test_cut_settle_exclusion;
          Alcotest.test_case "cut: cap truncation" `Quick test_cut_cap_truncation;
          Alcotest.test_case "cut: oldest re-arms" `Quick test_cut_rearms_oldest;
          Alcotest.test_case "tick: fire" `Quick test_tick_fire;
          Alcotest.test_case "tick: stall watchdog" `Quick test_tick_watchdog;
        ] );
      ( "durability-lane",
        [
          Alcotest.test_case "inert without dir" `Quick test_lane_inert;
          Alcotest.test_case "gate and release" `Quick test_lane_gate_and_release;
          Alcotest.test_case "capture cadence + recovery" `Quick test_lane_capture_cadence;
        ] );
      ( "catch-up",
        [
          Alcotest.test_case "t+1 slot votes" `Quick test_catchup_votes;
          Alcotest.test_case "vote hygiene" `Quick test_catchup_vote_hygiene;
          Alcotest.test_case "completion" `Quick test_catchup_done;
          Alcotest.test_case "t+1 snapshot votes" `Quick test_catchup_snap_votes;
        ] );
      ( "content",
        [
          Alcotest.test_case "full: fetch, retry, rehash" `Quick test_content_full_fetch;
          Alcotest.test_case "coded: home push, k-of-n resolve" `Quick test_content_coded_resolve;
          Alcotest.test_case "coded: lying fragment, one fallback" `Quick test_content_coded_lie;
          Alcotest.test_case "coded: rounds back off, then one fallback" `Quick
            test_content_coded_backoff;
          Alcotest.test_case "coded: unsolicited bounds" `Quick test_content_coded_unsolicited;
        ] );
      ( "replica",
        [
          Alcotest.test_case "step: release and watchdog cross the transport" `Quick
            test_replica_release_hop;
          Alcotest.test_case "step: n=4 group on a fake clock" `Quick
            test_replica_group_on_fake_clock;
        ] );
    ]
