(* Tests for dex_service: wire/batch codecs, canonical-batch and digest
   properties, and live loopback deployments (real sockets, real threads) —
   throughput sanity, session dedupe / idempotent retry, and an equivocating
   replica that must not break agreement or exactly-once application. *)

open Dex_service
module Codec = Dex_codec.Codec
module S = Server.Make (Dex_core.Dex.Lane (Dex_underlying.Uc_oracle))
module Sm = State_machine

let roundtrip codec v = Codec.decode_exn codec (Codec.encode codec v)

(* ----------------------------- codecs ----------------------------- *)

let sample_commands =
  [ Sm.Nop; Sm.Get "k"; Sm.Set ("key", 42); Sm.Add ("", -7); Sm.Del "gone" ]

let test_command_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "command" true (roundtrip Sm.command_codec c = c))
    sample_commands

let test_request_roundtrip () =
  List.iteri
    (fun i c ->
      let r = { Wire.client = 3 + i; rid = i * 17; command = c } in
      Alcotest.(check bool) "request" true (roundtrip Wire.request_codec r = r))
    sample_commands

let test_reply_roundtrip () =
  let replies =
    [
      { Wire.client = 1; rid = 0; outcome = Wire.Busy };
      {
        Wire.client = 2;
        rid = 9;
        outcome =
          Wire.Applied
            { output = Sm.Count 4; slot = 12; provenance = Dex_core.Dex.One_step };
      };
      {
        Wire.client = 2;
        rid = 10;
        outcome =
          Wire.Applied
            { output = Sm.Found None; slot = 13; provenance = Dex_core.Dex.Underlying };
      };
    ]
  in
  List.iter
    (fun r -> Alcotest.(check bool) "reply" true (roundtrip Wire.reply_codec r = r))
    replies

let test_batch_roundtrip () =
  let batch =
    Batch.canonical
      (List.mapi (fun i c -> { Wire.client = i mod 2; rid = i; command = c }) sample_commands)
  in
  Alcotest.(check bool) "batch" true (roundtrip Batch.codec batch = batch)

(* Wire round-trips for the dissemination-lane messages (smsg tags 9-12),
   plus boundary fuzz: no truncation of a fragment-bearing frame may decode
   into a different valid message. *)
let test_smsg_dissemination_roundtrip () =
  let frag =
    Dex_erasure.Fragment.make ~digest:0x5ca1ab1e ~index:2 ~total:4 ~data:3 ~len:11
      "abcd"
  in
  let msgs =
    [
      S.Frag_request (12345, 0b1011, 7);
      S.Frag_request (1, 0, 0);
      S.Frag_payload frag;
      S.Snapshot_frag { slot = 99; frag };
      S.Snapshot_fetch_full 42;
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "smsg roundtrip" true (roundtrip S.smsg_codec m = m))
    msgs

let test_smsg_fragment_boundary_fuzz () =
  let frag =
    Dex_erasure.Fragment.make ~digest:max_int ~index:3 ~total:4 ~data:3 ~len:300
      (String.init 100 (fun i -> Char.chr (i mod 256)))
  in
  let check_msg m =
    let bytes = Codec.encode S.smsg_codec m in
    (* Every strict prefix must fail to decode or decode to something else —
       never silently round-trip to the original. *)
    for cut = 0 to String.length bytes - 1 do
      match Codec.decode S.smsg_codec (String.sub bytes 0 cut) with
      | Error _ -> ()
      | Ok m' -> Alcotest.(check bool) "truncated frame is not the original" true (m' <> m)
    done
  in
  check_msg (S.Frag_payload frag);
  check_msg (S.Snapshot_frag { slot = 12; frag });
  (* Random byte soup must never crash the decoder. *)
  let rng = Random.State.make [| 0xd15ea5e |] in
  for _ = 1 to 2000 do
    let s =
      String.init (Random.State.int rng 64) (fun _ -> Char.chr (Random.State.int rng 256))
    in
    ignore (Codec.decode S.smsg_codec s)
  done

(* ------------------------ batch properties ------------------------ *)

let req client rid = { Wire.client; rid; command = Sm.Set ("k", rid) }

let test_canonical_sorts_and_dedupes () =
  let messy = [ req 2 1; req 1 5; req 2 1; req 1 3; req 1 5 ] in
  let b = Batch.canonical messy in
  Alcotest.(check (list (pair int int)))
    "sorted by (client, rid), duplicates removed"
    [ (1, 3); (1, 5); (2, 1) ]
    (List.map (fun (r : Wire.request) -> (r.Wire.client, r.Wire.rid)) b)

let test_canonical_cap_keeps_smallest () =
  let b = Batch.canonical ~cap:2 [ req 3 0; req 1 9; req 1 2; req 2 4 ] in
  Alcotest.(check (list (pair int int)))
    "cap keeps the smallest keys"
    [ (1, 2); (1, 9) ]
    (List.map (fun (r : Wire.request) -> (r.Wire.client, r.Wire.rid)) b)

let test_digest_order_insensitive () =
  let reqs = [ req 1 1; req 2 2; req 3 3 ] in
  let d1 = Batch.digest (Batch.canonical reqs) in
  let d2 = Batch.digest (Batch.canonical (List.rev reqs)) in
  Alcotest.(check int) "same canonical batch, same digest" d1 d2;
  Alcotest.(check bool) "non-empty digest is positive nonzero" true (d1 > 0)

let test_digest_distinguishes () =
  let d1 = Batch.digest (Batch.canonical [ req 1 1 ]) in
  let d2 = Batch.digest (Batch.canonical [ req 1 2 ]) in
  Alcotest.(check bool) "different batches, different digests" true (d1 <> d2)

let test_empty_digest_reserved () =
  Alcotest.(check int) "empty batch digest" Batch.empty_digest
    (Batch.digest (Batch.canonical []));
  Alcotest.(check int) "reserved value" 0 Batch.empty_digest

(* ------------------------- state machine ------------------------- *)

let test_state_machine_semantics () =
  let m = Sm.create () in
  Alcotest.(check bool) "nop" true (Sm.apply m Sm.Nop = Sm.Done);
  Alcotest.(check bool) "get missing" true (Sm.apply m (Sm.Get "a") = Sm.Found None);
  ignore (Sm.apply m (Sm.Set ("a", 5)));
  Alcotest.(check bool) "get" true (Sm.apply m (Sm.Get "a") = Sm.Found (Some 5));
  Alcotest.(check bool) "add" true (Sm.apply m (Sm.Add ("a", 2)) = Sm.Count 7);
  Alcotest.(check bool) "add fresh" true (Sm.apply m (Sm.Add ("b", 1)) = Sm.Count 1);
  Alcotest.(check bool) "del" true (Sm.apply m (Sm.Del "a") = Sm.Removed true);
  Alcotest.(check bool) "del again" true (Sm.apply m (Sm.Del "a") = Sm.Removed false);
  Alcotest.(check (list (pair string int))) "snapshot" [ ("b", 1) ] (Sm.snapshot m)

let test_state_machine_digest_converges () =
  let a = Sm.create () and b = Sm.create () in
  ignore (Sm.apply a (Sm.Set ("x", 1)));
  ignore (Sm.apply a (Sm.Set ("y", 2)));
  ignore (Sm.apply b (Sm.Set ("y", 2)));
  ignore (Sm.apply b (Sm.Set ("x", 1)));
  Alcotest.(check int) "same state, same digest" (Sm.digest a) (Sm.digest b);
  ignore (Sm.apply b (Sm.Set ("x", 3)));
  Alcotest.(check bool) "diverged digests differ" true (Sm.digest a <> Sm.digest b)

(* ------------------------ live deployments ------------------------ *)

(* Real sockets and threads below; parameters kept small so the whole suite
   stays fast. *)

let freq4 = Dex_condition.Pair.freq ~n:4 ~t:0

let counter_of s =
  match List.assoc_opt "k" (S.state_snapshot s) with Some v -> v | None -> 0

let with_deployment ?roles cfg f =
  let d = S.launch ?roles cfg in
  Fun.protect ~finally:(fun () -> S.shutdown d) (fun () -> f d)

(* [clients] closed-loop clients over one group of replica ports: the
   router's throughput engine at one shard. *)
let run_many ~clients ~duration ports workload =
  let map = Dex_shard.Shard_map.create ~shards:1 () in
  let r = Dex_shard.Router.connect ~map ~client:1 [ ports ] in
  Fun.protect
    ~finally:(fun () -> Dex_shard.Router.close r)
    (fun () ->
      let report = Dex_shard.Router.Load.run_many ~clients ~duration r workload in
      report.Dex_shard.Router.Load.agg)

let test_deployment_commits_one_step () =
  let cfg = S.config ~pair:(fun _ -> freq4) ~n:4 ~t:0 () in
  with_deployment cfg (fun d ->
      let r =
        run_many ~clients:8 ~duration:1.0 (List.map snd d.S.ports) (fun i ->
            Sm.Set (Printf.sprintf "k%d" (i mod 8), i))
      in
      Thread.delay 0.3;
      Alcotest.(check bool) "committed work" true (r.Client.Load.committed > 100);
      Alcotest.(check bool) "one-step path dominates" true
        (r.Client.Load.one_step * 2 > r.Client.Load.committed);
      let compared, violations = S.agreement_violations d in
      Alcotest.(check bool) "slots compared" true (compared > 0);
      Alcotest.(check int) "no agreement violations" 0 (List.length violations);
      let digests =
        List.sort_uniq compare (List.map (fun (_, s) -> S.state_digest s) d.S.servers)
      in
      Alcotest.(check int) "replica states converged" 1 (List.length digests))

let test_session_dedupe_idempotent_retry () =
  let cfg = S.config ~pair:(fun _ -> freq4) ~n:4 ~t:0 () in
  with_deployment cfg (fun d ->
      (* Raw connections, no Client machinery: submit to all replicas (the
         liveness contract — the oracle decides by plurality, so a request
         known to one replica alone never wins a slot), then retransmit the
         byte-identical request. The retry must answer from the session
         cache with the original slot, and no replica may re-execute. *)
      let conns =
        List.map
          (fun (_, port) ->
            let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock))
          d.S.ports
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun (sock, _, _) -> try Unix.close sock with Unix.Unix_error _ -> ())
            conns)
        (fun () ->
          let request = { Wire.client = 42; rid = 0; command = Sm.Add ("k", 1) } in
          let _, first_ic, _ = List.hd conns in
          let send () =
            List.iter
              (fun (_, _, oc) ->
                Wire.write_request oc request;
                flush oc)
              conns;
            let rec wait () =
              let reply = Wire.read_reply first_ic in
              match reply.Wire.outcome with
              | Wire.Applied { output; slot; _ } when reply.Wire.rid = 0 -> (output, slot)
              | _ -> wait ()
            in
            wait ()
          in
          let output1, slot1 = send () in
          Alcotest.(check bool) "applied once" true (output1 = Sm.Count 1);
          (* Retransmit of the same (client, rid). *)
          let output2, slot2 = send () in
          Alcotest.(check bool) "cached outcome" true (output2 = Sm.Count 1);
          Alcotest.(check int) "same slot" slot1 slot2;
          Thread.delay 0.5;
          List.iter
            (fun (p, s) ->
              Alcotest.(check int)
                (Printf.sprintf "replica %d applied exactly once" p)
                1 (counter_of s))
            d.S.servers))

let test_equivocator_deployment () =
  (* n=6 t=1 under the privileged pair (n > 5t), replica 5 equivocating:
     the service must keep committing with clean agreement and no duplicate
     application. *)
  let pair = Dex_condition.Pair.privileged ~n:6 ~t:1 ~m:0 in
  let cfg = S.config ~pair:(fun _ -> pair) ~n:6 ~t:1 () in
  let roles p = if p = 5 then Server.Equivocator else Server.Correct in
  with_deployment ~roles cfg (fun d ->
      Alcotest.(check int) "five correct servers" 5 (List.length d.S.servers);
      let c = Client.connect ~client:1 (List.map snd d.S.ports) in
      let r = Client.Load.run ~duration:1.5 c (fun _ -> Sm.Add ("k", 1)) in
      Client.close c;
      Thread.delay 0.5;
      Alcotest.(check bool) "committed despite the equivocator" true
        (r.Client.Load.committed > 0);
      let compared, violations = S.agreement_violations d in
      Alcotest.(check bool) "slots compared" true (compared > 0);
      Alcotest.(check int) "no agreement violations" 0 (List.length violations);
      List.iter
        (fun (p, s) ->
          Alcotest.(check bool)
            (Printf.sprintf "replica %d no duplicate applies" p)
            true
            (counter_of s <= r.Client.Load.issued))
        d.S.servers)

let test_commit_log_bounded () =
  (* [commit_log_cap] bounds the per-replica commit history (a long-lived
     server must not leak one entry per slot). Truncation is lazy at twice
     the cap, so after committing well past that the retained log must sit
     at or under [2 * cap]. *)
  let cap = 4 in
  let cfg = S.config ~commit_log_cap:cap ~pair:(fun _ -> freq4) ~n:4 ~t:0 () in
  with_deployment cfg (fun d ->
      let r =
        run_many ~clients:8 ~duration:1.0 (List.map snd d.S.ports) (fun i ->
            Sm.Set (Printf.sprintf "k%d" (i mod 8), i))
      in
      Thread.delay 0.3;
      Alcotest.(check bool) "committed work" true (r.Client.Load.committed > 0);
      List.iter
        (fun (p, s) ->
          let stats = S.stats s in
          Alcotest.(check bool)
            (Printf.sprintf "replica %d committed past the truncation point" p)
            true
            (stats.S.committed_slots > 2 * cap);
          Alcotest.(check bool)
            (Printf.sprintf "replica %d commit log bounded" p)
            true
            (List.length (S.commit_log s) <= 2 * cap))
        d.S.servers)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let test_durable_restart_recovers () =
  (* The full durability lane, end to end: a durable n=4 t=0 deployment
     under client load loses replica 2 to a crash-stop (WAL abandoned
     mid-flight) and restarts it from disk. The restarted replica must
     replay its durable prefix, catch the missed slots up over the peer
     lane, reconverge with the others, and the deployment must show zero
     lost acknowledged commits and zero duplicate applies. *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dex-service-test-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let cfg =
    S.config ~data_dir:dir ~snapshot_every:64 ~catchup_grace:2.0
      ~pair:(fun _ -> freq4)
      ~n:4 ~t:0 ()
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_deployment cfg (fun d ->
      let c = Client.connect ~client:1 (List.map snd d.S.ports) in
      let result = ref None in
      let loader =
        Thread.create
          (fun () ->
            result := Some (Client.Load.run ~duration:2.4 c (fun _ -> Sm.Add ("k", 1))))
          ()
      in
      Thread.delay 0.8;
      S.kill_replica d 2;
      Thread.delay 0.5;
      let s2 = S.restart_replica d 2 in
      let at_restart = S.stats s2 in
      Thread.join loader;
      Client.close c;
      let r = Option.get !result in
      let converged () =
        (not (S.catching_up s2))
        &&
        match
          List.sort_uniq compare (List.map (fun (_, s) -> S.state_digest s) d.S.servers)
        with
        | [ _ ] -> true
        | _ -> false
      in
      let deadline = Unix.gettimeofday () +. 15.0 in
      while (not (converged ())) && Unix.gettimeofday () < deadline do
        Thread.delay 0.1
      done;
      Alcotest.(check bool) "committed work" true (r.Client.Load.committed > 0);
      Alcotest.(check bool) "replayed durable slots on restart" true
        (at_restart.S.recovered_slots > 0);
      Alcotest.(check bool) "durability lane active" true (S.wal_stats s2 <> None);
      Alcotest.(check bool) "durable watermark advanced" true (S.durable_lsn s2 > 0);
      Alcotest.(check bool) "reconverged after restart" true (converged ());
      let compared, violations = S.agreement_violations d in
      Alcotest.(check bool) "slots compared" true (compared > 0);
      Alcotest.(check int) "no agreement violations" 0 (List.length violations);
      List.iter
        (fun (p, s) ->
          let cnt = counter_of s in
          Alcotest.(check bool)
            (Printf.sprintf "replica %d kept every acked commit" p)
            true
            (cnt >= r.Client.Load.committed);
          Alcotest.(check bool)
            (Printf.sprintf "replica %d no duplicate applies" p)
            true
            (cnt <= r.Client.Load.issued))
        d.S.servers)

let test_stale_watermark_releases_nothing () =
  (* A killed incarnation's WAL syncer can post a watermark that replica's
     loop only runs after the crash. It counts the old WAL's lsns, so it
     must release no reply of the incarnation restarted on the same loop.
     Replica 2's data dir is wiped between kill and restart, so each new
     WAL numbers from lsn 1 again and an old watermark lies far ahead of
     it: a stale watermark reaching the new incarnation would show as its
     released watermark passing its durable one. (Whether the group
     commits again after such a restart is not checked here.) *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dex-service-stale-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let cfg =
    S.config ~data_dir:dir ~catchup_grace:1.0 ~pair:(fun _ -> freq4) ~n:4 ~t:0 ()
  in
  let released s =
    Dex_metrics.Registry.get
      (Dex_metrics.Registry.snapshot (S.metrics s))
      "durability/released_lsn"
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_deployment cfg (fun d ->
      let c = Client.connect ~client:1 (List.map snd d.S.ports) in
      let stop = ref false in
      let loader =
        Thread.create
          (fun () ->
            while not !stop do
              try ignore (Client.submit ~timeout:0.2 ~attempts:1 c (Sm.Add ("k", 1)))
              with _ -> Thread.delay 0.01
            done)
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          stop := true;
          Thread.join loader;
          Client.close c)
        (fun () ->
          Thread.delay 0.3;
          let first = List.assoc 2 d.S.servers in
          Alcotest.(check bool) "the first incarnation released replies" true
            (released first > 0);
          for round = 1 to 3 do
            S.kill_replica d 2;
            rm_rf (Filename.concat dir "replica-2");
            let s2 = S.restart_replica d 2 in
            let until = Unix.gettimeofday () +. 0.5 in
            while Unix.gettimeofday () < until do
              (* Released first: the durable watermark only grows. *)
              let r = released s2 in
              let durable = S.durable_lsn s2 in
              if r > durable then
                Alcotest.failf "round %d: released watermark %d past durable %d" round r durable;
              Thread.delay 0.002
            done
          done);
      let _, violations = S.agreement_violations d in
      Alcotest.(check int) "no agreement violations" 0 (List.length violations))

let test_coded_dissemination_deployment () =
  (* Coded mode end to end: n=4 t=0 with the client submitting to three of
     the four replicas only — the starved replica misses every batch and
     must reconstruct content from peer fragments. The run must stay
     agreement-clean, converge, and actually exercise the decode path. *)
  let cfg =
    S.config ~dissemination:Dex_erasure.Dissemination.Coded
      ~pair:(fun _ -> freq4)
      ~n:4 ~t:0 ()
  in
  with_deployment cfg (fun d ->
      let ports = List.map snd d.S.ports in
      let starved = List.filteri (fun i _ -> i < 3) ports in
      let payload = String.make 4096 'x' in
      let r =
        run_many ~clients:4 ~duration:1.5 starved (fun i ->
            Sm.Blob (Printf.sprintf "b%d" (i mod 8), payload))
      in
      Thread.delay 0.5;
      Alcotest.(check bool) "committed work" true (r.Client.Load.committed > 20);
      let compared, violations = S.agreement_violations d in
      Alcotest.(check bool) "slots compared" true (compared > 0);
      Alcotest.(check int) "no agreement violations" 0 (List.length violations);
      let merged =
        Dex_metrics.Registry.merge
          (List.map (fun (_, s) -> Dex_metrics.Registry.snapshot (S.metrics s)) d.S.servers)
      in
      Alcotest.(check bool) "coded lane decoded batches" true
        (Dex_metrics.Registry.get merged "erasure/decodes" > 0);
      Alcotest.(check bool) "no decode failures" true
        (Dex_metrics.Registry.get merged "erasure/decode_failures" = 0);
      let deadline = Unix.gettimeofday () +. 10.0 in
      let converged () =
        match
          List.sort_uniq compare (List.map (fun (_, s) -> S.state_digest s) d.S.servers)
        with
        | [ _ ] -> true
        | _ -> false
      in
      while (not (converged ())) && Unix.gettimeofday () < deadline do
        Thread.delay 0.1
      done;
      Alcotest.(check bool) "replica states converged" true (converged ()))

let thread_count () =
  (* Linux: one entry per live thread. *)
  Array.length (Sys.readdir "/proc/self/task")

(* The thread count once it has held still for 50 ms: a loop stopped from
   its own callback (or by an earlier test) finishes on its own time. *)
let settled_thread_count () =
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec go prev =
    Thread.delay 0.05;
    let now = thread_count () in
    if now = prev || Unix.gettimeofday () > deadline then now else go now
  in
  go (thread_count ())

module G = Dex_shard.Group_set.Make (Dex_core.Dex.Lane (Dex_underlying.Uc_oracle))

let test_shutdown_joins_threads () =
  if not (Sys.file_exists "/proc/self/task") then ()
  else begin
    let baseline = settled_thread_count () in
    let cfg = S.config ~pair:(fun _ -> freq4) ~n:4 ~t:0 () in
    let run () =
      let before = settled_thread_count () in
      let d = S.launch cfg in
      (* A deployment runs on one loop alone: every replica's consensus,
         peer sockets and clients run on the mesh loop. *)
      Alcotest.(check int) "threads of a running n=4 deployment" 1
        (thread_count () - before);
      let c = Client.connect ~client:1 (List.map snd d.S.ports) in
      let stop = ref false in
      let loader =
        Thread.create
          (fun () ->
            while not !stop do
              try ignore (Client.submit ~timeout:0.2 ~attempts:1 c (Sm.Add ("k", 1)))
              with _ -> Thread.delay 0.01
            done)
          ()
      in
      Thread.delay 0.4;
      (* Tear the deployment down while the loader is mid-flight. *)
      S.shutdown d;
      stop := true;
      Thread.join loader;
      Client.close c
    in
    run ();
    (* A sharded set runs every group on the same one loop, however many
       shards. *)
    List.iter
      (fun shards ->
        let before = settled_thread_count () in
        let g = G.launch ~map:(Dex_shard.Shard_map.create ~shards ()) cfg in
        Alcotest.(check int)
          (Printf.sprintf "threads of a running %d-shard set" shards)
          1 (thread_count () - before);
        G.shutdown g)
      [ 1; 3 ];
    (* A lent runtime without a loop: the deployment builds one loop, runs
       every replica on it, and stops it at shutdown; the lender's mesh
       loop, which owns the sockets, stays up until the lender stops it. *)
    let net_metrics = Dex_metrics.Registry.create () in
    let extra = List.length (S.Log.extra (S.log_config cfg)) in
    let m = S.mesh ~net_metrics ~nodes:(cfg.S.n + extra) () in
    let before = settled_thread_count () in
    let runtime =
      { S.sr_transport = m.S.mesh_transport; sr_net_metrics = net_metrics;
        sr_net_reactor = None; sr_service_loop_for = None }
    in
    let d = S.launch ~runtime cfg in
    Alcotest.(check int) "threads of a deployment on a lent runtime without a loop" 1
      (thread_count () - before);
    let c = Client.connect ~client:1 (List.map snd d.S.ports) in
    Alcotest.(check bool) "it commits" true
      (Client.submit ~timeout:2.0 ~attempts:3 c (Sm.Add ("k", 1)) <> None);
    Client.close c;
    S.shutdown d;
    Alcotest.(check int) "its loop is stopped at shutdown" 0 (settled_thread_count () - before);
    m.S.mesh_transport.Dex_runtime.Transport.close ();
    Dex_runtime.Reactor.stop m.S.mesh_loop;
    (* A durable deployment adds one WAL syncer thread per replica, and
       a crash or a restart takes or adds exactly that replica's. *)
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dex-service-threads-%d" (Unix.getpid ()))
    in
    rm_rf dir;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
        let before = settled_thread_count () in
        let d = S.launch (S.config ~data_dir:dir ~pair:(fun _ -> freq4) ~n:4 ~t:0 ()) in
        let threads what expected =
          Alcotest.(check int) what expected (settled_thread_count () - before)
        in
        threads "threads of a running durable n=4 deployment" (1 + 4);
        S.kill_replica d 2;
        threads "threads after a kill" (1 + 3);
        ignore (S.restart_replica d 2);
        threads "threads after the restart" (1 + 4);
        S.shutdown d;
        threads "threads after shutdown" 0);
    (* Every syncer and loop thread must have been joined: the
       process returns to its pre-deployment thread count. *)
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec settle () =
      if thread_count () <= baseline then ()
      else if Unix.gettimeofday () > deadline then
        Alcotest.failf "leaked threads: %d before the deployments, %d after" baseline
          (thread_count ())
      else begin
        Thread.delay 0.05;
        settle ()
      end
    in
    settle ()
  end

let test_getters_on_stopped_and_busy_loops () =
  (* Replica getters run on the deployment's loop. From a foreign thread they
     must answer while that loop is under client load, for a crashed
     replica, and after shutdown has stopped the loop, when they must
     answer directly instead of waiting on it. *)
  let cfg = S.config ~pair:(fun _ -> freq4) ~n:4 ~t:0 () in
  let within_1s what f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= 1.0 then Alcotest.failf "%s took %.2f s" what dt
  in
  let getters s =
    within_1s "commit_log" (fun () -> S.commit_log s);
    within_1s "stats" (fun () -> S.stats s);
    within_1s "state_digest" (fun () -> S.state_digest s);
    within_1s "apply_frontier" (fun () -> S.apply_frontier s);
    within_1s "state_snapshot" (fun () -> S.state_snapshot s);
    within_1s "catching_up" (fun () -> S.catching_up s)
  in
  let survivor = ref None in
  with_deployment cfg (fun d ->
      let ports = List.map snd d.S.ports in
      let report = ref None in
      let loader =
        Thread.create
          (fun () ->
            report :=
              Some
                (run_many ~clients:8 ~duration:1.0 ports (fun i ->
                     Sm.Set (Printf.sprintf "k%d" (i mod 8), i))))
          ()
      in
      let s0 = List.assoc 0 d.S.servers in
      survivor := Some s0;
      let deadline = Unix.gettimeofday () +. 0.8 in
      while Unix.gettimeofday () < deadline do
        getters s0
      done;
      Thread.join loader;
      Alcotest.(check bool) "committed under the getters" true
        ((Option.get !report).Client.Load.committed > 0);
      S.kill_replica d 1;
      let s1 = List.assoc 1 d.S.dead in
      getters s1;
      Alcotest.(check bool) "the crashed replica's log is readable" true (S.commit_log s1 <> []);
      let compared, violations = S.agreement_violations d in
      Alcotest.(check bool) "slots compared" true (compared > 0);
      Alcotest.(check int) "no agreement violations" 0 (List.length violations));
  getters (Option.get !survivor)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

external fd_int : Unix.file_descr -> int = "%identity"

let test_connect_closes_refused_socket () =
  (* A socket the client's reactor refuses — its fd is at or above
     [Reactor.max_fds], the [select] limit — must be closed, not leaked.
     The server is a bare listener (connects complete in its backlog). Fill
     the descriptor table up to the limit, then free the top three slots:
     the client's wake pipe takes the two below the limit, and the dialled
     socket lands on the limit itself. *)
  let limit = Dex_runtime.Reactor.max_fds in
  let lst = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lst (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lst 8;
  let port = match Unix.getsockname lst with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let dups = ref [] in
  let close_dups_from bound =
    let closing, kept = List.partition (fun fd -> fd_int fd >= bound) !dups in
    List.iter Unix.close closing;
    dups := kept
  in
  Fun.protect ~finally:(fun () ->
      close_dups_from 0;
      Unix.close lst)
  @@ fun () ->
  let rec fill () =
    match Unix.dup lst with
    | fd ->
      dups := fd :: !dups;
      if fd_int fd < limit then fill () else true
    | exception Unix.Unix_error (Unix.EMFILE, _, _) -> false
  in
  if not (Sys.file_exists "/proc/self/fd" && fill ()) then begin
    Printf.printf "skipped: needs /proc/self/fd and more than %d open files (ulimit -n)\n" limit;
    Alcotest.skip ()
  end;
  close_dups_from (limit - 2);
  let baseline = open_fds () in
  (match Client.connect ~client:1 [ port ] with
  | c ->
    Client.close c;
    Alcotest.fail "a socket above the select limit was attached"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "refused" "Client.connect: no server reachable" msg);
  Alcotest.(check int) "no descriptor leaked" baseline (open_fds ())

let test_config_validation () =
  Alcotest.check_raises "bad batch_cap"
    (Invalid_argument "Server.config: batch_cap must be >= 1") (fun () ->
      ignore (S.config ~batch_cap:0 ~pair:(fun _ -> freq4) ~n:4 ~t:0 ()));
  Alcotest.check_raises "bad settle" (Invalid_argument "Server.config: settle must be >= 0")
    (fun () -> ignore (S.config ~settle:(-0.1) ~pair:(fun _ -> freq4) ~n:4 ~t:0 ()));
  Alcotest.check_raises "bad commit_log_cap"
    (Invalid_argument "Server.config: commit_log_cap must be >= 1") (fun () ->
      ignore (S.config ~commit_log_cap:0 ~pair:(fun _ -> freq4) ~n:4 ~t:0 ()))

let () =
  Alcotest.run "dex_service"
    [
      ( "codecs",
        [
          Alcotest.test_case "command roundtrip" `Quick test_command_roundtrip;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "reply roundtrip" `Quick test_reply_roundtrip;
          Alcotest.test_case "batch roundtrip" `Quick test_batch_roundtrip;
          Alcotest.test_case "smsg dissemination roundtrip" `Quick
            test_smsg_dissemination_roundtrip;
          Alcotest.test_case "smsg fragment boundary fuzz" `Quick
            test_smsg_fragment_boundary_fuzz;
        ] );
      ( "batches",
        [
          Alcotest.test_case "canonical sorts and dedupes" `Quick
            test_canonical_sorts_and_dedupes;
          Alcotest.test_case "cap keeps smallest" `Quick test_canonical_cap_keeps_smallest;
          Alcotest.test_case "digest order-insensitive" `Quick test_digest_order_insensitive;
          Alcotest.test_case "digest distinguishes" `Quick test_digest_distinguishes;
          Alcotest.test_case "empty digest reserved" `Quick test_empty_digest_reserved;
        ] );
      ( "state_machine",
        [
          Alcotest.test_case "semantics" `Quick test_state_machine_semantics;
          Alcotest.test_case "digest convergence" `Quick test_state_machine_digest_converges;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "commits, one-step, agreement" `Quick
            test_deployment_commits_one_step;
          Alcotest.test_case "session dedupe / idempotent retry" `Quick
            test_session_dedupe_idempotent_retry;
          Alcotest.test_case "equivocator tolerated" `Quick test_equivocator_deployment;
          Alcotest.test_case "commit log bounded" `Quick test_commit_log_bounded;
          Alcotest.test_case "durable restart recovers" `Quick test_durable_restart_recovers;
          Alcotest.test_case "stale watermark releases nothing" `Quick
            test_stale_watermark_releases_nothing;
          Alcotest.test_case "coded dissemination, starved replica" `Quick
            test_coded_dissemination_deployment;
          Alcotest.test_case "shutdown joins threads" `Quick test_shutdown_joins_threads;
          Alcotest.test_case "getters on stopped or busy loops" `Quick
            test_getters_on_stopped_and_busy_loops;
          Alcotest.test_case "connect closes a refused socket" `Quick
            test_connect_closes_refused_socket;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
    ]
