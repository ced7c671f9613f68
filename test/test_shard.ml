(* Tests for dex_shard: shard-map determinism/stability/coverage properties,
   the router's session-dedupe core, and live multi-group deployments over
   one shared runtime (real sockets, real threads) — zero
   agreement violations per shard, zero misroutes, no duplicate applies. *)

open Dex_service
module Shard_map = Dex_shard.Shard_map
module Router = Dex_shard.Router
module G = Dex_shard.Group_set.Make (Dex_core.Dex.Lane (Dex_underlying.Uc_oracle))
module S = G.S
module Sm = State_machine

let req client rid = { Wire.client; rid; command = Sm.Set (Printf.sprintf "k%d" rid, rid) }

(* --------------------------- shard map --------------------------- *)

let test_map_deterministic () =
  List.iter
    (fun policy ->
      let a = Shard_map.create ~policy ~shards:4 () in
      let b = Shard_map.create ~policy ~shards:4 () in
      for client = 0 to 99 do
        for rid = 0 to 3 do
          let r = req client rid in
          Alcotest.(check int)
            "same key, same shard, across instances (a restart)"
            (Shard_map.shard_of a r) (Shard_map.shard_of b r)
        done
      done)
    [ Shard_map.By_client; Shard_map.By_digest ]

let test_map_retry_stable () =
  (* A retransmit is byte-identical; it must route to the same shard under
     either policy — the soundness condition for cross-shard dedupe. *)
  List.iter
    (fun policy ->
      let m = Shard_map.create ~policy ~shards:8 () in
      for client = 0 to 49 do
        let r1 = req client 7 and r2 = req client 7 in
        Alcotest.(check int) "retry routes identically" (Shard_map.shard_of m r1)
          (Shard_map.shard_of m r2)
      done)
    [ Shard_map.By_client; Shard_map.By_digest ]

let test_map_client_policy_pins_sessions () =
  let m = Shard_map.create ~policy:Shard_map.By_client ~shards:4 () in
  for client = 0 to 49 do
    let s0 = Shard_map.shard_of m (req client 0) in
    for rid = 1 to 9 do
      Alcotest.(check int) "whole session on one shard" s0 (Shard_map.shard_of m (req client rid))
    done;
    Alcotest.(check int) "shard_of_client agrees" s0 (Shard_map.shard_of_client m client)
  done

let test_map_covers_all_shards () =
  (* Uniform inputs must leave no shard empty, for every small shard count
     and both policies. 256 distinct keys over <= 8 shards: an empty shard
     would be a (7/8)^256 ~ 10^-15 event for a uniform hash. *)
  List.iter
    (fun policy ->
      List.iter
        (fun shards ->
          let m = Shard_map.create ~policy ~shards () in
          let hit = Array.make shards 0 in
          for client = 0 to 255 do
            let s = Shard_map.shard_of m (req client client) in
            Alcotest.(check bool) "in range" true (s >= 0 && s < shards);
            hit.(s) <- hit.(s) + 1
          done;
          Array.iteri
            (fun i n ->
              Alcotest.(check bool) (Printf.sprintf "shard %d/%d non-empty" i shards) true (n > 0))
            hit)
        [ 1; 2; 4; 8 ])
    [ Shard_map.By_client; Shard_map.By_digest ]

let test_map_string_roundtrip () =
  List.iter
    (fun policy ->
      List.iter
        (fun shards ->
          let m = Shard_map.create ~policy ~shards () in
          match Shard_map.of_string (Shard_map.to_string m) with
          | None -> Alcotest.fail "roundtrip rejected"
          | Some m' ->
            Alcotest.(check int) "shards" (Shard_map.shards m) (Shard_map.shards m');
            Alcotest.(check bool) "policy" true (Shard_map.policy m = Shard_map.policy m');
            (* The parsed map must route identically — stability across a
               process restart that persisted the textual form. *)
            for client = 0 to 63 do
              Alcotest.(check int) "same routing" (Shard_map.shard_of m (req client 1))
                (Shard_map.shard_of m' (req client 1))
            done)
        [ 1; 3; 8 ])
    [ Shard_map.By_client; Shard_map.By_digest ];
  List.iter
    (fun bad -> Alcotest.(check bool) bad true (Shard_map.of_string bad = None))
    [ ""; "v1"; "v2:4:client"; "v1:0:client"; "v1:x:client"; "v1:4:random"; "v1:4:client:extra" ]

(* ------------------------- router dedupe ------------------------- *)

let test_dedupe_first_then_duplicates () =
  let d = Router.Dedupe.create () in
  Router.Dedupe.route d ~client:7 ~rid:0 ~shard:2;
  (* First commit from the owner counts; every replica echo after it is a
     duplicate, as is a late echo after the next rid is in flight. *)
  Alcotest.(check bool) "first" true (Router.Dedupe.settle d ~client:7 ~rid:0 ~shard:2 = `First);
  Alcotest.(check bool) "echo" true
    (Router.Dedupe.settle d ~client:7 ~rid:0 ~shard:2 = `Duplicate);
  Router.Dedupe.route d ~client:7 ~rid:1 ~shard:2;
  Alcotest.(check bool) "late echo of settled rid" true
    (Router.Dedupe.settle d ~client:7 ~rid:0 ~shard:2 = `Duplicate);
  Alcotest.(check bool) "next rid first" true
    (Router.Dedupe.settle d ~client:7 ~rid:1 ~shard:2 = `First);
  Alcotest.(check int) "duplicate count" 2 (Router.Dedupe.duplicates d);
  Alcotest.(check int) "no misroutes" 0 (Router.Dedupe.misroutes d)

let test_dedupe_flags_misroute () =
  let d = Router.Dedupe.create () in
  Router.Dedupe.route d ~client:3 ~rid:5 ~shard:1;
  Alcotest.(check bool) "foreign shard flagged" true
    (Router.Dedupe.settle d ~client:3 ~rid:5 ~shard:0 = `Misrouted);
  Alcotest.(check int) "misroute counted" 1 (Router.Dedupe.misroutes d);
  Alcotest.(check bool) "owner still settles" true
    (Router.Dedupe.settle d ~client:3 ~rid:5 ~shard:1 = `First)

let test_dedupe_independent_sessions () =
  let d = Router.Dedupe.create () in
  Router.Dedupe.route d ~client:1 ~rid:0 ~shard:0;
  Router.Dedupe.route d ~client:2 ~rid:0 ~shard:3;
  Alcotest.(check bool) "client 1" true (Router.Dedupe.settle d ~client:1 ~rid:0 ~shard:0 = `First);
  Alcotest.(check bool) "client 2 unaffected" true
    (Router.Dedupe.settle d ~client:2 ~rid:0 ~shard:3 = `First);
  Alcotest.(check int) "no duplicates" 0 (Router.Dedupe.duplicates d)

(* ----------------------- live deployments ------------------------ *)

let freq4 = Dex_condition.Pair.freq ~n:4 ~t:0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_group_set ?chaos ~map cfg f =
  let g = G.launch ?chaos ~map cfg in
  Fun.protect ~finally:(fun () -> G.shutdown g) (fun () -> f g)

let check_shards_clean g =
  Array.iteri
    (fun i (compared, violations) ->
      Alcotest.(check bool) (Printf.sprintf "shard %d slots compared" i) true (compared > 0);
      Alcotest.(check int)
        (Printf.sprintf "shard %d no agreement violations" i)
        0 (List.length violations);
      let digests =
        List.sort_uniq compare
          (List.map (fun (_, s) -> S.state_digest s) (G.deployment g i).S.servers)
      in
      Alcotest.(check int) (Printf.sprintf "shard %d states converged" i) 1 (List.length digests))
    (G.agreement_violations g)

(* Two groups behind one shared mesh, a router spreading 16 logical clients
   by client id: both shards must take work, commit with clean per-shard
   agreement, count every request exactly once (no duplicate applies), and
   the dedupe core must see zero misroutes. *)
let test_two_shards_reactor () =
  let map = Shard_map.create ~shards:2 () in
  let cfg = S.config ~pair:(fun _ -> freq4) ~n:4 ~t:0 () in
  with_group_set ~map cfg (fun g ->
      let ports = Array.to_list (G.ports g) in
      let r = Router.connect ~map ~client:1 ports in
      let report =
        Router.Load.run_many ~clients:16 ~duration:1.0 r (fun _ -> Sm.Add ("k", 1))
      in
      Router.close r;
      Thread.delay 0.3;
      Alcotest.(check bool) "committed work" true (report.Router.Load.agg.Client.Load.committed > 100);
      Alcotest.(check int) "zero misroutes" 0 report.Router.Load.misroutes;
      Array.iteri
        (fun i (s : Router.Load.shard_stat) ->
          Alcotest.(check bool) (Printf.sprintf "shard %d took work" i) true (s.s_committed > 0))
        report.Router.Load.per_shard;
      check_shards_clean g;
      (* No duplicate applies: the counter each shard's replicas agree on
         sums, across shards, to the number of distinct requests the shards
         admitted — between what the router saw committed (stragglers may
         land after the load window) and what it issued. *)
      let applied =
        Array.to_list (G.ports g) |> List.length |> fun k ->
        List.init k (fun i ->
            match (G.deployment g i).S.servers with
            | (_, s) :: _ -> (
              match List.assoc_opt "k" (S.state_snapshot s) with Some v -> v | None -> 0)
            | [] -> 0)
        |> List.fold_left ( + ) 0
      in
      let committed = report.Router.Load.agg.Client.Load.committed in
      let issued = report.Router.Load.agg.Client.Load.issued in
      Alcotest.(check bool)
        (Printf.sprintf "applies %d within [committed %d, issued %d]" applied committed issued)
        true
        (applied >= committed && applied <= issued))

(* Data-dir layout: with k > 1 shard i persists under <data_dir>/shard-<i>;
   a one-group set persists under <data_dir> itself, where an unsharded
   deployment always has. Either way a replica killed and restarted inside
   shard 0 recovers from its own files while the other shards keep theirs. *)
let test_data_dirs_and_restart ~shards () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dex-shard-test-%d-k%d" (Unix.getpid ()) shards)
  in
  rm_rf dir;
  let map = Shard_map.create ~shards () in
  let cfg =
    S.config ~data_dir:dir ~catchup_grace:2.0 ~pair:(fun _ -> freq4) ~n:4 ~t:0 ()
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_group_set ~map cfg (fun g ->
      let ports = Array.to_list (G.ports g) in
      let r = Router.connect ~map ~client:1 ports in
      ignore (Router.Load.run_many ~clients:8 ~duration:0.6 r (fun _ -> Sm.Add ("k", 1)));
      Array.iteri
        (fun i _ ->
          let root =
            if shards = 1 then dir else Filename.concat dir (Printf.sprintf "shard-%d" i)
          in
          Alcotest.(check bool)
            (Printf.sprintf "shard %d data root exists" i)
            true
            (Sys.file_exists (Filename.concat root "replica-0")))
        (G.ports g);
      G.kill_replica g ~shard:0 0;
      let restarted = G.restart_replica g ~shard:0 0 in
      Alcotest.(check bool) "restart replayed slots from disk" true
        ((S.stats restarted).S.recovered_slots > 0);
      let report = Router.Load.run_many ~clients:8 ~duration:0.8 r (fun _ -> Sm.Add ("k", 1)) in
      Router.close r;
      Thread.delay 0.5;
      Alcotest.(check bool) "committed after restart" true
        (report.Router.Load.agg.Client.Load.committed > 0);
      Alcotest.(check int) "zero misroutes" 0 report.Router.Load.misroutes;
      check_shards_clean g)

let () =
  Alcotest.run "dex_shard"
    [
      ( "shard_map",
        [
          Alcotest.test_case "deterministic across instances" `Quick test_map_deterministic;
          Alcotest.test_case "retry routes identically" `Quick test_map_retry_stable;
          Alcotest.test_case "client policy pins sessions" `Quick
            test_map_client_policy_pins_sessions;
          Alcotest.test_case "all shards covered" `Quick test_map_covers_all_shards;
          Alcotest.test_case "to_string/of_string roundtrip" `Quick test_map_string_roundtrip;
        ] );
      ( "dedupe",
        [
          Alcotest.test_case "first then duplicates" `Quick test_dedupe_first_then_duplicates;
          Alcotest.test_case "misroute flagged" `Quick test_dedupe_flags_misroute;
          Alcotest.test_case "independent sessions" `Quick test_dedupe_independent_sessions;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "two shards, reactor io" `Quick test_two_shards_reactor;
          Alcotest.test_case "per-shard data dirs, restart" `Quick
            (test_data_dirs_and_restart ~shards:2);
          Alcotest.test_case "one-group data dir, restart" `Quick
            (test_data_dirs_and_restart ~shards:1);
        ] );
    ]
