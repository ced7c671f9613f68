(* Benchmark harness.

   Three parts:
   1. Bechamel microbenchmarks — one Test.make per table/figure-level
      artifact plus the hot primitives underneath them (view statistics,
      predicate evaluation, the broadcast layers, full consensus instances,
      the replicated log).
   2. The live service families behind EXPERIMENTS.md E18–E20: sharded
      scaling, large-value dissemination and the protocol-lane
      head-to-head, one loopback deployment per row.
   3. The experiment tables (E1–E7, see EXPERIMENTS.md) regenerated via
      Dex_experiments.Harness — the rows and series that correspond to the
      paper's Table 1 and its step-complexity claims.

   Everything prints to stdout. The end-to-end service benchmark with
   noise bands is perfbench/ (see BENCHMARK.json).

     dune exec bench/main.exe               # everything
     dune exec bench/main.exe -- quick      # microbenches and service families
     dune exec bench/main.exe -- shards     # E18 only
     dune exec bench/main.exe -- large      # E19 only
     dune exec bench/main.exe -- proto      # E20 only
*)

open Bechamel
open Toolkit
open Dex_stdext
open Dex_vector
open Dex_condition
open Dex_net
open Dex_broadcast
open Dex_underlying
open Dex_workload

(* ----------------------- benchmark subjects ----------------------- *)

let bench_prng =
  Test.make ~name:"prng/bits64-x1000" (Staged.stage (fun () ->
      let g = Prng.create ~seed:1 in
      for _ = 1 to 1000 do
        ignore (Prng.bits64 g)
      done))

let bench_pqueue =
  Test.make ~name:"pqueue/push-pop-1k" (Staged.stage (fun () ->
      let q = Pqueue.create () in
      for i = 0 to 999 do
        Pqueue.push q ~time:(float_of_int (i * 7919 mod 1000)) ~seq:i i
      done;
      while not (Pqueue.is_empty q) do
        ignore (Pqueue.pop q)
      done))

let big_view =
  let rng = Prng.create ~seed:3 in
  View.init 100 (fun _ -> if Prng.bool rng then Some (Prng.int rng 5) else None)

let bench_view_margin =
  Test.make ~name:"view/freq_margin-n100"
    (Staged.stage (fun () -> ignore (View.freq_margin big_view)))

let pair7 = Pair.freq ~n:7 ~t:1

let view7 = Input_vector.to_view (Input_vector.of_list [ 5; 5; 5; 5; 5; 1; 1 ])

(* Predicates read the view's incrementally-maintained statistics; the stats
   are computed once here (as they would be by View.set during a run) so the
   subjects measure the per-evaluation read path. *)
let stats7 = View.stats view7

let bench_p1 =
  Test.make ~name:"pair/P1-eval" (Staged.stage (fun () -> ignore (pair7.Pair.p1 stats7)))

let bench_p2 =
  Test.make ~name:"pair/P2-eval" (Staged.stage (fun () -> ignore (pair7.Pair.p2 stats7)))

let bench_f =
  Test.make ~name:"pair/F-eval" (Staged.stage (fun () -> ignore (pair7.Pair.f stats7)))

let bench_legality =
  Test.make ~name:"legality/P_prv-n6-t1" (Staged.stage (fun () ->
      ignore (Legality.is_legal ~universe:[ 0; 1 ] (Pair.privileged ~n:6 ~t:1 ~m:1))))

(* Full broadcast rounds in the simulator (n senders, all-to-all). *)
let idb_round n =
  let t = (n - 1) / 4 in
  let make p =
    let idb = Idb.create ~n ~t in
    {
      Protocol.start = (fun () -> Protocol.broadcast ~n (Idb.id_send p));
      on_message =
        (fun ~now:_ ~from m ->
          let emit = Idb.handle idb ~from m in
          List.concat_map (fun b -> Protocol.broadcast ~n b) emit.Idb.broadcasts);
    }
  in
  ignore (Runner.run (Runner.config ~n make))

let bracha_round n =
  let t = (n - 1) / 4 in
  let make p =
    let rb = Bracha.create ~n ~t in
    {
      Protocol.start = (fun () -> Protocol.broadcast ~n (Bracha.rb_send p));
      on_message =
        (fun ~now:_ ~from m ->
          let emit = Bracha.handle rb ~from m in
          List.concat_map (fun b -> Protocol.broadcast ~n b) emit.Bracha.broadcasts);
    }
  in
  ignore (Runner.run (Runner.config ~n make))

let bench_idb = Test.make ~name:"broadcast/idb-round-n9" (Staged.stage (fun () -> idb_round 9))

let bench_bracha =
  Test.make ~name:"broadcast/bracha-round-n9" (Staged.stage (fun () -> bracha_round 9))

(* Full consensus instances — one per Table-1 row (E1) and per step-shape
   point (E3/E6). *)
let consensus ?(uc = Scenario.Oracle) ~algo ~n ~t proposals =
  ignore (Scenario.run (Scenario.spec ~uc ~algo ~n ~t ~proposals ()))

let unanimous n = Input_gen.unanimous ~n 5

let margin m =
  let rng = Prng.create ~seed:(m * 17) in
  Input_gen.with_freq_margin ~rng ~n:7 ~margin:m

let bench_table1 =
  [
    Test.make ~name:"table1/brasileiro-n4" (Staged.stage (fun () ->
        consensus ~algo:Scenario.Brasileiro ~n:4 ~t:1 (unanimous 4)));
    Test.make ~name:"table1/bosco-weak-n6" (Staged.stage (fun () ->
        consensus ~algo:Scenario.Bosco ~n:6 ~t:1 (unanimous 6)));
    Test.make ~name:"table1/bosco-strong-n8" (Staged.stage (fun () ->
        consensus ~algo:Scenario.Bosco ~n:8 ~t:1 (unanimous 8)));
    Test.make ~name:"table1/dex-freq-n7" (Staged.stage (fun () ->
        consensus ~algo:Scenario.Dex_freq ~n:7 ~t:1 (unanimous 7)));
    Test.make ~name:"table1/dex-prv-n6" (Staged.stage (fun () ->
        consensus ~algo:(Scenario.Dex_prv 5) ~n:6 ~t:1 (unanimous 6)));
    Test.make ~name:"table1/plain-n4" (Staged.stage (fun () ->
        consensus ~algo:Scenario.Plain ~n:4 ~t:1 (unanimous 4)));
  ]

let bench_steps =
  [
    Test.make ~name:"steps/dex-one-step-m7" (Staged.stage (fun () ->
        consensus ~algo:Scenario.Dex_freq ~n:7 ~t:1 (margin 7)));
    Test.make ~name:"steps/dex-two-step-m3" (Staged.stage (fun () ->
        consensus ~algo:Scenario.Dex_freq ~n:7 ~t:1 (margin 3)));
    Test.make ~name:"steps/dex-fallback-m1" (Staged.stage (fun () ->
        consensus ~algo:Scenario.Dex_freq ~n:7 ~t:1 (margin 1)));
    Test.make ~name:"steps/bosco-fallback-m1" (Staged.stage (fun () ->
        consensus ~algo:Scenario.Bosco ~n:7 ~t:1 (margin 1)));
  ]

let bench_uc =
  [
    Test.make ~name:"uc/oracle-fallback" (Staged.stage (fun () ->
        consensus ~uc:Scenario.Oracle ~algo:Scenario.Plain ~n:7 ~t:1 (margin 1)));
    Test.make ~name:"uc/real-bracha-mmr" (Staged.stage (fun () ->
        consensus ~uc:Scenario.Real ~algo:Scenario.Plain ~n:7 ~t:1 (margin 1)));
    Test.make ~name:"uc/leader-based" (Staged.stage (fun () ->
        consensus ~uc:Scenario.Leader ~algo:Scenario.Plain ~n:7 ~t:1 (margin 1)));
  ]

module Doracle = Dex_core.Dex.Make (Uc_oracle)

let dex_msg_sample = Doracle.Idb (Idb.Echo { origin = 3; payload = 42 })

let bench_codec =
  [
    Test.make ~name:"codec/dex-msg-encode" (Staged.stage (fun () ->
        ignore (Dex_codec.Codec.encode Doracle.codec dex_msg_sample)));
    (let encoded = Dex_codec.Codec.encode Doracle.codec dex_msg_sample in
     Test.make ~name:"codec/dex-msg-decode" (Staged.stage (fun () ->
         ignore (Dex_codec.Codec.decode_exn Doracle.codec encoded))));
  ]

let bench_stubborn =
  Test.make ~name:"link/dex-over-30pct-loss" (Staged.stage (fun () ->
      let pair = Pair.freq ~n:7 ~t:1 in
      let cfg = Doracle.config ~pair () in
      let extra =
        List.map (fun (pid, i) -> (pid, Dex_link.Stubborn.wrap i)) (Doracle.extra cfg)
      in
      let make p = Dex_link.Stubborn.wrap (Doracle.instance cfg ~me:p ~proposal:5) in
      ignore
        (Runner.run
           (Runner.config
              ~discipline:(Discipline.lossy ~p:0.3 Discipline.asynchronous)
              ~seed:3 ~extra ~n:7 make))))

(* Registry hot path: the cost every pipeline stage pays per event. An
   increment is one atomic fetch-and-add; an observation is a bit-length
   bucket index plus two fetch-and-adds — both must stay cheap enough to
   leave on in production paths. *)
let bench_registry =
  let reg = Dex_metrics.Registry.create () in
  let c = Dex_metrics.Registry.counter reg "bench/ctr" in
  let tm = Dex_metrics.Registry.timer reg "bench/lat" in
  [
    Test.make ~name:"metrics/registry-incr"
      (Staged.stage (fun () -> Dex_metrics.Registry.incr c));
    Test.make ~name:"metrics/registry-observe"
      (Staged.stage (fun () -> Dex_metrics.Registry.observe_ns tm 12_345));
  ]

let bench_analysis =
  Test.make ~name:"analysis/p-one-step-n7" (Staged.stage (fun () ->
      ignore
        (Dex_analysis.Feasibility.p_dex_one_step ~n:7 ~t:1
           { Dex_analysis.Feasibility.bias = 0.8; alternatives = 2 })))

module Log = Dex_smr.Replicated_log.Make (Dex_core.Dex.Lane (Uc_oracle))

let bench_smr =
  Test.make ~name:"smr/log-5-slots-n7" (Staged.stage (fun () ->
      let pair = Pair.freq ~n:7 ~t:1 in
      let cfg = Log.config ~pair:(fun _ -> pair) ~slots:5 ~n:7 ~t:1 () in
      let make p =
        Log.replica cfg ~me:p
          ~propose:(fun ~slot -> 100 + slot)
          ~on_commit:(fun ~slot:_ ~provenance:_ _ -> ())
      in
      ignore (Runner.run (Runner.config ~extra:(Log.extra cfg) ~n:7 make))))

(* ------------------------- service families ------------------------- *)

(* Not bechamel subjects: each row is one closed-loop run against a live
   loopback deployment (real sockets, real threads), reported as ops/s and
   milliseconds rather than ns/run. *)
module Svc = Dex_service.Server.Make (Dex_core.Dex.Lane (Uc_oracle))

(* [clients] closed-loop clients over one group of replica ports: the
   router's engine at one shard. *)
let run_clients ~clients ports workload =
  let map = Dex_shard.Shard_map.create ~shards:1 () in
  let router = Dex_shard.Router.connect ~map ~client:1 [ ports ] in
  let r = Dex_shard.Router.Load.run_many ~clients ~duration:2.0 router workload in
  Dex_shard.Router.close router;
  r.Dex_shard.Router.Load.agg

(* Large-value dissemination economics (E19): n=4 t=0 with the client
   submitting to three of the four replicas, so the fourth misses every
   batch and must pull its content — the workload the coded lane exists
   for. Per payload size, full vs coded: ops/s, p50, and the starved
   replica's fetch ingress per non-empty committed slot. In full mode every
   holder answers the fetch broadcast with the whole blob (n-1 = 3 copies);
   in coded mode the resolution ingresses ~one blob of fragments. *)
let large_value_rows () =
  let run mode bytes tag_size =
    let n = 4 and t = 0 in
    let pair = Pair.freq ~n ~t in
    let cfg = Svc.config ~dissemination:mode ~pair:(fun _ -> pair) ~n ~t () in
    let d = Svc.launch cfg in
    let ports = List.map snd d.Svc.ports in
    let starved_ports = List.filteri (fun i _ -> i < 3) ports in
    let payload = String.make bytes 'x' in
    let r =
      run_clients ~clients:4 starved_ports (fun i ->
          Dex_service.State_machine.Blob (Printf.sprintf "b%d" (i mod 16), payload))
    in
    Thread.delay 0.5;
    let starved = List.assoc 3 d.Svc.servers in
    let snap = Dex_metrics.Registry.snapshot (Svc.metrics starved) in
    let stats = Svc.stats starved in
    Svc.shutdown d;
    let ingress =
      Dex_metrics.Registry.get snap "service/fetch_bytes"
      + Dex_metrics.Registry.get snap "erasure/frag_bytes_in"
    in
    let batches = max 1 (stats.Svc.committed_slots - stats.Svc.empty_slots) in
    let open Dex_service.Client.Load in
    let p50 = match r.latency with Some s -> s.Dex_metrics.Stats.p50 | None -> 0.0 in
    let tag name =
      Printf.sprintf "service/large-value-%s-%s-%s" tag_size
        (Dex_erasure.Dissemination.to_string mode)
        name
    in
    [
      (tag "ops-s", r.throughput);
      (tag "latency-p50-ms", p50);
      ( tag "starved-fetch-KiB-per-commit",
        float_of_int ingress /. 1024.0 /. float_of_int batches );
    ]
  in
  List.concat_map
    (fun (bytes, tag_size) ->
      run Dex_erasure.Dissemination.Full bytes tag_size
      @ run Dex_erasure.Dissemination.Coded bytes tag_size)
    [ (1024, "1KiB"); (65536, "64KiB"); (524288, "512KiB") ]

(* Protocol-lane head-to-head (E20): the same loopback deployment run once
   per lane — dex, Kuo-Chen two-step, speculative hbft — same shape, same
   client population, so the rows compare the lanes and nothing else. The
   fast path differs per lane: dex expedites to one step, the other two to
   two, so the fraction row reads the matching provenance counter. *)
let proto_rows () =
  let run tag fast (module L : Dex_core.Protocol_lane.LANE) =
    let module S = Dex_service.Server.Make (L) in
    let n = 4 and t = 0 in
    let pair = Pair.freq ~n ~t in
    let cfg = S.config ~pair:(fun _ -> pair) ~n ~t () in
    let d = S.launch cfg in
    let r =
      run_clients ~clients:64 (List.map snd d.S.ports) (fun i ->
          Dex_service.State_machine.Set (Printf.sprintf "k%d" (i mod 64), i))
    in
    Thread.delay 0.2;
    S.shutdown d;
    let open Dex_service.Client.Load in
    let committed = float_of_int (max 1 r.committed) in
    let hits = match fast with `One -> r.one_step | `Two -> r.two_step in
    let p50 = match r.latency with Some s -> s.Dex_metrics.Stats.p50 | None -> 0.0 in
    let p99 = match r.latency with Some s -> s.Dex_metrics.Stats.p99 | None -> 0.0 in
    let row name = Printf.sprintf "service/proto-%s-%s" tag name in
    [
      (row "ops-s", r.throughput);
      (row "fast-path-fraction", float_of_int hits /. committed);
      (row "latency-p50-ms", p50);
      (row "latency-p99-ms", p99);
    ]
  in
  run "dex" `One (module Dex_core.Dex.Lane (Uc_oracle))
  @ run "two-step" `Two (module Dex_baselines.Kuo_chen.Lane (Uc_oracle))
  @ run "hbft" `Two (module Dex_baselines.Hbft.Lane (Uc_oracle))

(* Sharded service scaling: the same loopback box, the keyspace split over
   k = 1, 2, 4, 8 consensus groups behind one shared runtime and a shard
   router, 64 closed-loop clients per shard. Every group runs on the set's
   one loop, in one OCaml domain, so the groups never commit in parallel
   and the family measures the sharding overhead against the per-group
   one-step gain (see EXPERIMENTS.md E18). *)
module GSet = Dex_shard.Group_set.Make (Dex_core.Dex.Lane (Uc_oracle))

let shard_scaling_rows () =
  let run shards =
    let n = 4 and t = 0 in
    let pair = Pair.freq ~n ~t in
    let cfg = GSet.S.config ~pair:(fun _ -> pair) ~n ~t () in
    let map = Dex_shard.Shard_map.create ~shards () in
    let g = GSet.launch ~map cfg in
    let r =
      let router =
        Dex_shard.Router.connect ~map ~client:1 (Array.to_list (GSet.ports g))
      in
      let r =
        Dex_shard.Router.Load.run_many ~clients:(64 * shards) ~duration:2.0 router
          (fun i -> Dex_service.State_machine.Set (Printf.sprintf "k%d" (i mod 64), i))
      in
      Dex_shard.Router.close router;
      r
    in
    Thread.delay 0.2;
    GSet.shutdown g;
    let open Dex_service.Client.Load in
    let agg = r.Dex_shard.Router.Load.agg in
    let committed = float_of_int agg.committed in
    let p50 = match agg.latency with Some s -> s.Dex_metrics.Stats.p50 | None -> 0.0 in
    let p99 = match agg.latency with Some s -> s.Dex_metrics.Stats.p99 | None -> 0.0 in
    let tag name = Printf.sprintf "service/shards-%d-%s" shards name in
    [
      (tag "ops-s", agg.throughput);
      ( tag "one-step-fraction",
        if agg.committed = 0 then 0.0 else float_of_int agg.one_step /. committed );
      (tag "latency-p50-ms", p50);
      (tag "latency-p99-ms", p99);
    ]
  in
  List.concat_map run [ 1; 2; 4; 8 ]

let all_tests =
  Test.make_grouped ~name:"dex"
    ([
       bench_prng;
       bench_pqueue;
       bench_view_margin;
       bench_p1;
       bench_p2;
       bench_f;
       bench_legality;
       bench_idb;
       bench_bracha;
       bench_smr;
     ]
    @ bench_table1 @ bench_steps @ bench_uc @ bench_codec @ bench_registry
    @ [ bench_stubborn; bench_analysis ])

(* ----------------------- bechamel driver ----------------------- *)

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw_results = Benchmark.all cfg instances all_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let collect_rows results =
  let rows = ref [] in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> rows := (name, est) :: !rows
          | _ -> ())
        tbl)
    results;
  List.sort compare !rows

let print_results rows =
  Printf.printf "%-36s %16s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 54 '-');
  List.iter (fun (name, est) -> Printf.printf "%-36s %16.1f\n" name est) rows

(* Run [f] in a forked child and marshal its result back. The service lanes
   are sensitive to runtime state the microbenchmarks leave behind — bechamel
   disables automatic compaction ([Gc.max_overhead] := 1e6) and its
   stabilization loop compacts the major heap down to nothing, after which
   the allocation-heavy loopback deployments measure the GC's re-expansion
   pacing instead of the I/O stack (2-3x slower than the same code in a
   fresh process). Forking gives every lane the process state it would have
   standalone. Must be called while the process is single-threaded. *)
let in_child (f : unit -> (string * float) list) : (string * float) list =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc result [];
    flush oc;
    (* [_exit]: skip at_exit so the parent's buffered output is not
       re-flushed from the child. *)
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result : ((string * float) list, string) Result.t = Marshal.from_channel ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    (match result with Ok rows -> rows | Error e -> failwith e)

let () =
  let arg = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let print_rows rows = List.iter (fun (name, v) -> Printf.printf "%-48s %16.2f\n" name v) rows in
  (* The E18–E20 reproduction commands: one service family each. *)
  let families =
    [ ("shards", shard_scaling_rows); ("large", large_value_rows); ("proto", proto_rows) ]
  in
  (match List.assoc_opt arg families with
  | Some family ->
    print_rows (family ());
    exit 0
  | None -> ());
  print_endline "== Bechamel microbenchmarks ==";
  let rows = in_child (fun () -> collect_rows (benchmark ())) in
  print_results rows;
  print_endline "\n== Sharding lane (k groups, shared runtime, 64 clients/shard) ==";
  print_rows (in_child shard_scaling_rows);
  print_endline "\n== Large-value lane (starved replica, full vs coded dissemination) ==";
  print_rows (in_child large_value_rows);
  print_endline "\n== Protocol lanes (dex vs two-step vs hbft, loopback n=4 t=0) ==";
  print_rows (in_child proto_rows);
  if arg <> "quick" then begin
    print_endline "\n== Experiment tables (paper reproduction; see EXPERIMENTS.md) ==";
    Dex_experiments.Harness.trials := 20;
    List.iter (fun (_, f) -> f ()) Dex_experiments.Harness.all
  end
