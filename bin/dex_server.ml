(* Replicated KV service over the DEX log — server side.

   Every subcommand runs over a group set: [--shards k] independent
   consensus groups of n replicas each (default k = 1, the unsharded
   service), tenants of one shared runtime, loaded through one shard
   router.

   `serve` boots the set in one process (real TCP between replicas and to
   clients) and prints every replica's client service port; point
   bin/dex_client at them. `--data-dir` turns on the durability lane (WAL +
   snapshots, persist-before-reply); `--stats S` prints a one-line
   service/WAL/link counter report every S seconds.

   `smoke` is the self-contained CI gate: boot a set (optionally with
   mute/equivocating replicas), drive it with in-process closed-loop
   clients, and fail unless every shard committed work with zero agreement
   violations, misroutes and duplicate applies.

   `restart` is the durability gate: crash one replica of shard 0 mid-load
   (WAL abandoned, no final fsync), restart it from its data dir, and fail
   unless every shard converges to one state digest with zero agreement
   violations, zero lost acknowledged commits and zero duplicate applies.

   `gauntlet` is the chaos gate: a clean baseline phase, then a fault plan
   replayed against shard 0 under the same load, with the same audit. *)

open Cmdliner
open Dex_condition
open Dex_underlying
module PL = Dex_core.Protocol_lane
module Sm = Dex_service.State_machine
module R = Dex_metrics.Registry
module FP = Dex_runtime.Fault_plan

type opts = {
  n : int;
  t : int;
  pair_name : string;
  seed : int;
  window : int;
  batch_delay : float;
  settle : float;
  batch_cap : int;
  queue_cap : int;
  port_base : int;
  duration : float;
  mute : int list;
  equivocate : int list;
  data_dir : string option;
  stats_every : float;
  group_commit : bool;
  snapshot_every : int;
  kill : int;
  down : float;
  chaos_plan : string option;
  shards : int;
  dissemination : Dex_erasure.Dissemination.mode;
  value_bytes : int;
  submit_to : int;
}

type outcome = [ `Ok of unit | `Error of bool * string ]

(* The smoke/restart/gauntlet workload: plain counter Adds, or — under
   --value-bytes N — Blob writes carrying an N-byte opaque payload that
   still apply as an increment of "k", so the duplicate-apply (overshoot)
   audit keeps reading the same counter. *)
let workload_of opts =
  if opts.value_bytes <= 0 then fun _ -> Sm.Add ("k", 1)
  else
    let payload = String.make opts.value_bytes 'x' in
    fun _ -> Sm.Blob ("k", payload)

(* Client port subset: --submit-to K connects the driving clients to the
   first K replicas of every shard only, starving the rest of direct
   submissions so their content arrives over the dissemination lane (fetch
   or fragments). *)
let submit_ports opts ports =
  if opts.submit_to <= 0 || opts.submit_to >= List.length ports then ports
  else List.filteri (fun i _ -> i < opts.submit_to) ports

let pair_of opts =
  match String.split_on_char ':' opts.pair_name with
  | [ "freq" ] -> Pair.freq ~n:opts.n ~t:opts.t
  | [ "prv" ] -> Pair.privileged ~n:opts.n ~t:opts.t ~m:0
  | [ "prv"; m ] -> Pair.privileged ~n:opts.n ~t:opts.t ~m:(int_of_string m)
  | _ -> failwith (Printf.sprintf "unknown pair %S (use freq or prv[:M])" opts.pair_name)

let roles_of opts p =
  if List.mem p opts.mute then Dex_service.Server.Mute
  else if List.mem p opts.equivocate then Dex_service.Server.Equivocator
  else Dex_service.Server.Correct

let comma_ints l = String.concat "," (List.map string_of_int l)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Run [f] on the gate's data dir: the [--data-dir] the user passed, kept
   as it is, or else a fresh one in the temp dir, removed when the gate
   ends whatever its verdict — a leftover one would hand its WAL to a later
   run. *)
let with_data_dir opts gate f =
  match opts.data_dir with
  | Some dir -> f dir
  | None ->
    let dir = Filename.temp_dir (Printf.sprintf "dex-%s-" gate) "" in
    Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let verdict gate failures ok : outcome =
  match failures with
  | [] ->
    Printf.printf "%s\n%!" (ok ());
    `Ok ()
  | fs -> `Error (false, Printf.sprintf "%s failed: %s" gate (String.concat "; " fs))

module Run (L : PL.LANE) = struct
  module G = Dex_shard.Group_set.Make (L)
  module S = G.S
  module Router = Dex_shard.Router
  module Load = Dex_service.Client.Load

  let config_of opts =
    let pair = pair_of opts in
    S.config ~seed:opts.seed ~window:opts.window
      ~batch_delay:opts.batch_delay ~settle:opts.settle ~batch_cap:opts.batch_cap
      ~queue_cap:opts.queue_cap ?data_dir:opts.data_dir ~group_commit:opts.group_commit
      ~snapshot_every:opts.snapshot_every ~dissemination:opts.dissemination
      ~pair:(fun _ -> pair)
      ~n:opts.n ~t:opts.t ()

  let map_of opts = Dex_shard.Shard_map.create ~shards:opts.shards ()

  (* [opts.shards] groups behind one shared runtime, every group getting
     the same role assignment unless overridden. *)
  let launch ?roles ?chaos opts =
    let roles =
      match roles with Some r -> r | None -> fun ~shard:_ p -> roles_of opts p
    in
    G.launch ~roles ?chaos ~port_base:opts.port_base ~map:(map_of opts) (config_of opts)

  (* The deployment fields every subcommand's header line starts with. *)
  let describe opts =
    Printf.sprintf "n=%d t=%d shards=%d map=%s protocol=%s pair=%s dissemination=%s value-bytes=%d"
      opts.n opts.t opts.shards
      (Dex_shard.Shard_map.to_string (map_of opts))
      L.name opts.pair_name
      (Dex_erasure.Dissemination.to_string opts.dissemination)
      opts.value_bytes

  let print_ports g =
    Array.iteri
      (fun i d ->
        List.iter
          (fun (p, port) -> Printf.printf "shard %d replica %d: 127.0.0.1:%d\n%!" i p port)
          d.S.ports)
      (G.deployments g)

  let print_stats g =
    Array.iteri
      (fun i d ->
        List.iter
          (fun (p, s) -> Format.printf "shard %d replica %d: %a@." i p S.pp_stats (S.stats s))
          d.S.servers)
      (G.deployments g)

  let replica_snapshots g =
    Array.to_list (G.deployments g)
    |> List.concat_map (fun d -> List.map (fun (_, s) -> R.snapshot (S.metrics s)) d.S.servers)

  (* The `--stats` heartbeat, read entirely off the unified metrics
     registries: every replica's registry of every shard (service/wal/
     durability families) merged with the shared runtime's (net and reactor
     families), one line per tick. Counters sum across replicas;
     [apply_lag] and the fsync group-size high-water mark are reported as
     the per-replica maximum. With k > 1, each shard's own totals follow
     the set-wide ones. *)
  let stats_line g =
    let replica_snaps = replica_snapshots g in
    let merged = R.merge (G.runtime_snapshot g :: replica_snaps) in
    let max_over name =
      List.fold_left (fun acc snap -> max acc (R.get snap name)) 0 replica_snaps
    in
    let shard_part =
      if G.shard_count g = 1 then ""
      else
        String.concat ""
          (List.init (G.shard_count g) (fun i ->
               let snap = G.shard_snapshot g i in
               let wal =
                 if not (List.mem_assoc "wal/appends" snap) then ""
                 else Printf.sprintf " wal=%d" (R.get snap "wal/appends")
               in
               Printf.sprintf " | s%d slots=%d applied=%d busy=%d%s" i
                 (R.get snap "service/committed_slots")
                 (R.get snap "service/applied")
                 (R.get snap "service/busy_rejections")
                 wal))
    in
    let wal_part =
      if not (List.mem_assoc "wal/appends" merged) then "wal off"
      else
        Printf.sprintf "wal app=%d fsync=%d grp<=%d seg=%d %dKiB"
          (R.get merged "wal/appends") (R.get merged "wal/fsyncs")
          (max_over "wal/max_group") (R.get merged "wal/segments")
          (R.get merged "wal/bytes" / 1024)
    in
    (* Per-peer link counters ([net/<kind>/peer<pid>], pids of the shared
       mesh), rendered only for peers with any activity so a healthy mesh
       keeps the line short. *)
    let peer_part =
      let peers = Hashtbl.create 8 in
      List.iter
        (fun (name, _) ->
          match String.split_on_char '/' name with
          | [ "net"; kind; peer ]
            when String.length peer > 4 && String.sub peer 0 4 = "peer" ->
            let pid = int_of_string (String.sub peer 4 (String.length peer - 4)) in
            let r, b, dr =
              Option.value ~default:(0, 0, 0) (Hashtbl.find_opt peers pid)
            in
            let v = R.get merged name in
            Hashtbl.replace peers pid
              (match kind with
              | "reconnects" -> (r + v, b, dr)
              | "backoffs" -> (r, b + v, dr)
              | "drops" -> (r, b, dr + v)
              | _ -> (r, b, dr))
          | _ -> ())
        merged;
      let rows =
        Hashtbl.fold (fun pid counts acc -> (pid, counts) :: acc) peers []
        |> List.sort compare
        |> List.filter_map (fun (pid, (r, b, dr)) ->
               if r + b + dr = 0 then None
               else Some (Printf.sprintf "%d:r%d/b%d/d%d" pid r b dr))
      in
      if rows = [] then "" else " | peers " ^ String.concat " " rows
    in
    (* Event-driven runtime health: registered fds and timer-queue depth
       across all loops, loop iterations, and the client write-buffer
       high-water mark. *)
    let reactor_part =
      if not (List.mem_assoc "reactor/loops" merged) then ""
      else
        Printf.sprintf " | reactor fds=%d timers=%d loops=%d errs=%d wbuf<=%dB"
          (R.get merged "reactor/fds")
          (R.get merged "reactor/timers")
          (R.get merged "reactor/loops")
          (R.get merged "reactor/handler_errors")
          (max_over "service/client_wbuf_hwm")
    in
    (* Decision-path counters, named through the one shared provenance
       mapping (a new provenance variant shows up here automatically). *)
    let prov_part =
      String.concat " "
        (List.map
           (fun p ->
             let name = PL.metric_of_provenance p in
             Printf.sprintf "%s=%d" name (R.get merged ("service/" ^ name)))
           PL.all_provenances)
    in
    (* Peer frames handed to connections and the pumps that wrote them:
       frames per flush is the coalescing of the end-of-turn flush. *)
    Printf.printf
      "[stats] slots=%d applied=%d busy=%d lag=%d%s | %s | %s | net reconn=%d backoff=%d \
       drop=%d frames=%d flushes=%d%s%s\n%!"
      (R.get merged "service/committed_slots")
      (R.get merged "service/applied")
      (R.get merged "service/busy_rejections")
      (max_over "service/apply_lag") shard_part prov_part wal_part
      (R.get merged "net/reconnects")
      (R.get merged "net/backoffs")
      (R.get merged "net/drops")
      (R.get merged "net/frames")
      (R.get merged "net/flushes")
      peer_part reactor_part

  let serve opts =
    let g = launch opts in
    Printf.printf "service up: %s durability=%s\n" (describe opts)
      (match opts.data_dir with Some dir -> dir | None -> "off");
    print_ports g;
    let heartbeat = if opts.stats_every > 0.0 then opts.stats_every else 10.0 in
    let report () = if opts.stats_every > 0.0 then stats_line g else print_stats g in
    if opts.duration > 0.0 then begin
      let rec wait left =
        if left > 0.0 then begin
          let step = Float.min heartbeat left in
          Thread.delay step;
          if left -. step > 0.0 then report ();
          wait (left -. step)
        end
      in
      wait opts.duration;
      print_stats g;
      G.shutdown g
    end
    else
      (* Run until killed, with a periodic heartbeat. *)
      while true do
        Thread.delay heartbeat;
        report ()
      done;
    `Ok ()

  (* ------------------------------ one run ------------------------------- *)

  (* One gated run over a fresh set: launch, drive closed-loop load through
     one router (16 logical clients per shard) for [opts.duration] seconds
     while [during] runs on a side thread, return every churning replica to
     honest (a plan may end mid-churn), [settle], then shut the set down —
     consensus before replicas, so the audit reads frozen state — and print
     every replica's stats. [during]'s exception, if any, is returned. *)
  let run ?roles ?chaos ?(during = ignore) ?(settle = fun _ -> Thread.delay 0.5) opts =
    let g = launch ?roles ?chaos opts in
    let side_err = ref None in
    let side =
      Thread.create
        (fun () -> try during g with e -> side_err := Some (Printexc.to_string e))
        ()
    in
    let router =
      Router.connect ~map:(G.map g) ~client:1
        (List.map (submit_ports opts) (Array.to_list (G.ports g)))
    in
    let report =
      Router.Load.run_many ~clients:(16 * opts.shards) ~duration:opts.duration router
        (workload_of opts)
    in
    Router.close router;
    Format.printf "%a@." Router.Load.pp_report report;
    Thread.join side;
    Array.iter
      (fun d ->
        List.iter (fun (_, cell) -> cell := Dex_net.Adversary.Churn_honest) d.S.churn_cells)
      (G.deployments g);
    settle g;
    G.shutdown g;
    print_stats g;
    if opts.stats_every > 0.0 then stats_line g;
    (g, report, !side_err)

  let counter_of s = match List.assoc_opt "k" (S.state_snapshot s) with Some v -> v | None -> 0

  (* The checks every gate holds a finished run to; prints what it read and
     returns the failures (empty = pass). Each replica's counter "k" must
     not exceed the Adds routed to its shard (no duplicate apply), nor —
     with [acked], sound only once every shard has converged — fall below
     the commits acknowledged from that shard (no lost acks). In coded mode
     the decode fallbacks are bounded by the coded fetches (decodes +
     fallbacks; both count batches, so the bound does not grow with the
     ops a batch holds): some fallbacks are legal (races where a batch
     commits before its fragments land), but a fallback per fetch means the
     lane never decodes and the mode is lying. *)
  let audit ?(tag = "") ?(acked = false) opts g (r : Router.Load.report) =
    let viols = G.agreement_violations g in
    Array.iteri
      (fun i (compared, v) ->
        Printf.printf "%sshard %d agreement: %d multiply-committed slots compared, %d violations\n"
          tag i compared (List.length v))
      viols;
    let merged = R.merge (replica_snapshots g) in
    let decodes = R.get merged "erasure/decodes" in
    let fallbacks = R.get merged "erasure/decode_fallbacks" in
    Printf.printf
      "%sdissemination: fetch_rtts=%d fetch_bytes=%d frag_recv=%d decodes=%d \
       decode_failures=%d fallbacks=%d bytes_saved=%d\n%!"
      tag
      (R.get merged "service/fetch_rtts")
      (R.get merged "service/fetch_bytes")
      (R.get merged "erasure/frag_recv")
      decodes
      (R.get merged "erasure/decode_failures")
      fallbacks
      (R.get merged "erasure/bytes_saved");
    let committed = r.Router.Load.agg.Load.committed in
    let shards = List.init (G.shard_count g) Fun.id in
    let idle =
      List.filter (fun i -> r.Router.Load.per_shard.(i).Router.Load.s_committed = 0) shards
    in
    let violations = Array.fold_left (fun acc (_, v) -> acc + List.length v) 0 viols in
    let fallback_bound = max 10 ((decodes + fallbacks) / 10) in
    let applies i =
      let { Router.Load.s_issued; s_committed } = r.Router.Load.per_shard.(i) in
      List.filter_map
        (fun (p, s) ->
          let c = counter_of s in
          if c > s_issued then
            Some
              (Printf.sprintf "shard %d replica %d applied %d > issued %d (duplicate apply)" i p
                 c s_issued)
          else if acked && c < s_committed then
            Some
              (Printf.sprintf "shard %d replica %d applied %d < %d acked commits (lost acks)" i
                 p c s_committed)
          else None)
        (G.deployment g i).S.servers
    in
    List.concat
      [
        (if committed = 0 then [ "no commits" ]
         else if idle <> [] then
           [ Printf.sprintf "shards [%s] committed nothing" (comma_ints idle) ]
         else []);
        (if r.Router.Load.misroutes > 0 then
           [ Printf.sprintf "%d misrouted replies" r.Router.Load.misroutes ]
         else []);
        (if violations > 0 then [ Printf.sprintf "%d agreement violations" violations ] else []);
        List.concat_map applies shards;
        (if Dex_erasure.Dissemination.(equal opts.dissemination Coded) && fallbacks > fallback_bound
         then
           [
             Printf.sprintf "%d decode fallbacks > bound %d (coded lane not decoding)" fallbacks
               fallback_bound;
           ]
         else []);
      ]

  (* ------------------------------- gates -------------------------------- *)

  let smoke opts =
    Printf.printf "smoke: %s mute=[%s] equivocate=[%s]\n%!" (describe opts)
      (comma_ints opts.mute) (comma_ints opts.equivocate);
    let g, report, _ = run opts in
    verdict "smoke" (audit opts g report) (fun () ->
        Printf.sprintf
          "smoke OK: %d ops committed across %d shards, 0 misroutes, agreement clean on every \
           shard, no duplicate applies"
          report.Router.Load.agg.Load.committed opts.shards)

  let restart opts =
    with_data_dir opts "restart" @@ fun data_dir ->
    let opts = { opts with data_dir = Some data_dir } in
    if opts.kill < 0 || opts.kill >= opts.n then failwith "restart: --kill pid out of range";
    if List.mem opts.kill opts.mute || List.mem opts.kill opts.equivocate then
      failwith "restart: --kill must name a correct replica";
    Printf.printf "restart smoke: %s data-dir=%s kill=shard0/%d down=%.1fs duration=%.1fs\n%!"
      (describe opts) data_dir opts.kill opts.down opts.duration;
    (* Crash shard 0's replica mid-load, restart it after [down] seconds of
       missed slots: the crash and its recovery traffic stay inside shard 0,
       every other group keeps its own WAL root and keeps committing. *)
    let restarted = ref None in
    let crash_and_restart g =
      Thread.delay (opts.duration /. 3.0);
      G.kill_replica g ~shard:0 opts.kill;
      Printf.printf "killed shard 0 replica %d (WAL abandoned mid-flight)\n%!" opts.kill;
      Thread.delay opts.down;
      let s = G.restart_replica g ~shard:0 opts.kill in
      restarted := Some s;
      Printf.printf
        "restarted shard 0 replica %d: replayed %d slots from disk, catching up from slot %d\n%!"
        opts.kill (S.stats s).S.recovered_slots (S.apply_frontier s)
    in
    (* Convergence: every live replica (the restarted one included) must
       settle on its shard's one state digest. *)
    let converged g =
      (match !restarted with Some s -> not (S.catching_up s) | None -> false)
      && Array.for_all
           (fun d ->
             match List.map (fun (_, s) -> S.state_digest s) d.S.servers with
             | [] -> false
             | digest :: rest -> List.for_all (fun dx -> dx = digest) rest)
           (G.deployments g)
    in
    (* The verdict is the sample that ended the wait: a second sample could
       land mid-way through a trailing slot that some replicas of a shard
       have applied and others not yet, and fail a run that converged. *)
    let did_converge = ref false in
    let await_convergence g =
      let deadline = Unix.gettimeofday () +. 20.0 in
      let rec wait () =
        converged g || (Unix.gettimeofday () < deadline && (Thread.delay 0.1; wait ()))
      in
      did_converge := wait ()
    in
    let g, report, crash_err = run ~during:crash_and_restart ~settle:await_convergence opts in
    (* The recovery report reads the unified registry: the restarted
       replica's service/durability families plus the shared runtime's net
       family (its reconnect shows up there). *)
    Option.iter
      (fun s ->
        let reg = R.merge [ R.snapshot (S.metrics s); G.runtime_snapshot g ] in
        Printf.printf
          "recovery: replayed=%d catchup=%d state-transfers=%d snapshots=%d | net reconn=%d\n%!"
          (R.get reg "service/recovered_slots")
          (R.get reg "service/catchup_installed")
          (R.get reg "service/state_transfers")
          (R.get reg "durability/snapshots")
          (R.get reg "net/reconnects"))
      !restarted;
    let failures =
      audit ~acked:true opts g report
      @ (if !did_converge then []
         else [ Printf.sprintf "shard 0 replica %d did not converge within 20s" opts.kill ])
      @ Option.to_list (Option.map (fun e -> "crash/restart driver: " ^ e) crash_err)
    in
    verdict "restart smoke" failures (fun () ->
        let rstats = S.stats (Option.get !restarted) in
        Printf.sprintf
          "restart smoke OK: %d ops committed across %d shards, shard 0 replica %d recovered \
           (replay %d + catchup %d + xfer %d), digests converged, no lost acks, no duplicate \
           applies"
          report.Router.Load.agg.Load.committed opts.shards opts.kill rstats.S.recovered_slots
          rstats.S.catchup_installed rstats.S.state_transfers)

  (* ------------------------------ gauntlet ------------------------------ *)

  (* The built-in chaos gauntlet for an n-replica run of [d] seconds: mild
     noise on every link throughout, a symmetric partition that heals, a
     kill/restart storm on one replica, then a Byzantine churn burst
     (mute -> honest -> equivocate -> honest) on another. Storm and churn
     phases do not overlap, so at most one replica is crashed or Byzantine
     at any instant — the t >= 1 envelope the service promises to absorb. *)
  let builtin_gauntlet_spec opts =
    let d = opts.duration in
    let cut_a = if opts.n >= 5 then [ 0; 1 ] else [ 0 ] in
    let cut_b = List.filter (fun p -> not (List.mem p cut_a)) (List.init opts.n Fun.id) in
    let storm_pid = opts.kill in
    let churn_pid = opts.n - 2 in
    {
      FP.seed = opts.seed;
      rules =
        [
          ( FP.All,
            { FP.drop = 0.02; dup = 0.02; reorder = 0.05; delay = 0.001; jitter = 0.002 } );
        ];
      cuts =
        [
          {
            FP.cut_a;
            cut_b;
            symmetric = true;
            from_s = 0.20 *. d;
            until_s = 0.32 *. d;
          };
        ];
      storm =
        [
          { FP.s_at = 0.40 *. d; s_pid = storm_pid; s_action = FP.Kill };
          { FP.s_at = 0.55 *. d; s_pid = storm_pid; s_action = FP.Restart };
        ];
      churn =
        [
          { FP.c_at = 0.65 *. d; c_pid = churn_pid; c_mode = FP.Churn_mute };
          { FP.c_at = 0.74 *. d; c_pid = churn_pid; c_mode = FP.Churn_honest };
          { FP.c_at = 0.80 *. d; c_pid = churn_pid; c_mode = FP.Churn_equiv };
          { FP.c_at = 0.90 *. d; c_pid = churn_pid; c_mode = FP.Churn_honest };
        ];
    }

  (* The lane's expedited-path fraction of decided commits: [L.fast_path]
     selects which provenance counters count as fast (one-step for dex,
     two-step for the two-step and hbft lanes). *)
  let fast_fraction (r : Load.report) =
    let count p =
      match p with
      | PL.One_step -> r.Load.one_step
      | PL.Two_step -> r.Load.two_step
      | PL.Underlying -> r.Load.underlying
    in
    let decided = List.fold_left (fun acc p -> acc + count p) 0 PL.all_provenances in
    let fast =
      List.fold_left
        (fun acc p -> if L.fast_path p then acc + count p else acc)
        0 PL.all_provenances
    in
    if decided = 0 then 0.0 else float_of_int fast /. float_of_int decided

  let pp_phase label (r : Load.report) =
    let lat =
      match r.Load.latency with
      | Some s -> Printf.sprintf " p50=%.2fms p99=%.2fms" s.Dex_metrics.Stats.p50 s.p99
      | None -> ""
    in
    Printf.printf
      "[%s] committed=%d failed=%d fast-path=%.1f%% (1s=%d 2s=%d und=%d)%s thrpt=%.0f/s\n%!"
      label r.Load.committed r.failed
      (100.0 *. fast_fraction r)
      r.Load.one_step r.two_step r.underlying lat r.throughput

  let gauntlet opts =
    let spec =
      match opts.chaos_plan with
      | Some file -> FP.load ~file
      | None -> builtin_gauntlet_spec opts
    in
    (match FP.validate ~n:opts.n ~t:opts.t spec with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "gauntlet: invalid fault plan: %s" e));
    let churn_pids = List.sort_uniq compare (List.map (fun e -> e.FP.c_pid) spec.FP.churn) in
    let storm_pids = List.sort_uniq compare (List.map (fun e -> e.FP.s_pid) spec.FP.storm) in
    (match List.filter (fun p -> List.mem p churn_pids) storm_pids with
    | [] -> ()
    | clash ->
      failwith
        (Printf.sprintf
           "gauntlet: pids %s appear in both storm and churn schedules — a restarted \
            replica loses its churn wrapper"
           (comma_ints clash)));
    (* Crash-restart recovers from disk: default to a scratch data dir. *)
    with_data_dir opts "gauntlet" @@ fun base_dir ->
    Printf.printf
      "gauntlet: %s duration=%.1fs plan=%s (%d rules, %d cuts, %d storm, %d churn; seed %d; \
       chaos on shard 0)\n%!"
      (describe opts) opts.duration
      (match opts.chaos_plan with Some f -> f | None -> "builtin")
      (List.length spec.FP.rules) (List.length spec.FP.cuts) (List.length spec.FP.storm)
      (List.length spec.FP.churn) spec.FP.seed;
    let phase label ~roles ?chaos ?during () =
      let g, report, err =
        run ~roles ?chaos ?during
          { opts with data_dir = Some (Filename.concat base_dir label) }
      in
      pp_phase label report.Router.Load.agg;
      let failures =
        audit ~tag:(Printf.sprintf "[%s] " label) opts g report
        @ Option.to_list (Option.map (fun e -> "schedule driver: " ^ e) err)
      in
      (report, List.map (fun f -> label ^ ": " ^ f) failures)
    in
    (* Clean baseline first: same config, same load, no faults — the
       reference fast-path fraction and latency profile. *)
    let base_report, base_failures =
      phase "baseline" ~roles:(fun ~shard:_ _ -> Dex_service.Server.Correct) ()
    in
    (* The whole plan lands on shard 0 — its links, its storm, its churn;
       shards 1..k-1 run clean, and the audit holds every shard to keep
       committing throughout (blast-radius isolation). *)
    let plan = FP.make ~metrics:(R.create ()) spec in
    let report, failures =
      phase "chaos"
        ~roles:(fun ~shard p ->
          if shard = 0 && List.mem p churn_pids then Dex_service.Server.Churn
          else roles_of opts p)
        ~chaos:(0, plan) ~during:G.run_chaos_schedule ()
    in
    Printf.printf "[chaos] injected: %s\n%!" (Format.asprintf "%a" FP.pp_counts (FP.counts plan));
    Printf.printf "fast-path fraction: baseline %.1f%% -> chaos %.1f%%\n%!"
      (100.0 *. fast_fraction base_report.Router.Load.agg)
      (100.0 *. fast_fraction report.Router.Load.agg);
    verdict "gauntlet" (base_failures @ failures) (fun () ->
        Printf.sprintf
          "gauntlet OK: %d ops committed under chaos on shard 0; every shard kept committing, \
           agreement clean on all shards, no duplicate applies"
          report.Router.Load.agg.Load.committed)
end

(* The leader UC with its round timeouts in seconds, for the live runtime. *)
module Uc_leader_live = Uc_leader.Make (struct let timeout_base = 0.25 end)

let lane_of id uc : (module PL.LANE) =
  match (id, uc) with
  | PL.Dex, `Oracle -> (module Dex_core.Dex.Lane (Uc_oracle))
  | PL.Dex, `Leader -> (module Dex_core.Dex.Lane (Uc_leader_live))
  | PL.Kuo_chen, `Oracle -> (module Dex_baselines.Kuo_chen.Lane (Uc_oracle))
  | PL.Kuo_chen, `Leader -> (module Dex_baselines.Kuo_chen.Lane (Uc_leader_live))
  | PL.Hbft, `Oracle -> (module Dex_baselines.Hbft.Lane (Uc_oracle))
  | PL.Hbft, `Leader -> (module Dex_baselines.Hbft.Lane (Uc_leader_live))

(* Pids named on the command line must exist, and a replica plays at most
   one Byzantine role. *)
let check_pids opts =
  let out_of_range = List.filter (fun p -> p < 0 || p >= opts.n) (opts.mute @ opts.equivocate) in
  let both = List.filter (fun p -> List.mem p opts.equivocate) opts.mute in
  if out_of_range <> [] then
    Some (Printf.sprintf "pids [%s] out of range [0, %d)" (comma_ints out_of_range) opts.n)
  else if both <> [] then
    Some (Printf.sprintf "pids [%s] named in both --mute and --equivocate" (comma_ints both))
  else None

let dispatch gate uc_name protocol opts : unit Term.ret =
  let uc =
    match uc_name with "oracle" -> Some `Oracle | "leader" -> Some `Leader | _ -> None
  in
  match (PL.id_of_string protocol, uc, check_pids opts) with
  | None, _, _ ->
    `Error
      (false, Printf.sprintf "unknown protocol %S (use dex, two-step or hbft)" protocol)
  | _, None, _ -> `Error (false, Printf.sprintf "unknown uc %S (use oracle or leader)" uc_name)
  | _, _, Some usage -> `Error (true, usage)
  | Some id, Some uc, None -> (
    let module L = (val lane_of id uc) in
    let module Run = Run (L) in
    let run =
      match gate with
      | `Serve -> Run.serve
      | `Smoke -> Run.smoke
      | `Restart -> Run.restart
      | `Gauntlet -> Run.gauntlet
    in
    try (run opts :> unit Term.ret) with
    | Pair.Assumption_violated m | Failure m | Invalid_argument m -> `Error (false, m))

(* ----------------------------- options ----------------------------- *)

let pid_list_t names doc =
  let conv_pids =
    let parse s =
      if String.trim s = "" then Ok []
      else
        try Ok (List.map int_of_string (String.split_on_char ',' s))
        with Failure _ -> Error (`Msg "expected a comma-separated pid list")
    in
    Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (comma_ints l))
  in
  Arg.(value & opt conv_pids [] & info names ~doc)

let opts_t ?(mute_last = false) ~default_n ~default_t ~default_duration () =
  let n_t = Arg.(value & opt int default_n & info [ "n"; "replicas" ] ~doc:"Number of replicas.") in
  let t_t = Arg.(value & opt int default_t & info [ "t"; "faults-bound" ] ~doc:"Failure bound.") in
  let pair_t =
    Arg.(value & opt string "freq" & info [ "pair" ] ~doc:"Condition pair: freq or prv[:M].")
  in
  let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let window_t = Arg.(value & opt int 8 & info [ "window" ] ~doc:"Log pipelining window.") in
  let batch_delay_t =
    Arg.(value & opt float 0.004 & info [ "batch-delay" ] ~doc:"Batcher tick (seconds).")
  in
  let settle_t =
    Arg.(
      value & opt float 0.002
      & info [ "settle" ] ~doc:"Min request age before proposal (seconds).")
  in
  let batch_cap_t =
    Arg.(value & opt int 256 & info [ "batch-cap" ] ~doc:"Max requests per batch.")
  in
  let queue_cap_t =
    Arg.(value & opt int 4096 & info [ "queue-cap" ] ~doc:"Admission queue bound.")
  in
  let port_base_t =
    Arg.(value & opt int 0 & info [ "port-base" ] ~doc:"Service port base (0 = ephemeral).")
  in
  let duration_t =
    Arg.(
      value
      & opt float default_duration
      & info [ "duration" ] ~doc:"Run time in seconds (serve: 0 = forever).")
  in
  let mute_t = pid_list_t [ "mute" ] "Comma-separated pids to run mute (crashed)." in
  let equivocate_t = pid_list_t [ "equivocate" ] "Comma-separated pids to run as equivocators." in
  let data_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ]
          ~doc:
            "Enable the durability lane: per-replica WAL + snapshots under \
             $(docv)/replica-<pid> ($(docv)/shard-<i>/replica-<pid> with --shards > 1), \
             persist-before-reply, recovery on restart.")
  in
  let stats_every_t =
    Arg.(
      value & opt float 0.0
      & info [ "stats" ]
          ~doc:
            "Print a one-line service/WAL/link counter report every $(docv) seconds \
             ($(b,serve)), or once after the run (the gated subcommands).")
  in
  let no_group_commit_t =
    Arg.(
      value & flag
      & info [ "no-group-commit" ] ~doc:"Fsync the WAL inline on every applied slot.")
  in
  let snapshot_every_t =
    Arg.(
      value & opt int 4096
      & info [ "snapshot-every" ] ~doc:"Snapshot cadence in applied slots.")
  in
  let kill_t =
    Arg.(value & opt int 2 & info [ "kill" ] ~doc:"Replica to crash (restart command).")
  in
  let down_t =
    Arg.(
      value & opt float 1.0
      & info [ "down" ] ~doc:"Seconds the crashed replica stays down (restart command).")
  in
  let chaos_plan_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos-plan" ]
          ~doc:
            "Fault plan file to replay (gauntlet command) instead of the built-in chaos \
             script — e.g. one emitted by dex_mc --worst-case --plan-out.")
  in
  let shards_t =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~doc:
            "Partition the keyspace over $(docv) independent consensus groups of n replicas \
             each, all tenants of one shared runtime (one TCP mesh, shared event loops), \
             fronted by a shard router; 1 is the unsharded service. Roles \
             (--mute/--equivocate) apply within every group; gauntlet chaos is confined to \
             shard 0.")
  in
  let dissemination_t =
    let conv_mode =
      let parse s =
        match Dex_erasure.Dissemination.of_string s with
        | Ok m -> Ok m
        | Error e -> Error (`Msg e)
      in
      Arg.conv (parse, Dex_erasure.Dissemination.pp)
    in
    Arg.(
      value
      & opt conv_mode Dex_erasure.Dissemination.Full
      & info [ "dissemination" ]
          ~doc:
            "Batch content dissemination: $(b,full) — replicas that miss a batch fetch the \
             whole blob from a peer; $(b,coded) — proposers push one systematic \
             Reed-Solomon fragment per replica and missing content is reconstructed from \
             any n-t distinct fragments, falling back to the full lane on timeout or \
             decode failure.")
  in
  let value_bytes_t =
    Arg.(
      value & opt int 0
      & info [ "value-bytes" ]
          ~doc:
            "Drive the load with $(docv)-byte opaque blob writes instead of counter \
             increments (0 = plain increments). Exercises the large-value dissemination \
             path.")
  in
  let submit_to_t =
    Arg.(
      value & opt int 0
      & info [ "submit-to" ]
          ~doc:
            "Connect the driving client to the first $(docv) replicas only (0 or >= n: \
             all), starving the rest of direct submissions so their content arrives over \
             the dissemination lane.")
  in
  let make n t pair_name seed window batch_delay settle batch_cap queue_cap port_base duration
      mute equivocate data_dir stats_every no_group_commit snapshot_every kill down
      chaos_plan shards dissemination value_bytes submit_to =
    (* [mute_last]: with t >= 1 and no role named, mute the last pid. *)
    let mute = if mute_last && t >= 1 && mute = [] && equivocate = [] then [ n - 1 ] else mute in
    let shards = max 1 shards in
    { n; t; pair_name; seed; window; batch_delay; settle; batch_cap; queue_cap; port_base;
      duration; mute; equivocate; data_dir; stats_every; group_commit = not no_group_commit;
      snapshot_every; kill; down; chaos_plan; shards; dissemination; value_bytes;
      submit_to }
  in
  Term.(
    const make $ n_t $ t_t $ pair_t $ seed_t $ window_t $ batch_delay_t $ settle_t
    $ batch_cap_t $ queue_cap_t $ port_base_t $ duration_t $ mute_t $ equivocate_t
    $ data_dir_t $ stats_every_t $ no_group_commit_t $ snapshot_every_t $ kill_t $ down_t
    $ chaos_plan_t $ shards_t $ dissemination_t $ value_bytes_t $ submit_to_t)

let uc_t =
  Arg.(value & opt string "oracle" & info [ "uc" ] ~doc:"Underlying consensus: oracle or leader.")

let protocol_t =
  Arg.(
    value & opt string "dex"
    & info [ "protocol" ]
        ~doc:
          "Protocol lane: $(b,dex) (the paper's doubly-expedited one-step pair), \
           $(b,two-step) (Kuo-Chen two-step without recovery), or $(b,hbft) (speculative \
           coordinator ordering). All lanes run over the same log, service and \
           underlying consensus.")

(* Per-subcommand manual: every flag the shared option set accepts, grouped
   by concern, so each subcommand's --help lists the full surface. *)
let flags_man =
  [
    `S Manpage.s_options;
    `P
      "Deployment shape: $(b,-n)/$(b,--replicas) replica count; \
       $(b,-t)/$(b,--faults-bound) failure bound; $(b,--shards) independent consensus \
       groups of n replicas behind a shard router (one shared runtime); $(b,--protocol) \
       protocol lane ($(b,dex), $(b,two-step) or $(b,hbft)); $(b,--uc) underlying \
       consensus ($(b,oracle) or $(b,leader)); $(b,--pair) condition pair ($(b,freq) or \
       $(b,prv[:M])).";
    `P
      "Batching and admission: $(b,--window) log pipelining window; $(b,--batch-delay) \
       batcher tick; $(b,--settle) minimum request age before proposal; \
       $(b,--batch-cap) max requests per batch; $(b,--queue-cap) admission queue bound.";
    `P
      "Durability: $(b,--data-dir) WAL + snapshots + persist-before-reply; \
       $(b,--no-group-commit) inline fsync per applied slot; $(b,--snapshot-every) \
       snapshot cadence in applied slots.";
    `P
      "Dissemination and load shape: $(b,--dissemination) batch content lane ($(b,full) \
       or $(b,coded) Reed-Solomon fragments); $(b,--value-bytes) opaque blob payload \
       size for the driving load; $(b,--submit-to) restrict client submissions to the \
       first K replicas.";
    `P
      "Faults: $(b,--mute) crashed pids; $(b,--equivocate) equivocating pids; \
       $(b,--kill)/$(b,--down) crash target and downtime (restart); $(b,--chaos-plan) \
       fault plan file to replay (gauntlet).";
    `P
      "Misc: $(b,--seed) PRNG seed; $(b,--port-base) service port base; \
       $(b,--duration) run time; $(b,--stats) counter report cadence.";
  ]

let gate_cmd name gate ~doc opts =
  Cmd.v
    (Cmd.info name ~man:flags_man ~doc)
    Term.(ret (const (dispatch gate) $ uc_t $ protocol_t $ opts))

let serve_cmd =
  gate_cmd "serve" `Serve
    ~doc:"Boot a loopback KV service of --shards groups of n replicas and print client ports."
    (opts_t ~default_n:4 ~default_t:0 ~default_duration:0.0 ())

let smoke_cmd =
  gate_cmd "smoke" `Smoke
    ~doc:
      "CI gate: boot a deployment (default: n=7 t=1, the last replica mute), drive it with \
       closed-loop clients through the shard router, and fail on zero commits, a shard that \
       committed nothing, misrouted replies, agreement violations, duplicate application, \
       or (coded dissemination) a decode-fallback count above max(10, (decodes + fallbacks)/10)."
    (opts_t ~default_n:7 ~default_t:1 ~default_duration:5.0 ~mute_last:true ())

let restart_cmd =
  gate_cmd "restart" `Restart
    ~doc:
      "Durability gate: boot a durable deployment (default n=4 t=0), crash shard 0's \
       replica --kill mid-load (WAL abandoned), restart it after --down seconds, and fail \
       unless it recovers, every shard catches up to identical state, and the run passes \
       the smoke checks with zero lost acknowledged commits."
    (opts_t ~default_n:4 ~default_t:0 ~default_duration:9.0 ())

let gauntlet_cmd =
  gate_cmd "gauntlet" `Gauntlet
    ~doc:
      "Chaos gate: run a clean baseline, then replay a deterministic fault plan — link \
       noise, a healing partition, a kill/restart storm and a Byzantine churn burst \
       (built-in script, or --chaos-plan FILE) — against shard 0 of a live deployment \
       under closed-loop load. Reports the fast-path fraction and latency against the \
       baseline; fails when either phase fails the smoke checks or the schedule cannot be \
       driven."
    (opts_t ~default_n:7 ~default_t:1 ~default_duration:12.0 ())

let () =
  let info =
    Cmd.info "dex_server" ~version:"1.0.0"
      ~doc:"Replicated key-value service over the DEX log — server and CI smoke."
  in
  exit (Cmd.eval (Cmd.group info [ serve_cmd; smoke_cmd; restart_cmd; gauntlet_cmd ]))
