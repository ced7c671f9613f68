(* Replicated KV service over the DEX log — server side.

   `serve` boots all n replicas of a loopback deployment in one process
   (real TCP between replicas and to clients) and prints the per-replica
   client service ports; point bin/dex_client at them. `--data-dir` turns
   on the durability lane (WAL + snapshots, persist-before-reply);
   `--stats S` prints a one-line service/WAL/link counter report every S
   seconds.

   `smoke` is the self-contained CI gate: boot a deployment (optionally with
   mute/equivocating replicas), drive it with an in-process closed-loop
   client, and fail unless the run committed work with zero agreement
   violations and no duplicate application.

   `restart` is the durability gate: boot a durable n=4 deployment, drive it
   with a closed-loop client, crash one replica mid-load (WAL abandoned, no
   final fsync), restart it from its data dir, and fail unless it catches
   back up to the identical state digest with zero agreement violations,
   zero lost acknowledged commits and zero duplicate applies. *)

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

(* The smoke/restart/gauntlet workload: plain counter Adds, or — under
   --value-bytes N — Blob writes carrying an N-byte opaque payload that
   still apply as an increment of "k", so the duplicate-apply (overshoot)
   audit keeps reading the same counter. *)
let workload_of opts =
  if opts.value_bytes <= 0 then fun _ -> Sm.Add ("k", 1)
  else
    let payload = String.make opts.value_bytes 'x' in
    fun _ -> Sm.Blob ("k", payload)

(* Client port subset: --submit-to K connects the driving client to the
   first K replicas only, starving the rest of direct submissions so their
   content arrives over the dissemination lane (fetch or fragments). *)
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

module Run (L : PL.LANE) = struct
  module S = Dex_service.Server.Make (L)
  module G = Dex_shard.Group_set.Make (L)
  module Router = Dex_shard.Router

  let config_of opts =
    let pair = pair_of opts in
    S.config ~seed:opts.seed ~window:opts.window
      ~batch_delay:opts.batch_delay ~settle:opts.settle ~batch_cap:opts.batch_cap
      ~queue_cap:opts.queue_cap ?data_dir:opts.data_dir ~group_commit:opts.group_commit
      ~snapshot_every:opts.snapshot_every ~dissemination:opts.dissemination
      ~pair:(fun _ -> pair)
      ~n:opts.n ~t:opts.t ()

  let launch ?roles ?chaos opts =
    let roles = match roles with Some r -> r | None -> roles_of opts in
    S.launch ~roles ?chaos ~port_base:opts.port_base (config_of opts)

  (* Freeze a deployment for its audit: consensus first, then the
     replicas. A node thread still applying after its replica's WAL is
     closed would raise while holding the replica lock, and the audit's
     reads would then wait on that lock forever. *)
  let stop_all d =
    Dex_runtime.Cluster.shutdown d.S.cluster;
    List.iter (fun (_, s) -> S.stop s) d.S.servers

  (* A sharded deployment: [opts.shards] groups behind one shared runtime,
     every group getting the same role assignment unless overridden. *)
  let launch_set ?roles ?chaos opts =
    let map = Dex_shard.Shard_map.create ~shards:opts.shards () in
    let roles =
      match roles with Some r -> r | None -> fun ~shard:_ p -> roles_of opts p
    in
    G.launch ~roles ?chaos ~port_base:opts.port_base ~map (config_of opts)

  let print_ports d =
    List.iter
      (fun (p, port) -> Printf.printf "replica %d: 127.0.0.1:%d\n%!" p port)
      d.S.ports

  let print_stats d =
    List.iter
      (fun (p, s) -> Format.printf "replica %d: %a@." p S.pp_stats (S.stats s))
      d.S.servers

  (* The `--stats` heartbeat, read entirely off the unified metrics
     registries: every replica's registry (service/wal/durability families)
     merged with the deployment's transport registry (net family), one line
     per tick. Counters sum across replicas; [apply_lag] and the fsync
     group-size high-water mark are reported as the per-replica maximum. *)
  let stats_line d =
    let replica_snaps = List.map (fun (_, s) -> R.snapshot (S.metrics s)) d.S.servers in
    let merged = R.merge (R.snapshot d.S.net_metrics :: replica_snaps) in
    let max_over name =
      List.fold_left (fun acc snap -> max acc (R.get snap name)) 0 replica_snaps
    in
    let wal_part =
      if not (List.mem_assoc "wal/appends" merged) then "wal off"
      else
        Printf.sprintf "wal app=%d fsync=%d grp<=%d seg=%d %dKiB"
          (R.get merged "wal/appends") (R.get merged "wal/fsyncs")
          (max_over "wal/max_group") (R.get merged "wal/segments")
          (R.get merged "wal/bytes" / 1024)
    in
    (* Per-peer link counters ([net/<kind>/peer<pid>]), rendered only for
       peers with any activity so a healthy mesh keeps the line short. *)
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
    Printf.printf
      "[stats] slots=%d applied=%d busy=%d lag=%d | %s | %s | net reconn=%d backoff=%d \
       drop=%d%s%s\n%!"
      (R.get merged "service/committed_slots")
      (R.get merged "service/applied")
      (R.get merged "service/busy_rejections")
      (max_over "service/apply_lag") prov_part wal_part
      (R.get merged "net/reconnects")
      (R.get merged "net/backoffs")
      (R.get merged "net/drops") peer_part reactor_part

  let serve_one opts =
    let d = launch opts in
    Printf.printf
      "service up: n=%d t=%d protocol=%s pair=%s durability=%s dissemination=%s\n"
      opts.n opts.t L.name opts.pair_name
      (match opts.data_dir with Some dir -> dir | None -> "off")
      (Dex_erasure.Dissemination.to_string opts.dissemination);
    print_ports d;
    let heartbeat = if opts.stats_every > 0.0 then opts.stats_every else 10.0 in
    let report () = if opts.stats_every > 0.0 then stats_line d else print_stats d in
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
      print_stats d;
      S.shutdown d;
      `Ok ()
    end
    else begin
      (* Run until killed, with a periodic heartbeat. *)
      while true do
        Thread.delay heartbeat;
        report ()
      done;
      `Ok ()
    end

  let smoke_one opts =
    let d = launch opts in
    Printf.printf
      "smoke: n=%d t=%d protocol=%s pair=%s dissemination=%s value-bytes=%d mute=[%s] \
       equivocate=[%s]\n%!"
      opts.n opts.t L.name opts.pair_name
      (Dex_erasure.Dissemination.to_string opts.dissemination)
      opts.value_bytes
      (String.concat "," (List.map string_of_int opts.mute))
      (String.concat "," (List.map string_of_int opts.equivocate));
    let client =
      Dex_service.Client.connect ~client:1
        (submit_ports opts (List.map snd d.S.ports))
    in
    let report =
      Dex_service.Client.Load.run ~duration:opts.duration client (workload_of opts)
    in
    Format.printf "%a@." Dex_service.Client.Load.pp_report report;
    (* Let stragglers apply before inspecting replica state. *)
    Thread.delay 0.5;
    Dex_service.Client.close client;
    stop_all d;
    print_stats d;
    let compared, violations = S.agreement_violations d in
    let counter_of s = match List.assoc_opt "k" (S.state_snapshot s) with Some v -> v | None -> 0 in
    (* Duplicate application would overshoot the number of issued Adds. *)
    let overshoot =
      List.filter (fun (_, s) -> counter_of s > report.Dex_service.Client.Load.issued) d.S.servers
    in
    let committed = report.Dex_service.Client.Load.committed in
    (* Dissemination-lane counters, summed over replicas. In coded mode the
       decode-fallback count is gated: a bounded number is legal (races
       where a batch commits before its fragments land), but a fallback per
       slot means the lane never decodes and the mode is lying. *)
    let merged = R.merge (List.map (fun (_, s) -> R.snapshot (S.metrics s)) d.S.servers) in
    let fallbacks = R.get merged "erasure/decode_fallbacks" in
    Printf.printf
      "dissemination: fetch_rtts=%d fetch_bytes=%d frag_recv=%d decodes=%d \
       decode_failures=%d fallbacks=%d bytes_saved=%d\n%!"
      (R.get merged "service/fetch_rtts")
      (R.get merged "service/fetch_bytes")
      (R.get merged "erasure/frag_recv")
      (R.get merged "erasure/decodes")
      (R.get merged "erasure/decode_failures")
      fallbacks
      (R.get merged "erasure/bytes_saved");
    let fallback_bound = max 20 (committed / 10) in
    let coded = Dex_erasure.Dissemination.(equal opts.dissemination Coded) in
    Dex_runtime.Cluster.shutdown d.S.cluster;
    Printf.printf "agreement: %d multiply-committed slots compared, %d violations\n" compared
      (List.length violations);
    if committed = 0 then `Error (false, "smoke failed: no commits")
    else if violations <> [] then
      `Error (false, Printf.sprintf "smoke failed: %d agreement violations" (List.length violations))
    else if coded && fallbacks > fallback_bound then
      `Error
        ( false,
          Printf.sprintf
            "smoke failed: %d decode fallbacks > bound %d (coded lane not decoding)"
            fallbacks fallback_bound )
    else if overshoot <> [] then
      `Error
        ( false,
          String.concat ", "
            (List.map
               (fun (p, s) ->
                 Printf.sprintf "smoke failed: replica %d applied %d > issued %d (duplicate apply)"
                   p (counter_of s) report.Dex_service.Client.Load.issued)
               overshoot) )
    else begin
      Printf.printf "smoke OK: %d ops committed, agreement clean, no duplicate applies\n"
        committed;
      `Ok ()
    end

  let restart_one opts =
    let data_dir =
      match opts.data_dir with
      | Some dir -> dir
      | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "dex-restart-%d" (Unix.getpid ()))
    in
    let opts = { opts with data_dir = Some data_dir } in
    if opts.kill < 0 || opts.kill >= opts.n then failwith "restart: --kill pid out of range";
    if List.mem opts.kill opts.mute || List.mem opts.kill opts.equivocate then
      failwith "restart: --kill must name a correct replica";
    let d = launch opts in
    Printf.printf
      "restart smoke: n=%d t=%d protocol=%s pair=%s data-dir=%s kill=%d down=%.1fs duration=%.1fs\n%!"
      opts.n opts.t L.name opts.pair_name data_dir opts.kill opts.down opts.duration;
    let report = ref None in
    let loader =
      Thread.create
        (fun () ->
          let client =
            Dex_service.Client.connect ~client:1 (List.map snd d.S.ports)
          in
          report := Some (Dex_service.Client.Load.run ~duration:opts.duration client
                            (workload_of opts));
          Dex_service.Client.close client)
        ()
    in
    (* Crash mid-load, restart after [down] seconds of missed slots. *)
    Thread.delay (opts.duration /. 3.0);
    S.kill_replica d opts.kill;
    Printf.printf "killed replica %d (WAL abandoned mid-flight)\n%!" opts.kill;
    Thread.delay opts.down;
    let restarted = S.restart_replica d opts.kill in
    let at_restart = S.stats restarted in
    Printf.printf "restarted replica %d: replayed %d slots from disk, catching up from slot %d\n%!"
      opts.kill at_restart.S.recovered_slots (S.apply_frontier restarted);
    Thread.join loader;
    let report =
      match !report with Some r -> r | None -> failwith "restart: load thread died"
    in
    Format.printf "%a@." Dex_service.Client.Load.pp_report report;
    (* Convergence: every live replica (the restarted one included) must
       settle on the same state digest. *)
    let deadline = Unix.gettimeofday () +. 20.0 in
    let converged () =
      (not (S.catching_up restarted))
      &&
      match List.map (fun (_, s) -> S.state_digest s) d.S.servers with
      | [] -> false
      | digest :: rest -> List.for_all (fun dx -> dx = digest) rest
    in
    while (not (converged ())) && Unix.gettimeofday () < deadline do
      Thread.delay 0.1
    done;
    let did_converge = converged () in
    stop_all d;
    print_stats d;
    let rstats = S.stats restarted in
    (* The gate's recovery report reads the unified registry: the restarted
       replica's service/durability families plus the deployment-wide net
       family (its reconnect shows up there). *)
    let reg = R.merge [ R.snapshot (S.metrics restarted); R.snapshot d.S.net_metrics ] in
    Printf.printf
      "recovery: replayed=%d catchup=%d state-transfers=%d snapshots=%d | net reconn=%d\n%!"
      (R.get reg "service/recovered_slots")
      (R.get reg "service/catchup_installed")
      (R.get reg "service/state_transfers")
      (R.get reg "durability/snapshots")
      (R.get reg "net/reconnects");
    let compared, violations = S.agreement_violations d in
    Printf.printf "agreement: %d multiply-committed slots compared, %d violations\n%!" compared
      (List.length violations);
    let committed = report.Dex_service.Client.Load.committed in
    let issued = report.Dex_service.Client.Load.issued in
    let counter_of s =
      match List.assoc_opt "k" (S.state_snapshot s) with Some v -> v | None -> 0
    in
    (* Every acknowledged commit is a distinct rid applied exactly once, so
       each live replica's counter must cover all acked ops (no lost acks)
       without exceeding what was issued (no duplicate applies). *)
    let lost =
      List.filter (fun (_, s) -> counter_of s < committed) d.S.servers
    in
    let overshoot = List.filter (fun (_, s) -> counter_of s > issued) d.S.servers in
    Dex_runtime.Cluster.shutdown d.S.cluster;
    if committed = 0 then `Error (false, "restart smoke failed: no commits")
    else if violations <> [] then
      `Error
        (false, Printf.sprintf "restart smoke failed: %d agreement violations" (List.length violations))
    else if not did_converge then
      `Error
        ( false,
          Printf.sprintf "restart smoke failed: replica %d did not converge within 20s"
            opts.kill )
    else if lost <> [] then
      `Error
        ( false,
          String.concat ", "
            (List.map
               (fun (p, s) ->
                 Printf.sprintf
                   "restart smoke failed: replica %d applied %d < %d acked commits (lost acks)"
                   p (counter_of s) committed)
               lost) )
    else if overshoot <> [] then
      `Error
        ( false,
          String.concat ", "
            (List.map
               (fun (p, s) ->
                 Printf.sprintf
                   "restart smoke failed: replica %d applied %d > issued %d (duplicate apply)"
                   p (counter_of s) issued)
               overshoot) )
    else begin
      Printf.printf
        "restart smoke OK: %d ops committed, replica %d recovered (replay %d + catchup %d + xfer %d), digests converged, no lost acks, no duplicate applies\n"
        committed opts.kill rstats.S.recovered_slots rstats.S.catchup_installed
        rstats.S.state_transfers;
      `Ok ()
    end

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
  let fast_fraction (r : Dex_service.Client.Load.report) =
    let count p =
      match p with
      | PL.One_step -> r.Dex_service.Client.Load.one_step
      | PL.Two_step -> r.Dex_service.Client.Load.two_step
      | PL.Underlying -> r.Dex_service.Client.Load.underlying
    in
    let decided = List.fold_left (fun acc p -> acc + count p) 0 PL.all_provenances in
    let fast =
      List.fold_left
        (fun acc p -> if L.fast_path p then acc + count p else acc)
        0 PL.all_provenances
    in
    if decided = 0 then 0.0 else float_of_int fast /. float_of_int decided

  let pp_phase label (r : Dex_service.Client.Load.report) =
    let lat =
      match r.Dex_service.Client.Load.latency with
      | Some s -> Printf.sprintf " p50=%.2fms p99=%.2fms" s.Dex_metrics.Stats.p50 s.p99
      | None -> ""
    in
    Printf.printf
      "[%s] committed=%d failed=%d fast-path=%.1f%% (1s=%d 2s=%d und=%d)%s thrpt=%.0f/s\n%!"
      label r.Dex_service.Client.Load.committed r.failed
      (100.0 *. fast_fraction r)
      r.Dex_service.Client.Load.one_step r.two_step r.underlying lat r.throughput

  (* One load phase: launch (optionally chaos-wrapped), drive a closed-loop
     client for the full duration while the plan's storm/churn schedule is
     executed on a side thread, then stop, audit (agreement + duplicate
     applies) and tear down. *)
  let drive_phase opts ~roles ~chaos ~data_dir =
    let opts = { opts with data_dir } in
    let d = launch ~roles ?chaos opts in
    let sched_err = ref None in
    let scheduler =
      match chaos with
      | None -> None
      | Some _ ->
        Some
          (Thread.create
             (fun () ->
               try S.run_chaos_schedule d
               with e -> sched_err := Some (Printexc.to_string e))
             ())
    in
    let client =
      Dex_service.Client.connect ~client:1 (List.map snd d.S.ports)
    in
    let report =
      Dex_service.Client.Load.run ~duration:opts.duration client (workload_of opts)
    in
    Dex_service.Client.close client;
    Option.iter Thread.join scheduler;
    (* Stragglers settle under honest behaviour: a plan may end mid-churn. *)
    List.iter (fun (_, cell) -> cell := Dex_net.Adversary.Churn_honest) d.S.churn_cells;
    Thread.delay 0.5;
    stop_all d;
    let compared, violations = S.agreement_violations d in
    let counter_of s =
      match List.assoc_opt "k" (S.state_snapshot s) with Some v -> v | None -> 0
    in
    let overshoot =
      List.filter
        (fun (_, s) -> counter_of s > report.Dex_service.Client.Load.issued)
        d.S.servers
    in
    (report, compared, violations, overshoot, !sched_err)

  let gauntlet_one opts =
    let spec =
      match opts.chaos_plan with
      | Some file -> FP.load ~file
      | None -> builtin_gauntlet_spec opts
    in
    (match FP.validate ~n:opts.n ~t:opts.t spec with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "gauntlet: invalid fault plan: %s" e));
    let churn_pids =
      List.sort_uniq compare (List.map (fun e -> e.FP.c_pid) spec.FP.churn)
    in
    let storm_pids =
      List.sort_uniq compare (List.map (fun e -> e.FP.s_pid) spec.FP.storm)
    in
    (match List.filter (fun p -> List.mem p churn_pids) storm_pids with
    | [] -> ()
    | clash ->
      failwith
        (Printf.sprintf
           "gauntlet: pids %s appear in both storm and churn schedules — a restarted \
            replica loses its churn wrapper"
           (String.concat "," (List.map string_of_int clash))));
    let roles p = if List.mem p churn_pids then Dex_service.Server.Churn else roles_of opts p in
    (* Crash-restart recovers from disk: default to a scratch data dir. *)
    let base_dir =
      match opts.data_dir with
      | Some dir -> dir
      | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "dex-gauntlet-%d" (Unix.getpid ()))
    in
    Printf.printf
      "gauntlet: n=%d t=%d protocol=%s pair=%s dissemination=%s duration=%.1fs plan=%s (%d \
       rules, %d cuts, %d storm, %d churn; seed %d)\n%!"
      opts.n opts.t L.name opts.pair_name
      (Dex_erasure.Dissemination.to_string opts.dissemination)
      opts.duration
      (match opts.chaos_plan with Some f -> f | None -> "builtin")
      (List.length spec.FP.rules) (List.length spec.FP.cuts) (List.length spec.FP.storm)
      (List.length spec.FP.churn) spec.FP.seed;
    (* Clean baseline first: same config, same load, no faults — the
       reference one-step fraction and latency profile. *)
    let base_report, base_compared, base_viol, base_over, _ =
      drive_phase opts
        ~roles:(fun _ -> Dex_service.Server.Correct)
        ~chaos:None
        ~data_dir:(Some (Filename.concat base_dir "baseline"))
    in
    pp_phase "baseline" base_report;
    let chaos_reg = R.create () in
    let plan = FP.make ~metrics:chaos_reg spec in
    let report, compared, violations, overshoot, sched_err =
      drive_phase opts ~roles ~chaos:(Some plan)
        ~data_dir:(Some (Filename.concat base_dir "chaos"))
    in
    pp_phase "chaos" report;
    Printf.printf "[chaos] injected: %s\n%!"
      (Format.asprintf "%a" FP.pp_counts (FP.counts plan));
    Printf.printf
      "agreement: baseline %d slots compared (%d violations), chaos %d slots compared (%d \
       violations)\n%!"
      base_compared (List.length base_viol) compared (List.length violations);
    let base_frac = fast_fraction base_report and chaos_frac = fast_fraction report in
    Printf.printf "fast-path fraction: baseline %.1f%% -> chaos %.1f%%\n%!"
      (100.0 *. base_frac) (100.0 *. chaos_frac);
    let committed = report.Dex_service.Client.Load.committed in
    if base_report.Dex_service.Client.Load.committed = 0 then
      `Error (false, "gauntlet failed: baseline committed nothing")
    else if committed = 0 then `Error (false, "gauntlet failed: no commits under chaos")
    else if base_viol <> [] || violations <> [] then
      `Error
        ( false,
          Printf.sprintf "gauntlet failed: %d agreement violations"
            (List.length base_viol + List.length violations) )
    else if base_over <> [] || overshoot <> [] then
      `Error
        ( false,
          Printf.sprintf "gauntlet failed: %d replicas overshot issued ops (duplicate apply)"
            (List.length base_over + List.length overshoot) )
    else if sched_err <> None then
      `Error
        (false, Printf.sprintf "gauntlet failed: schedule driver: %s" (Option.get sched_err))
    else begin
      Printf.printf
        "gauntlet OK: survived %d committed ops under chaos, agreement clean, no duplicate \
         applies\n"
        committed;
      `Ok ()
    end

  (* --------------------------- sharded variants --------------------------- *)

  (* `--shards N` (N > 1) lifts every command over a {!G.t} group set: the
     same gates as the single-group lane, applied per shard, plus the
     router's own invariants (zero misroutes, every shard takes work). *)

  let print_ports_set g =
    Array.iteri
      (fun i d ->
        List.iter
          (fun (p, port) -> Printf.printf "shard %d replica %d: 127.0.0.1:%d\n%!" i p port)
          d.S.ports)
      (G.deployments g)

  let print_stats_set g =
    Array.iteri
      (fun i d ->
        List.iter
          (fun (p, s) -> Format.printf "shard %d replica %d: %a@." i p S.pp_stats (S.stats s))
          d.S.servers)
      (G.deployments g)

  (* The sharded `--stats` heartbeat off {!G.snapshot}: per-shard service
     totals under their [shard<i>/] prefixes, then the shared mesh's
     unprefixed [net/*] family. *)
  let stats_line_set g =
    let snap = G.snapshot g in
    let shard_part i =
      let get name = R.get snap (Printf.sprintf "shard%d/%s" i name) in
      let wal =
        if not (List.mem_assoc (Printf.sprintf "shard%d/wal/appends" i) snap) then ""
        else Printf.sprintf " wal=%d" (get "wal/appends")
      in
      Printf.sprintf "s%d slots=%d applied=%d busy=%d%s" i
        (get "service/committed_slots")
        (get "service/applied")
        (get "service/busy_rejections")
        wal
    in
    let parts = List.init (G.shard_count g) shard_part in
    Printf.printf "[stats] %s | net reconn=%d backoff=%d drop=%d\n%!"
      (String.concat " | " parts) (R.get snap "net/reconnects") (R.get snap "net/backoffs")
      (R.get snap "net/drops")

  let counter_of_s s =
    match List.assoc_opt "k" (S.state_snapshot s) with Some v -> v | None -> 0

  (* Per-shard audit: each group's agreement invariant, and no replica of
     shard [i] applying more Adds than the router routed to shard [i]. *)
  let audit_set g (report : Router.Load.report) =
    let viols = G.agreement_violations g in
    let overshoot = ref [] in
    Array.iteri
      (fun i d ->
        let issued = report.Router.Load.per_shard.(i).Router.Load.s_issued in
        List.iter
          (fun (p, s) ->
            if counter_of_s s > issued then
              overshoot := (i, p, counter_of_s s, issued) :: !overshoot)
          d.S.servers)
      (G.deployments g);
    (viols, List.rev !overshoot)

  let total_viol vs = Array.fold_left (fun acc (_, v) -> acc + List.length v) 0 vs

  let print_agreement_set ?(tag = "") viols =
    Array.iteri
      (fun i (compared, violations) ->
        Printf.printf
          "%sshard %d agreement: %d multiply-committed slots compared, %d violations\n%!" tag i
          compared (List.length violations))
      viols

  let pp_overshoot_set tag overshoot =
    String.concat ", "
      (List.map
         (fun (i, p, got, issued) ->
           Printf.sprintf "%s: shard %d replica %d applied %d > issued %d (duplicate apply)"
             tag i p got issued)
         overshoot)

  let serve_set opts =
    let g = launch_set opts in
    Printf.printf "service up: n=%d t=%d shards=%d map=%s protocol=%s pair=%s durability=%s\n"
      opts.n opts.t opts.shards
      (Dex_shard.Shard_map.to_string (G.map g))
      L.name opts.pair_name
      (match opts.data_dir with
      | Some dir -> Filename.concat dir "shard-<i>"
      | None -> "off");
    print_ports_set g;
    let heartbeat = if opts.stats_every > 0.0 then opts.stats_every else 10.0 in
    let report () = if opts.stats_every > 0.0 then stats_line_set g else print_stats_set g in
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
      print_stats_set g;
      G.shutdown g;
      `Ok ()
    end
    else begin
      while true do
        Thread.delay heartbeat;
        report ()
      done;
      `Ok ()
    end

  let smoke_set opts =
    let g = launch_set opts in
    Printf.printf "smoke: n=%d t=%d shards=%d map=%s protocol=%s pair=%s mute=[%s] equivocate=[%s]\n%!"
      opts.n opts.t opts.shards
      (Dex_shard.Shard_map.to_string (G.map g))
      L.name opts.pair_name
      (String.concat "," (List.map string_of_int opts.mute))
      (String.concat "," (List.map string_of_int opts.equivocate));
    let router =
      Router.connect ~map:(G.map g) ~client:1
        (Array.to_list (G.ports g))
    in
    let report =
      Router.Load.run_many ~clients:(16 * opts.shards) ~duration:opts.duration router
        (fun _ -> Sm.Add ("k", 1))
    in
    Format.printf "%a@." Router.Load.pp_report report;
    (* Let stragglers apply before inspecting replica state. *)
    Thread.delay 0.5;
    Router.close router;
    Array.iter stop_all (G.deployments g);
    let viols, overshoot = audit_set g report in
    let empty_shards =
      List.filter
        (fun i -> report.Router.Load.per_shard.(i).Router.Load.s_committed = 0)
        (List.init opts.shards Fun.id)
    in
    G.shutdown g;
    print_agreement_set viols;
    let committed = report.Router.Load.agg.Dex_service.Client.Load.committed in
    if committed = 0 then `Error (false, "smoke failed: no commits")
    else if report.Router.Load.misroutes > 0 then
      `Error
        (false, Printf.sprintf "smoke failed: %d misrouted replies" report.Router.Load.misroutes)
    else if empty_shards <> [] then
      `Error
        ( false,
          Printf.sprintf "smoke failed: shards [%s] committed nothing"
            (String.concat "," (List.map string_of_int empty_shards)) )
    else if total_viol viols > 0 then
      `Error (false, Printf.sprintf "smoke failed: %d agreement violations" (total_viol viols))
    else if overshoot <> [] then `Error (false, pp_overshoot_set "smoke failed" overshoot)
    else begin
      Printf.printf
        "smoke OK: %d ops committed across %d shards, 0 misroutes, agreement clean on every \
         shard, no duplicate applies\n"
        committed opts.shards;
      `Ok ()
    end

  let restart_set opts =
    let data_dir =
      match opts.data_dir with
      | Some dir -> dir
      | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "dex-restart-shards-%d" (Unix.getpid ()))
    in
    let opts = { opts with data_dir = Some data_dir } in
    if opts.kill < 0 || opts.kill >= opts.n then failwith "restart: --kill pid out of range";
    if List.mem opts.kill opts.mute || List.mem opts.kill opts.equivocate then
      failwith "restart: --kill must name a correct replica";
    let g = launch_set opts in
    Printf.printf
      "restart smoke: n=%d t=%d shards=%d protocol=%s pair=%s data-dir=%s kill=shard0/%d \
       down=%.1fs duration=%.1fs\n%!"
      opts.n opts.t opts.shards L.name opts.pair_name data_dir opts.kill opts.down
      opts.duration;
    let report = ref None in
    let loader =
      Thread.create
        (fun () ->
          let router =
            Router.connect ~map:(G.map g) ~client:1
              (Array.to_list (G.ports g))
          in
          report :=
            Some
              (Router.Load.run_many ~clients:(16 * opts.shards) ~duration:opts.duration
                 router
                 (fun _ -> Sm.Add ("k", 1)));
          Router.close router)
        ()
    in
    (* Crash shard 0's replica mid-load: the crash and its recovery traffic
       must stay inside shard 0 — every other group keeps its own WAL root
       and keeps committing untouched. *)
    Thread.delay (opts.duration /. 3.0);
    G.kill_replica g ~shard:0 opts.kill;
    Printf.printf "killed shard 0 replica %d (WAL abandoned mid-flight)\n%!" opts.kill;
    Thread.delay opts.down;
    let restarted = G.restart_replica g ~shard:0 opts.kill in
    let at_restart = S.stats restarted in
    Printf.printf
      "restarted shard 0 replica %d: replayed %d slots from disk, catching up from slot %d\n%!"
      opts.kill at_restart.S.recovered_slots (S.apply_frontier restarted);
    Thread.join loader;
    let report =
      match !report with Some r -> r | None -> failwith "restart: load thread died"
    in
    Format.printf "%a@." Router.Load.pp_report report;
    let d0 = G.deployment g 0 in
    let deadline = Unix.gettimeofday () +. 20.0 in
    let converged () =
      (not (S.catching_up restarted))
      &&
      match List.map (fun (_, s) -> S.state_digest s) d0.S.servers with
      | [] -> false
      | digest :: rest -> List.for_all (fun dx -> dx = digest) rest
    in
    while (not (converged ())) && Unix.gettimeofday () < deadline do
      Thread.delay 0.1
    done;
    let did_converge = converged () in
    Array.iter stop_all (G.deployments g);
    let reg = R.merge [ R.snapshot (S.metrics restarted); R.snapshot d0.S.net_metrics ] in
    Printf.printf
      "recovery: replayed=%d catchup=%d state-transfers=%d snapshots=%d | net reconn=%d\n%!"
      (R.get reg "service/recovered_slots")
      (R.get reg "service/catchup_installed")
      (R.get reg "service/state_transfers")
      (R.get reg "durability/snapshots")
      (R.get reg "net/reconnects");
    let viols, overshoot = audit_set g report in
    (* Shard 0's acked commits must survive the crash on every shard-0
       replica, the restarted one included. *)
    let committed0 = report.Router.Load.per_shard.(0).Router.Load.s_committed in
    let lost = List.filter (fun (_, s) -> counter_of_s s < committed0) d0.S.servers in
    G.shutdown g;
    print_agreement_set viols;
    let committed = report.Router.Load.agg.Dex_service.Client.Load.committed in
    if committed = 0 then `Error (false, "restart smoke failed: no commits")
    else if report.Router.Load.misroutes > 0 then
      `Error
        ( false,
          Printf.sprintf "restart smoke failed: %d misrouted replies"
            report.Router.Load.misroutes )
    else if total_viol viols > 0 then
      `Error
        ( false,
          Printf.sprintf "restart smoke failed: %d agreement violations" (total_viol viols) )
    else if not did_converge then
      `Error
        ( false,
          Printf.sprintf "restart smoke failed: shard 0 replica %d did not converge within 20s"
            opts.kill )
    else if lost <> [] then
      `Error
        ( false,
          String.concat ", "
            (List.map
               (fun (p, s) ->
                 Printf.sprintf
                   "restart smoke failed: shard 0 replica %d applied %d < %d acked commits \
                    (lost acks)"
                   p (counter_of_s s) committed0)
               lost) )
    else if overshoot <> [] then
      `Error (false, pp_overshoot_set "restart smoke failed" overshoot)
    else begin
      let rstats = S.stats restarted in
      Printf.printf
        "restart smoke OK: %d ops committed across %d shards, shard 0 replica %d recovered \
         (replay %d + catchup %d + xfer %d), digests converged, no lost acks, no duplicate \
         applies\n"
        committed opts.shards opts.kill rstats.S.recovered_slots rstats.S.catchup_installed
        rstats.S.state_transfers;
      `Ok ()
    end

  (* One sharded load phase: the fault plan (if any) fronts shard 0's
     transport view only; the load covers every shard through the router. *)
  let drive_phase_set opts ~roles ~chaos ~data_dir =
    let opts = { opts with data_dir } in
    let g = launch_set ~roles ?chaos:(Option.map (fun p -> (0, p)) chaos) opts in
    let sched_err = ref None in
    let scheduler =
      match chaos with
      | None -> None
      | Some _ ->
        Some
          (Thread.create
             (fun () ->
               try G.run_chaos_schedule g
               with e -> sched_err := Some (Printexc.to_string e))
             ())
    in
    let router =
      Router.connect ~map:(G.map g) ~client:1
        (Array.to_list (G.ports g))
    in
    let report =
      Router.Load.run_many ~clients:(16 * opts.shards) ~duration:opts.duration router
        (fun _ -> Sm.Add ("k", 1))
    in
    Router.close router;
    Option.iter Thread.join scheduler;
    Array.iter
      (fun d ->
        List.iter (fun (_, cell) -> cell := Dex_net.Adversary.Churn_honest) d.S.churn_cells)
      (G.deployments g);
    Thread.delay 0.5;
    Array.iter stop_all (G.deployments g);
    let viols, overshoot = audit_set g report in
    G.shutdown g;
    (report, viols, overshoot, !sched_err)

  let gauntlet_set opts =
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
           (String.concat "," (List.map string_of_int clash))));
    (* The whole plan lands on shard 0 — its links, its storm, its churn.
       Shards 1..k-1 run clean, and the blast-radius gate below holds them
       to keep committing throughout. *)
    let roles ~shard p =
      if shard = 0 && List.mem p churn_pids then Dex_service.Server.Churn else roles_of opts p
    in
    let base_dir =
      match opts.data_dir with
      | Some dir -> dir
      | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "dex-gauntlet-shards-%d" (Unix.getpid ()))
    in
    Printf.printf
      "gauntlet: n=%d t=%d shards=%d (chaos confined to shard 0) protocol=%s pair=%s \
       duration=%.1fs plan=%s (%d rules, %d cuts, %d storm, %d churn; seed %d)\n%!"
      opts.n opts.t opts.shards L.name opts.pair_name
      opts.duration
      (match opts.chaos_plan with Some f -> f | None -> "builtin")
      (List.length spec.FP.rules) (List.length spec.FP.cuts) (List.length spec.FP.storm)
      (List.length spec.FP.churn) spec.FP.seed;
    let base_report, base_viols, base_over, _ =
      drive_phase_set opts
        ~roles:(fun ~shard:_ _ -> Dex_service.Server.Correct)
        ~chaos:None
        ~data_dir:(Some (Filename.concat base_dir "baseline"))
    in
    pp_phase "baseline" base_report.Router.Load.agg;
    let chaos_reg = R.create () in
    let plan = FP.make ~metrics:chaos_reg spec in
    let report, viols, overshoot, sched_err =
      drive_phase_set opts ~roles ~chaos:(Some plan)
        ~data_dir:(Some (Filename.concat base_dir "chaos"))
    in
    pp_phase "chaos" report.Router.Load.agg;
    Printf.printf "[chaos] injected: %s\n%!"
      (Format.asprintf "%a" FP.pp_counts (FP.counts plan));
    Array.iteri
      (fun i st ->
        Printf.printf "shard %d under chaos: issued=%d committed=%d%s\n%!" i
          st.Router.Load.s_issued st.Router.Load.s_committed
          (if i = 0 then " (chaos target)" else ""))
      report.Router.Load.per_shard;
    print_agreement_set ~tag:"[baseline] " base_viols;
    print_agreement_set ~tag:"[chaos] " viols;
    let base_frac = fast_fraction base_report.Router.Load.agg in
    let chaos_frac = fast_fraction report.Router.Load.agg in
    Printf.printf "fast-path fraction: baseline %.1f%% -> chaos %.1f%%\n%!"
      (100.0 *. base_frac) (100.0 *. chaos_frac);
    (* Blast radius: chaos was injected into shard 0 only, so every healthy
       shard must have kept committing for the whole phase. *)
    let dead_healthy =
      List.filter
        (fun i -> report.Router.Load.per_shard.(i).Router.Load.s_committed = 0)
        (List.tl (List.init opts.shards Fun.id))
    in
    let committed = report.Router.Load.agg.Dex_service.Client.Load.committed in
    if base_report.Router.Load.agg.Dex_service.Client.Load.committed = 0 then
      `Error (false, "gauntlet failed: baseline committed nothing")
    else if committed = 0 then `Error (false, "gauntlet failed: no commits under chaos")
    else if base_report.Router.Load.misroutes > 0 || report.Router.Load.misroutes > 0 then
      `Error
        ( false,
          Printf.sprintf "gauntlet failed: %d misrouted replies"
            (base_report.Router.Load.misroutes + report.Router.Load.misroutes) )
    else if total_viol base_viols > 0 || total_viol viols > 0 then
      `Error
        ( false,
          Printf.sprintf "gauntlet failed: %d agreement violations"
            (total_viol base_viols + total_viol viols) )
    else if base_over <> [] || overshoot <> [] then
      `Error
        ( false,
          Printf.sprintf "gauntlet failed: %d replicas overshot issued ops (duplicate apply)"
            (List.length base_over + List.length overshoot) )
    else if dead_healthy <> [] then
      `Error
        ( false,
          Printf.sprintf
            "gauntlet failed: healthy shards [%s] committed nothing while shard 0 took the \
             chaos (blast radius escaped)"
            (String.concat "," (List.map string_of_int dead_healthy)) )
    else if sched_err <> None then
      `Error
        (false, Printf.sprintf "gauntlet failed: schedule driver: %s" (Option.get sched_err))
    else begin
      Printf.printf
        "gauntlet OK: %d ops committed with chaos confined to shard 0; every healthy shard \
         kept committing, agreement clean on all shards, no duplicate applies\n"
        committed;
      `Ok ()
    end

  let serve opts = if opts.shards > 1 then serve_set opts else serve_one opts
  let smoke opts = if opts.shards > 1 then smoke_set opts else smoke_one opts
  let restart opts = if opts.shards > 1 then restart_set opts else restart_one opts
  let gauntlet opts = if opts.shards > 1 then gauntlet_set opts else gauntlet_one opts
end

module Run_dex_oracle = Run (Dex_core.Dex.Lane (Uc_oracle))
module Run_dex_leader = Run (Dex_core.Dex.Lane (Uc_leader))
module Run_kc_oracle = Run (Dex_baselines.Kuo_chen.Lane (Uc_oracle))
module Run_kc_leader = Run (Dex_baselines.Kuo_chen.Lane (Uc_leader))
module Run_hbft_oracle = Run (Dex_baselines.Hbft.Lane (Uc_oracle))
module Run_hbft_leader = Run (Dex_baselines.Hbft.Lane (Uc_leader))

type outcome = [ `Ok of unit | `Error of bool * string ]

(* One record of entry points per lane x uc instantiation, so subcommand
   dispatch is a value-level lookup over the six functor applications. *)
type runner = {
  r_serve : opts -> outcome;
  r_smoke : opts -> outcome;
  r_restart : opts -> outcome;
  r_gauntlet : opts -> outcome;
}

let guard f opts : outcome =
  try f opts with
  | Pair.Assumption_violated m -> `Error (false, m)
  | Failure m -> `Error (false, m)
  | Invalid_argument m -> `Error (false, m)

let runner_dex_oracle =
  { r_serve = guard Run_dex_oracle.serve; r_smoke = guard Run_dex_oracle.smoke;
    r_restart = guard Run_dex_oracle.restart; r_gauntlet = guard Run_dex_oracle.gauntlet }

let runner_dex_leader =
  { r_serve = guard Run_dex_leader.serve; r_smoke = guard Run_dex_leader.smoke;
    r_restart = guard Run_dex_leader.restart; r_gauntlet = guard Run_dex_leader.gauntlet }

let runner_kc_oracle =
  { r_serve = guard Run_kc_oracle.serve; r_smoke = guard Run_kc_oracle.smoke;
    r_restart = guard Run_kc_oracle.restart; r_gauntlet = guard Run_kc_oracle.gauntlet }

let runner_kc_leader =
  { r_serve = guard Run_kc_leader.serve; r_smoke = guard Run_kc_leader.smoke;
    r_restart = guard Run_kc_leader.restart; r_gauntlet = guard Run_kc_leader.gauntlet }

let runner_hbft_oracle =
  { r_serve = guard Run_hbft_oracle.serve; r_smoke = guard Run_hbft_oracle.smoke;
    r_restart = guard Run_hbft_oracle.restart; r_gauntlet = guard Run_hbft_oracle.gauntlet }

let runner_hbft_leader =
  { r_serve = guard Run_hbft_leader.serve; r_smoke = guard Run_hbft_leader.smoke;
    r_restart = guard Run_hbft_leader.restart; r_gauntlet = guard Run_hbft_leader.gauntlet }

let dispatch sel uc protocol opts : unit Term.ret =
  match (PL.id_of_string protocol, uc) with
  | None, _ ->
    `Error
      (false, Printf.sprintf "unknown protocol %S (use dex, two-step or hbft)" protocol)
  | Some id, ("oracle" | "leader") ->
    if String.equal uc "leader" then
      (* Round timeouts in seconds on the thread runtime. *)
      Uc_leader.timeout_base := 0.25;
    let r =
      match (id, uc) with
      | PL.Dex, "oracle" -> runner_dex_oracle
      | PL.Dex, _ -> runner_dex_leader
      | PL.Kuo_chen, "oracle" -> runner_kc_oracle
      | PL.Kuo_chen, _ -> runner_kc_leader
      | PL.Hbft, "oracle" -> runner_hbft_oracle
      | PL.Hbft, _ -> runner_hbft_leader
    in
    (sel r opts :> unit Term.ret)
  | _, other -> `Error (false, Printf.sprintf "unknown uc %S (use oracle or leader)" other)

(* ----------------------------- options ----------------------------- *)

let pid_list_t names doc =
  let conv_pids =
    let parse s =
      if String.trim s = "" then Ok []
      else
        try Ok (List.map int_of_string (String.split_on_char ',' s))
        with Failure _ -> Error (`Msg "expected a comma-separated pid list")
    in
    Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (String.concat "," (List.map string_of_int l)))
  in
  Arg.(value & opt conv_pids [] & info names ~doc)

let opts_t ~default_n ~default_t ~default_duration ~default_mute =
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
             $(docv)/replica-<pid>, persist-before-reply, recovery on restart.")
  in
  let stats_every_t =
    Arg.(
      value & opt float 0.0
      & info [ "stats" ]
          ~doc:"Print a one-line service/WAL/link counter report every $(docv) seconds.")
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
             fronted by a shard router. Roles (--mute/--equivocate) apply within every \
             group; gauntlet chaos is confined to shard 0.")
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
    let mute =
      match default_mute with
      | Some default when mute = [] && equivocate = [] -> default
      | _ -> mute
    in
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

let serve_cmd =
  let action uc protocol opts = dispatch (fun r -> r.r_serve) uc protocol opts in
  let term =
    Term.(
      ret
        (const action $ uc_t $ protocol_t
        $ opts_t ~default_n:4 ~default_t:0 ~default_duration:0.0 ~default_mute:None))
  in
  Cmd.v
    (Cmd.info "serve" ~man:flags_man
       ~doc:"Boot an n-replica loopback KV service and print client ports.")
    term

let smoke_cmd =
  let action uc protocol opts = dispatch (fun r -> r.r_smoke) uc protocol opts in
  let term =
    Term.(
      ret
        (const action $ uc_t $ protocol_t
        $ opts_t ~default_n:7 ~default_t:1 ~default_duration:5.0 ~default_mute:(Some [ 6 ])))
  in
  Cmd.v
    (Cmd.info "smoke" ~man:flags_man
       ~doc:
         "CI gate: boot a deployment (default: n=7 t=1, replica 6 mute), drive it with a \
          closed-loop client, and fail on zero commits, agreement violations, or duplicate \
          application.")
    term

let restart_cmd =
  let action uc protocol opts = dispatch (fun r -> r.r_restart) uc protocol opts in
  let term =
    Term.(
      ret
        (const action $ uc_t $ protocol_t
        $ opts_t ~default_n:4 ~default_t:0 ~default_duration:9.0 ~default_mute:None))
  in
  Cmd.v
    (Cmd.info "restart" ~man:flags_man
       ~doc:
         "Durability gate: boot a durable deployment (default n=4 t=0), crash replica \
          --kill mid-load (WAL abandoned), restart it after --down seconds, and fail \
          unless it recovers, catches up to identical state, and the run shows zero \
          agreement violations, zero lost acknowledged commits and zero duplicate \
          applies.")
    term

let gauntlet_cmd =
  let action uc protocol opts = dispatch (fun r -> r.r_gauntlet) uc protocol opts in
  let term =
    Term.(
      ret
        (const action $ uc_t $ protocol_t
        $ opts_t ~default_n:7 ~default_t:1 ~default_duration:12.0 ~default_mute:None))
  in
  Cmd.v
    (Cmd.info "gauntlet" ~man:flags_man
       ~doc:
         "Chaos gate: run a clean baseline, then replay a deterministic fault plan — link \
          noise, a healing partition, a kill/restart storm and a Byzantine churn burst \
          (built-in script, or --chaos-plan FILE) — against a live deployment under \
          closed-loop load. Reports the one-step fraction and latency against the \
          baseline; fails on zero commits, agreement violations, duplicate applies, or a \
          schedule that cannot be driven.")
    term

let () =
  let info =
    Cmd.info "dex_server" ~version:"1.0.0"
      ~doc:"Replicated key-value service over the DEX log — server and CI smoke."
  in
  exit (Cmd.eval (Cmd.group info [ serve_cmd; smoke_cmd; restart_cmd; gauntlet_cmd ]))
