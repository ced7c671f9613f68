(* Chaos-lane tests: the deterministic fault-plan engine (plan-file
   round-trip, validation including the churn ≤t invariant, the
   same-seed-same-trace determinism regression, metrics integration), seeded
   live chaos rounds against real deployments (partitions
   with heal, reorder+delay+dup mixes, crash-restart storms, Byzantine
   churn — zero agreement violations, zero duplicate applies, one-step
   fraction stays above zero), the timer-tombstone crash/restart regression,
   and the model checker's worst-case schedule search. *)

open Dex_service
module FP = Dex_runtime.Fault_plan
module R = Dex_metrics.Registry
module S = Server.Make (Dex_core.Dex.Lane (Dex_underlying.Uc_oracle))
module Sm = State_machine
module Model = Dex_mcheck.Dex_model
module Checker = Dex_mcheck.Checker
module Exec = Dex_mcheck.Exec

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --------------------------- fault plans --------------------------- *)

let rich_spec =
  {
    FP.seed = 42;
    rules =
      [
        (FP.All, { FP.drop = 0.05; dup = 0.02; reorder = 0.1; delay = 0.001; jitter = 0.002 });
        (FP.Link (0, 3), { FP.clean_rule with delay = 0.005 });
        (FP.From 2, { FP.clean_rule with drop = 0.2 });
        (FP.To 4, { FP.clean_rule with dup = 0.5 });
      ];
    cuts =
      [
        { FP.cut_a = [ 0; 1 ]; cut_b = [ 2; 3; 4; 5; 6 ]; symmetric = true; from_s = 1.0; until_s = 2.0 };
        { FP.cut_a = [ 0 ]; cut_b = [ 3 ]; symmetric = false; from_s = 2.5; until_s = 3.0 };
      ];
    storm =
      [
        { FP.s_at = 1.0; s_pid = 2; s_action = FP.Kill };
        { FP.s_at = 2.0; s_pid = 2; s_action = FP.Restart };
      ];
    churn =
      [
        { FP.c_at = 1.0; c_pid = 3; c_mode = FP.Churn_mute };
        { FP.c_at = 2.0; c_pid = 3; c_mode = FP.Churn_honest };
        { FP.c_at = 2.5; c_pid = 3; c_mode = FP.Churn_equiv };
        { FP.c_at = 3.0; c_pid = 3; c_mode = FP.Churn_honest };
      ];
  }

let test_plan_roundtrip () =
  (match FP.validate ~n:7 ~t:1 rich_spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rich spec rejected: %s" e);
  let reparsed = FP.of_string (FP.to_string rich_spec) in
  Alcotest.(check bool) "spec round-trips through the plan text" true (reparsed = rich_spec);
  (* And the round-trip is a fixpoint. *)
  Alcotest.(check string) "printing is stable" (FP.to_string rich_spec)
    (FP.to_string reparsed)

let test_validate_rejects () =
  let expect_error what spec =
    match FP.validate ~n:7 ~t:1 spec with
    | Ok () -> Alcotest.failf "%s: expected rejection" what
    | Error _ -> ()
  in
  expect_error "pid out of range"
    { FP.empty_spec with rules = [ (FP.From 7, FP.clean_rule) ] };
  expect_error "probability out of range"
    { FP.empty_spec with rules = [ (FP.All, { FP.clean_rule with drop = 1.5 }) ] };
  expect_error "negative delay"
    { FP.empty_spec with rules = [ (FP.All, { FP.clean_rule with delay = -1.0 }) ] };
  expect_error "inverted cut window"
    {
      FP.empty_spec with
      cuts =
        [ { FP.cut_a = [ 0 ]; cut_b = [ 1 ]; symmetric = true; from_s = 2.0; until_s = 1.0 } ];
    };
  expect_error "storm restart without kill"
    { FP.empty_spec with storm = [ { FP.s_at = 1.0; s_pid = 2; s_action = FP.Restart } ] }

let test_churn_beyond_t_rejected () =
  (* Two replicas Byzantine at once under t=1: the sweep must reject with a
     message naming the invariant, not silently launch an >t adversary. *)
  let spec =
    {
      FP.empty_spec with
      churn =
        [
          { FP.c_at = 0.1; c_pid = 3; c_mode = FP.Churn_mute };
          { FP.c_at = 0.2; c_pid = 4; c_mode = FP.Churn_equiv };
        ];
    }
  in
  match FP.validate ~n:7 ~t:1 spec with
  | Ok () -> Alcotest.fail "churn schedule with 2 concurrent Byzantine accepted at t=1"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error names the invariant (%s)" msg)
      true
      (has_prefix ~prefix:"churn schedule exceeds t=1" msg);
    (* The same schedule is fine once the first replica turns honest again. *)
    let healed =
      {
        spec with
        FP.churn =
          spec.FP.churn
          @ [ { FP.c_at = 0.15; c_pid = 3; c_mode = FP.Churn_honest } ];
      }
    in
    (match FP.validate ~n:7 ~t:1 healed with
    | Ok () -> ()
    | Error e -> Alcotest.failf "healed schedule rejected: %s" e)

(* Script the same decide calls against a plan: a fixed grid of plan-relative
   times and links, covering the cut window. *)
let scripted_decisions plan =
  let out = ref [] in
  for k = 0 to 199 do
    let now = 0.02 *. float k in
    for src = 0 to 3 do
      for dst = 0 to 3 do
        if src <> dst then out := FP.decide plan ~now ~src ~dst :: !out
      done
    done
  done;
  List.rev !out

let noisy_spec seed =
  {
    FP.empty_spec with
    seed;
    rules =
      [ (FP.All, { FP.drop = 0.2; dup = 0.2; reorder = 0.2; delay = 0.001; jitter = 0.002 }) ];
    cuts =
      [ { FP.cut_a = [ 0 ]; cut_b = [ 1 ]; symmetric = false; from_s = 1.0; until_s = 2.0 } ];
  }

let test_same_seed_same_trace () =
  (* The determinism regression: two engines over the same spec, the same
     scripted sends — identical verdicts and an identical injected-event
     trace, link by link. This is what makes chaos failures replayable. *)
  let a = FP.make (noisy_spec 7) and b = FP.make (noisy_spec 7) in
  let da = scripted_decisions a and db = scripted_decisions b in
  Alcotest.(check bool) "identical decisions" true (da = db);
  Alcotest.(check bool) "identical per-link traces" true
    (FP.trace_by_link a = FP.trace_by_link b);
  (* And the trace is non-trivial: at these rates the grid must inject. *)
  Alcotest.(check bool) "events were injected" true (List.length (FP.trace a) > 100);
  (* A different seed diverges (with overwhelming probability at 2400
     draws). *)
  let c = FP.make (noisy_spec 8) in
  let dc = scripted_decisions c in
  Alcotest.(check bool) "different seed, different trace" true (dc <> da)

let test_counts_and_metrics () =
  let reg = R.create () in
  let plan = FP.make ~metrics:reg (noisy_spec 3) in
  let n_calls = List.length (scripted_decisions plan) in
  let counts = FP.counts plan in
  Alcotest.(check int) "every send consulted" n_calls counts.FP.sent;
  (* Each trace event carries exactly one kind; under the trace cap the
     per-kind counters tally the trace. *)
  let tally kind =
    List.length (List.filter (fun e -> e.FP.e_kind = kind) (FP.trace plan))
  in
  Alcotest.(check int) "drops counted" (tally FP.Dropped) counts.FP.dropped;
  Alcotest.(check int) "dups counted" (tally FP.Duplicated) counts.FP.duplicated;
  Alcotest.(check int) "delays counted" (tally FP.Delayed) counts.FP.delayed;
  Alcotest.(check int) "reorders counted" (tally FP.Reordered) counts.FP.reordered;
  Alcotest.(check int) "cut drops counted" (tally FP.Cut_drop) counts.FP.cut_dropped;
  (* The registry mirrors the counters. *)
  let snap = R.snapshot reg in
  Alcotest.(check int) "chaos/sent in metrics" counts.FP.sent (R.get snap "chaos/sent");
  Alcotest.(check int) "chaos/drops in metrics" counts.FP.dropped (R.get snap "chaos/drops");
  Alcotest.(check int) "chaos/dups in metrics" counts.FP.duplicated (R.get snap "chaos/dups")

(* ------------------------ live chaos rounds ------------------------ *)

(* Real sockets, real threads, a real fault plan on the mesh: n=7 t=1 under
   P_freq (the gauntlet dimensions). Each round drives closed-loop client
   load while the plan's storm/churn schedule executes, then checks the
   chaos contract: progress, zero agreement violations, zero duplicate
   applies, and a one-step fraction that degrades without dying. *)

let freq7 = Dex_condition.Pair.freq ~n:7 ~t:1

let counter_of s =
  match List.assoc_opt "k" (S.state_snapshot s) with Some v -> v | None -> 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let round_duration = 0.6

let chaos_round ~roles ?data_dir spec =
  (match FP.validate ~n:7 ~t:1 spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid spec: %s" e);
  let cfg = S.config ?data_dir ~pair:(fun _ -> freq7) ~n:7 ~t:1 () in
  let d = S.launch ~roles ~chaos:(FP.make spec) cfg in
  Fun.protect ~finally:(fun () -> S.shutdown d) @@ fun () ->
  let sched_err = ref None in
  let scheduler =
    Thread.create
      (fun () ->
        try S.run_chaos_schedule d
        with e -> sched_err := Some (Printexc.to_string e))
      ()
  in
  let c = Client.connect ~client:1 (List.map snd d.S.ports) in
  let r = Client.Load.run ~duration:round_duration c (fun _ -> Sm.Add ("k", 1)) in
  Client.close c;
  Thread.join scheduler;
  (* Back to honest before the agreement sweep so in-flight slots settle. *)
  List.iter (fun (p, _) -> S.set_churn_mode d p Dex_net.Adversary.Churn_honest) d.S.churn_cells;
  Thread.delay 0.3;
  (match !sched_err with
  | Some e -> Alcotest.failf "chaos scheduler failed: %s" e
  | None -> ());
  let name fmt = Printf.sprintf ("seed %d: " ^^ fmt) spec.FP.seed in
  Alcotest.(check bool) (name "committed under chaos") true (r.Client.Load.committed > 0);
  Alcotest.(check bool)
    (name "one-step fraction stays above zero (%d of %d)" r.Client.Load.one_step
       r.Client.Load.committed)
    true (r.Client.Load.one_step > 0);
  let compared, violations = S.agreement_violations d in
  Alcotest.(check bool) (name "slots compared") true (compared > 0);
  Alcotest.(check int) (name "no agreement violations") 0 (List.length violations);
  List.iter
    (fun (p, s) ->
      Alcotest.(check bool)
        (name "replica %d no duplicate applies" p)
        true
        (counter_of s <= r.Client.Load.issued))
    d.S.servers

let all_correct _ = Server.Correct

let mild_noise = { FP.clean_rule with drop = 0.01; delay = 0.0005; jitter = 0.001 }

(* The four single-adversary mixes from the chaos gauntlet, scaled to the
   round duration. *)

let mix_partition seed =
  {
    FP.empty_spec with
    seed;
    rules = [ (FP.All, mild_noise) ];
    cuts =
      [
        {
          FP.cut_a = [ 0; 1 ];
          cut_b = [ 2; 3; 4; 5; 6 ];
          symmetric = true;
          from_s = 0.25 *. round_duration;
          until_s = 0.55 *. round_duration;
        };
      ];
  }

let mix_reorder seed =
  {
    FP.empty_spec with
    seed;
    rules =
      [ (FP.All, { FP.drop = 0.02; dup = 0.05; reorder = 0.25; delay = 0.002; jitter = 0.004 }) ];
  }

let mix_storm seed =
  {
    FP.empty_spec with
    seed;
    rules = [ (FP.All, mild_noise) ];
    storm =
      [
        { FP.s_at = 0.25 *. round_duration; s_pid = 2; s_action = FP.Kill };
        { FP.s_at = 0.6 *. round_duration; s_pid = 2; s_action = FP.Restart };
      ];
  }

let mix_churn seed =
  {
    FP.empty_spec with
    seed;
    rules = [ (FP.All, mild_noise) ];
    churn =
      [
        { FP.c_at = 0.15 *. round_duration; c_pid = 5; c_mode = FP.Churn_mute };
        { FP.c_at = 0.45 *. round_duration; c_pid = 5; c_mode = FP.Churn_honest };
        { FP.c_at = 0.6 *. round_duration; c_pid = 5; c_mode = FP.Churn_equiv };
        { FP.c_at = 0.85 *. round_duration; c_pid = 5; c_mode = FP.Churn_honest };
      ];
  }

let churn_roles p = if p = 5 then Server.Churn else Server.Correct

let run_rounds ~seeds mk =
  List.iter
    (fun seed ->
      let spec = mk seed in
      let roles = if spec.FP.churn = [] then all_correct else churn_roles in
      if spec.FP.storm = [] then chaos_round ~roles spec
      else begin
        (* Storm rounds restart from disk: give them a scratch data dir. *)
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "dex-chaos-test-%d-%d" (Unix.getpid ()) seed)
        in
        rm_rf dir;
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () -> chaos_round ~roles ~data_dir:dir spec)
      end)
    seeds

(* 12 distinct seeds across the four mixes. *)

let test_partition_reactor () = run_rounds ~seeds:[ 101; 102; 103 ] mix_partition
let test_reorder_reactor () = run_rounds ~seeds:[ 111; 112; 113 ] mix_reorder
let test_storm_reactor () = run_rounds ~seeds:[ 121; 122; 123 ] mix_storm
let test_churn_reactor () = run_rounds ~seeds:[ 131; 132; 133 ] mix_churn

(* A symmetric cut of {0,1} from the other five for 1 s, under load: no
   side reaches n - t = 6, so the slot in flight decides nowhere and the
   frames it lost are never sent again by the log itself. Commits must
   resume within 2 s of the heal — the stall watchdog's resend repeats the
   lost traffic. *)
let test_commits_resume_after_heal () =
  let plan =
    FP.make
      {
        FP.empty_spec with
        seed = 7;
        cuts =
          [ { FP.cut_a = [ 0; 1 ]; cut_b = [ 2; 3; 4; 5; 6 ]; symmetric = true; from_s = 0.5;
              until_s = 1.5 } ];
      }
  in
  let cfg = S.config ~pair:(fun _ -> freq7) ~n:7 ~t:1 () in
  let d = S.launch ~chaos:plan cfg in
  Fun.protect ~finally:(fun () -> S.shutdown d) @@ fun () ->
  let c = Client.connect ~client:1 (List.map snd d.S.ports) in
  let loader =
    Thread.create (fun () -> ignore (Client.Load.run ~duration:3.6 c (fun _ -> Sm.Add ("k", 1)))) ()
  in
  let committed () = (S.stats (List.assoc 2 d.S.servers)).S.committed_slots in
  let at time = Thread.delay (Float.max 0.0 (time -. FP.elapsed plan)) in
  at 0.7;
  let cut = committed () in
  at 1.45;
  let healed = committed () in
  at 3.5;
  let later = committed () in
  Thread.join loader;
  Client.close c;
  Alcotest.(check bool) "the load committed before the cut" true (cut > 0);
  Alcotest.(check int) "nothing commits during the cut" cut healed;
  Alcotest.(check bool) "commits resume within 2 s of the heal" true (later > healed)

(* --------------------- timer tombstone regression --------------------- *)

let freq4 = Dex_condition.Pair.freq ~n:4 ~t:0

let test_timer_tombstones () =
  (* A reactor deployment with an aggressive batcher cadence keeps
     batch-cut and watchdog timers armed at all times. Kill a replica with
     timers pending and restart it immediately, repeatedly, under load: the
     killed incarnation's timers must not fire into the restarted instance
     (the cluster's per-node generation guard and the tracked cut timer).
     Before the guards, a stale tick could drive the new instance's batcher
     off-cadence or replay a cut into a recovering pipeline. *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dex-tombstone-test-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg =
    S.config ~data_dir:dir ~batch_delay:0.005 ~catchup_grace:2.0
      ~pair:(fun _ -> freq4)
      ~n:4 ~t:0 ()
  in
  let d = S.launch cfg in
  Fun.protect ~finally:(fun () -> S.shutdown d) @@ fun () ->
  let c = Client.connect ~client:1 (List.map snd d.S.ports) in
  let result = ref None in
  let loader =
    Thread.create
      (fun () -> result := Some (Client.Load.run ~duration:2.2 c (fun _ -> Sm.Add ("k", 1))))
      ()
  in
  Thread.delay 0.4;
  for _ = 1 to 3 do
    S.kill_replica d 2;
    Thread.delay 0.1;
    ignore (S.restart_replica d 2);
    Thread.delay 0.4
  done;
  Thread.join loader;
  Client.close c;
  let r = Option.get !result in
  Alcotest.(check bool) "committed across the restart storm" true
    (r.Client.Load.committed > 0);
  let converged () =
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
  Alcotest.(check bool) "reconverged after the storm" true (converged ());
  let compared, violations = S.agreement_violations d in
  Alcotest.(check bool) "slots compared" true (compared > 0);
  Alcotest.(check int) "no agreement violations" 0 (List.length violations);
  List.iter
    (fun (p, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d no duplicate applies" p)
        true
        (counter_of s <= r.Client.Load.issued))
    d.S.servers

(* ---------------------- worst-case schedule search ---------------------- *)

let churn_scenario =
  {
    Model.lane = Dex_core.Protocol_lane.Dex;
    kind = Model.Freq;
    n = 7;
    t = 1;
    proposals = [ 1; 0; 0; 0; 0; 0; 0 ];
    faults =
      [
        ( 0,
          Model.Churn_sched
            [ (0, Dex_net.Adversary.Churn_mute); (6, Dex_net.Adversary.Churn_honest) ] );
      ];
    mutation = None;
  }

let fifo_loss scenario =
  let t = Exec.create (Model.system scenario) in
  ignore (Exec.run_fifo t);
  Model.one_step_loss scenario (Exec.summary t)

let search_bounds =
  { Checker.default_bounds with Checker.delay_budget = 1; max_schedules = 50_000 }

let test_churn_model_safe () =
  (* Dynamic churn in the model checker: exhaustively exploring the budget-1
     neighbourhood of a mute→honest churn run finds no violation — the
     live adversary vocabulary is safe offline too. *)
  let o =
    Checker.explore ~sys:(Model.system churn_scenario) ~bounds:search_bounds
      ~check:(Model.check churn_scenario) ()
  in
  Alcotest.(check bool) "space exhausted" true o.Checker.stats.Checker.exhausted;
  Alcotest.(check bool) "no violation under churn" true (o.Checker.violation = None)

let test_search_finds_worst_case () =
  let fifo = fifo_loss churn_scenario in
  let search () =
    Checker.search ~sys:(Model.system churn_scenario) ~bounds:search_bounds
      ~score:(Model.one_step_loss churn_scenario) ()
  in
  let o = search () in
  Alcotest.(check bool) "in-budget space exhausted" true
    o.Checker.search_stats.Checker.exhausted;
  (match o.Checker.best with
  | None -> Alcotest.fail "no schedule completed"
  | Some (score, schedule) ->
    Alcotest.(check bool) "worst case at least as bad as FIFO" true (score >= fifo);
    (* The emitted schedule replays to exactly the score the search
       reported — the property that makes it a usable plan. *)
    let t = Exec.replay ~loose:true (Model.system churn_scenario) schedule in
    ignore (Exec.run_fifo t);
    Alcotest.(check int) "schedule replays to its score" score
      (Model.one_step_loss churn_scenario (Exec.summary t)));
  (* The search is deterministic: run twice, same optimum. *)
  let o2 = search () in
  Alcotest.(check bool) "deterministic optimum" true (o.Checker.best = o2.Checker.best)

let test_churn_counterexample_roundtrip () =
  (* The counterexample file format carries churn faults, so worst-case
     schedules over churn scenarios persist and reload. *)
  let file =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dex-chaos-cex-%d.txt" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
  @@ fun () ->
  let schedule =
    [ { Exec.src = 0; dst = 1; kind = Exec.Message; chan = 0 } ]
  in
  Model.save_counterexample ~file churn_scenario schedule
    (Dex_mcheck.Oracles.Termination { pid = 1 });
  let scenario', schedule' = Model.load_counterexample ~file in
  Alcotest.(check bool) "scenario round-trips" true (scenario' = churn_scenario);
  Alcotest.(check bool) "schedule round-trips" true (schedule' = schedule)

let () =
  Alcotest.run "dex_chaos"
    [
      ( "fault_plan",
        [
          Alcotest.test_case "plan text round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "validation rejects malformed specs" `Quick test_validate_rejects;
          Alcotest.test_case "churn beyond t rejected" `Quick test_churn_beyond_t_rejected;
          Alcotest.test_case "same seed, same trace" `Quick test_same_seed_same_trace;
          Alcotest.test_case "counts and metrics" `Quick test_counts_and_metrics;
        ] );
      ( "live_reactor",
        [
          Alcotest.test_case "partition with heal" `Slow test_partition_reactor;
          Alcotest.test_case "reorder + delay + dup" `Slow test_reorder_reactor;
          Alcotest.test_case "crash-restart storm" `Slow test_storm_reactor;
          Alcotest.test_case "byzantine churn" `Slow test_churn_reactor;
          Alcotest.test_case "commits resume after a healed partition" `Slow
            test_commits_resume_after_heal;
        ] );
      ( "regressions",
        [ Alcotest.test_case "timer tombstones" `Slow test_timer_tombstones ] );
      ( "worst_case",
        [
          Alcotest.test_case "churn model safe" `Quick test_churn_model_safe;
          Alcotest.test_case "search finds worst case" `Quick test_search_finds_worst_case;
          Alcotest.test_case "churn counterexample round-trip" `Quick
            test_churn_counterexample_roundtrip;
        ] );
    ]
