(* Tests for dex_smr: a log of DEX instances with pipelined slots. *)

open Dex_condition
open Dex_net
open Dex_underlying
open Dex_smr

module L = Replicated_log.Make (Dex_core.Dex.Lane (Uc_oracle))

let freq7 = Pair.freq ~n:7 ~t:1

(* Run a log; [workload p ~slot] is replica p's proposal for a slot. *)
let run_log ?(discipline = Discipline.lockstep) ?(seed = 1) ?(window = 4) ?(slots = 5)
    ?(faulty = []) ~workload () =
  let cfg = L.config ~seed ~window ~pair:(fun _ -> freq7) ~slots ~n:7 ~t:1 () in
  let commits = Array.make 7 [] in
  let make p =
    if List.mem p faulty then Adversary.silent ()
    else
      L.replica cfg ~me:p
        ~propose:(fun ~slot -> workload p ~slot)
        ~on_commit:(fun ~slot ~provenance:_ value -> commits.(p) <- (slot, value) :: commits.(p))
  in
  let r = Runner.run (Runner.config ~discipline ~seed ~extra:(L.extra cfg) ~n:7 make) in
  (r, Array.map List.rev commits)

let test_uncontended_log () =
  (* All replicas propose the same command per slot (the no-contention case
     from the introduction): every slot commits that command. *)
  let slots = 5 in
  let r, commits = run_log ~slots ~workload:(fun _p ~slot -> 100 + slot) () in
  Alcotest.(check bool) "quiescent" true (r.Runner.stop = Dex_sim.Engine.Quiescent);
  Array.iteri
    (fun p log ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "replica %d log" p)
        (List.init slots (fun s -> (s, 100 + s)))
        log)
    commits

let test_in_order_commits () =
  let r, commits = run_log ~slots:8 ~window:3 ~workload:(fun _p ~slot -> slot) () in
  ignore r;
  Array.iter
    (fun log ->
      let slots_order = List.map fst log in
      Alcotest.(check (list int)) "in order" (List.init 8 Fun.id) slots_order)
    commits

let test_contended_slots_agree () =
  (* Replicas disagree on some slots (contention): logs must still be
     identical across replicas. *)
  let workload p ~slot = if slot mod 2 = 0 then 7 else p mod 3 in
  for seed = 1 to 10 do
    let _, commits =
      run_log ~discipline:Discipline.asynchronous ~seed ~slots:6 ~workload ()
    in
    let reference = commits.(0) in
    Alcotest.(check int) "full log" 6 (List.length reference);
    Array.iteri
      (fun p log ->
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "replica %d matches" p)
          reference log)
      commits
  done

let test_log_with_faulty_replica () =
  let workload _p ~slot = 50 + slot in
  let r, commits = run_log ~slots:4 ~faulty:[ 6 ] ~workload () in
  ignore r;
  (* Correct replicas all commit the full log. *)
  for p = 0 to 5 do
    Alcotest.(check int) (Printf.sprintf "replica %d commits all" p) 4
      (List.length commits.(p))
  done;
  Alcotest.(check int) "faulty commits nothing" 0 (List.length commits.(6))

let test_window_one_is_sequential () =
  let r, commits = run_log ~slots:4 ~window:1 ~workload:(fun _p ~slot -> slot) () in
  Alcotest.(check bool) "quiescent" true (r.Runner.stop = Dex_sim.Engine.Quiescent);
  Array.iter (fun log -> Alcotest.(check int) "all slots" 4 (List.length log)) commits

let test_config_validation () =
  Alcotest.check_raises "bad window" (Invalid_argument "Replicated_log.config: window must be >= 1")
    (fun () -> ignore (L.config ~window:0 ~pair:(fun _ -> freq7) ~slots:1 ~n:7 ~t:1 ()));
  Alcotest.check_raises "bad slots" (Invalid_argument "Replicated_log.config: negative slots")
    (fun () -> ignore (L.config ~pair:(fun _ -> freq7) ~slots:(-1) ~n:7 ~t:1 ()))

let test_empty_log () =
  let r, commits = run_log ~slots:0 ~workload:(fun _p ~slot -> slot) () in
  Alcotest.(check bool) "quiescent" true (r.Runner.stop = Dex_sim.Engine.Quiescent);
  Array.iter (fun log -> Alcotest.(check int) "empty" 0 (List.length log)) commits

(* ------------------------- pipelining edges ------------------------- *)

(* Like [run_log] but exposing activation and an instance wrapper, for the
   on-demand and hostile-delivery edge cases below. *)
let run_log_wrapped ?(discipline = Discipline.lockstep) ?(seed = 1) ?(window = 4)
    ?(slots = 5) ?(policy = Runner.Fifo) ?activation ?base ?(wrap = fun _p i -> i)
    ~workload () =
  let cfg = L.config ~seed ~window ~pair:(fun _ -> freq7) ~slots ~n:7 ~t:1 () in
  let commits = Array.make 7 [] in
  let make p =
    wrap p
      (L.replica ?activation ?base cfg ~me:p
         ~propose:(fun ~slot -> workload p ~slot)
         ~on_commit:(fun ~slot ~provenance:_ value ->
           commits.(p) <- (slot, value) :: commits.(p)))
  in
  let r =
    Runner.run (Runner.config ~discipline ~seed ~policy ~extra:(L.extra cfg) ~n:7 make)
  in
  (r, Array.map List.rev commits)

let test_on_demand_idle () =
  (* Under [`On_demand] with no releases, nothing starts: the run is
     immediately quiescent with zero traffic and zero commits. *)
  let r, commits =
    run_log_wrapped ~activation:`On_demand ~workload:(fun _p ~slot -> slot) ()
  in
  Alcotest.(check bool) "quiescent" true (r.Runner.stop = Dex_sim.Engine.Quiescent);
  Alcotest.(check int) "no traffic" 0 r.Runner.sent;
  Array.iter (fun log -> Alcotest.(check int) "no commits" 0 (List.length log)) commits

let test_on_demand_release_prefix () =
  (* One replica releases slots [0..1]; every other correct replica joins on
     the remote traffic. Exactly the released prefix commits, everywhere —
     the window boundary is the release point, not [slots]. *)
  let released = 2 in
  let wrap p (i : _ Dex_net.Protocol.instance) =
    if p <> 0 then i
    else
      {
        i with
        Dex_net.Protocol.start =
          (fun () -> Dex_net.Protocol.Send (0, L.release released) :: i.start ());
      }
  in
  let r, commits =
    run_log_wrapped ~activation:`On_demand ~slots:5 ~wrap
      ~workload:(fun _p ~slot -> 100 + slot)
      ()
  in
  Alcotest.(check bool) "quiescent" true (r.Runner.stop = Dex_sim.Engine.Quiescent);
  for p = 0 to 6 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "replica %d commits the released prefix" p)
      (List.init released (fun s -> (s, 100 + s)))
      commits.(p)
  done

let test_base_starts_frontier () =
  (* Recovered replicas pass [base]: slots below it were persisted in a
     previous life, so the log neither runs nor reports them. With every
     replica based at 2 and the full log released, exactly slots [2..4]
     commit, everywhere. *)
  let wrap p (i : _ Dex_net.Protocol.instance) =
    if p <> 0 then i
    else
      {
        i with
        Dex_net.Protocol.start =
          (fun () -> Dex_net.Protocol.Send (0, L.release 5) :: i.start ());
      }
  in
  let r, commits =
    run_log_wrapped ~activation:`On_demand ~slots:5 ~base:2 ~wrap
      ~workload:(fun _p ~slot -> 100 + slot)
      ()
  in
  Alcotest.(check bool) "quiescent" true (r.Runner.stop = Dex_sim.Engine.Quiescent);
  for p = 0 to 6 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "replica %d commits only from the base" p)
      [ (2, 102); (3, 103); (4, 104) ]
      commits.(p)
  done

let test_skip_fast_forwards () =
  (* Every replica skips itself past slots [0..1] (the crash-recovery move:
     outcomes installed out of band, then the log fast-forwarded); replica 0
     releases the full window. Only slots [2..4] run and report. *)
  let wrap p (i : _ Dex_net.Protocol.instance) =
    {
      i with
      Dex_net.Protocol.start =
        (fun () ->
          let skip = Dex_net.Protocol.Send (p, L.skip 2) in
          let rest = if p = 0 then [ Dex_net.Protocol.Send (0, L.release 5) ] else [] in
          (skip :: rest) @ i.start ());
    }
  in
  let r, commits =
    run_log_wrapped ~activation:`On_demand ~slots:5 ~wrap
      ~workload:(fun _p ~slot -> 100 + slot)
      ()
  in
  Alcotest.(check bool) "quiescent" true (r.Runner.stop = Dex_sim.Engine.Quiescent);
  for p = 0 to 6 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "replica %d skipped the installed prefix" p)
      [ (2, 102); (3, 103); (4, 104) ]
      commits.(p)
  done

let test_forged_skip_ignored () =
  (* A skip arriving from a peer pid must be ignored — otherwise a Byzantine
     replica could silence another replica's commits. Replica 1 forges
     [skip 3] at replica 0; the full log must still commit everywhere. *)
  let wrap p (i : _ Dex_net.Protocol.instance) =
    let extra =
      if p = 0 then [ Dex_net.Protocol.Send (0, L.release 5) ]
      else if p = 1 then [ Dex_net.Protocol.Send (0, L.skip 3) ]
      else []
    in
    { i with Dex_net.Protocol.start = (fun () -> extra @ i.start ()) }
  in
  let r, commits =
    run_log_wrapped ~activation:`On_demand ~slots:5 ~wrap
      ~workload:(fun _p ~slot -> 100 + slot)
      ()
  in
  Alcotest.(check bool) "quiescent" true (r.Runner.stop = Dex_sim.Engine.Quiescent);
  for p = 0 to 6 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "replica %d commits the full log" p)
      (List.init 5 (fun s -> (s, 100 + s)))
      commits.(p)
  done

let test_duplicate_slot_messages () =
  (* A network that duplicates every send (legal over at-least-once
     delivery): slot instances must treat redelivery as a no-op, so logs
     stay identical and complete, and nobody commits a slot twice. *)
  let dup acts =
    List.concat_map
      (function Dex_net.Protocol.Send _ as a -> [ a; a ] | a -> [ a ])
      acts
  in
  let wrap _p (i : _ Dex_net.Protocol.instance) =
    {
      Dex_net.Protocol.start = (fun () -> dup (i.Dex_net.Protocol.start ()));
      on_message = (fun ~now ~from m -> dup (i.Dex_net.Protocol.on_message ~now ~from m));
    }
  in
  for seed = 1 to 5 do
    let _, commits =
      run_log_wrapped ~discipline:Discipline.asynchronous ~seed ~slots:6 ~wrap
        ~workload:(fun p ~slot -> if slot mod 2 = 0 then 7 else p mod 3)
        ()
    in
    let reference = commits.(0) in
    Alcotest.(check int) "full log" 6 (List.length reference);
    Array.iteri
      (fun p log ->
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "seed %d replica %d matches" seed p)
          reference log)
      commits
  done

let test_resend_revives_lost_traffic () =
  (* Every replica's sends to the UC oracle (pid 7) are lost until its
     self-timed [resend], so a contended slot decides nowhere and the log
     wedges there: the log never retransmits by itself. The resend repeats
     the uncommitted slots' sends, the lost proposals arrive, and the whole
     log commits, identically everywhere. *)
  let workload p ~slot = if slot mod 2 = 0 then 7 else p mod 3 in
  let run ~resend =
    let wrap p (i : _ Dex_net.Protocol.instance) =
      let lossy = ref true in
      let filter acts =
        if !lossy then
          List.filter (function Dex_net.Protocol.Send (7, _) -> false | _ -> true) acts
        else acts
      in
      let timer = Dex_net.Protocol.Set_timer { delay = 10.0; msg = L.resend } in
      {
        Dex_net.Protocol.start =
          (fun () -> (if resend then [ timer ] else []) @ filter (i.Dex_net.Protocol.start ()));
        on_message =
          (fun ~now ~from m ->
            if from = p && m = L.resend then lossy := false;
            filter (i.Dex_net.Protocol.on_message ~now ~from m));
      }
    in
    snd (run_log_wrapped ~slots:6 ~wrap ~workload ())
  in
  Alcotest.(check int) "without a resend the log stops at the first contended slot" 1
    (List.length (run ~resend:false).(0));
  let commits = run ~resend:true in
  Alcotest.(check int) "with it the whole log commits" 6 (List.length commits.(0));
  Array.iteri
    (fun p log ->
      Alcotest.(check (list (pair int int))) (Printf.sprintf "replica %d agrees" p) commits.(0) log)
    commits

let test_forged_resend_ignored () =
  (* A resend from a peer repeats nothing: only a replica's own pid may ask
     its log to resend. *)
  let cfg = L.config ~pair:(fun _ -> freq7) ~slots:4 ~n:7 ~t:1 () in
  let i =
    L.replica ~activation:`On_demand cfg ~me:0
      ~propose:(fun ~slot -> slot)
      ~on_commit:(fun ~slot:_ ~provenance:_ _ -> ())
  in
  ignore (i.Dex_net.Protocol.start ());
  let opened = i.Dex_net.Protocol.on_message ~now:0.0 ~from:0 (L.release 1) in
  let sends acts =
    List.sort compare
      (List.filter_map
         (function
           | Dex_net.Protocol.Send (p, m) -> Some (p, Format.asprintf "%a" L.pp_msg m)
           | _ -> None)
         acts)
  in
  Alcotest.(check bool) "the release opens slot 0" true (sends opened <> []);
  Alcotest.(check (list (pair int string))) "our own resend repeats slot 0's sends"
    (sends opened)
    (sends (i.Dex_net.Protocol.on_message ~now:0.0 ~from:0 L.resend));
  Alcotest.(check int) "a peer's resend repeats nothing" 0
    (List.length (i.Dex_net.Protocol.on_message ~now:0.0 ~from:1 L.resend))

let test_jittered_commit_order () =
  (* Exponential delays and randomized same-instant scheduling reorder slot
     traffic across the window; commits must still surface in slot order at
     every replica, with identical logs. *)
  for seed = 1 to 8 do
    let _, commits =
      run_log_wrapped
        ~discipline:(Discipline.exponential ~mean:1.0)
        ~policy:Runner.Random_tiebreak ~seed ~slots:8 ~window:3
        ~workload:(fun p ~slot -> (slot * 3) + (p mod 2))
        ()
    in
    let reference = commits.(0) in
    Alcotest.(check int) "full log" 8 (List.length reference);
    Array.iteri
      (fun p log ->
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d replica %d in slot order" seed p)
          (List.init 8 Fun.id) (List.map fst log);
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "seed %d replica %d agrees" seed p)
          reference log)
      commits
  done

let () =
  Alcotest.run "dex_smr"
    [
      ( "replicated_log",
        [
          Alcotest.test_case "uncontended log" `Quick test_uncontended_log;
          Alcotest.test_case "in-order commits" `Quick test_in_order_commits;
          Alcotest.test_case "contended slots agree" `Quick test_contended_slots_agree;
          Alcotest.test_case "faulty replica" `Quick test_log_with_faulty_replica;
          Alcotest.test_case "window 1" `Quick test_window_one_is_sequential;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "empty log" `Quick test_empty_log;
        ] );
      ( "pipelining_edges",
        [
          Alcotest.test_case "on-demand idle" `Quick test_on_demand_idle;
          Alcotest.test_case "on-demand release prefix" `Quick test_on_demand_release_prefix;
          Alcotest.test_case "base starts the frontier" `Quick test_base_starts_frontier;
          Alcotest.test_case "skip fast-forwards" `Quick test_skip_fast_forwards;
          Alcotest.test_case "forged skip ignored" `Quick test_forged_skip_ignored;
          Alcotest.test_case "duplicate deliveries" `Quick test_duplicate_slot_messages;
          Alcotest.test_case "jittered commit order" `Quick test_jittered_commit_order;
          Alcotest.test_case "resend revives lost traffic" `Quick
            test_resend_revives_lost_traffic;
          Alcotest.test_case "forged resend ignored" `Quick test_forged_resend_ignored;
        ] );
    ]
