(* The live workloads: a deployment in a forked child, the open-loop
   generator here, phases at fixed offered rates, and the correctness gates
   on the final replica state. *)

open Util
module R = Dex_metrics.Registry

type params = {
  shape : Deploy.shape;
  nominal : float;  (** req/s *)
  high : float;
  burst : int;  (** requests in the fixed closed-loop job ([sustained_ops_s]) *)
}

type result = {
  metrics : (string * float) list;
  correct : bool;
  attempted : int;
  failed : int;
  detail : string;
}

let drain = 2.0

(* concurrency of the fixed closed-loop job *)
let window = 256

(* ---------------------------- deployments ---------------------------- *)

type live = { child : Deploy.child; gen : Gen.t }

let launches = ref 0

(* Launch a deployment and commit one warm-up request; the wall time of both
   is the set-up time. Durable deployments get a fresh data dir inside the
   checkout, removed when the child is stopped. With [submit_to = k] the
   generator reaches only the replicas below pid [k]. *)
let launch ?(submit_to = max_int) (shape : Deploy.shape) ~trace ~keep ~next =
  incr launches;
  let dir =
    if shape.Deploy.durable then
      Some (Printf.sprintf ".perfbench/tmp/run-%d-%d" (Unix.getpid ()) !launches)
    else None
  in
  Option.iter mkdir_p dir;
  let t0 = now () in
  let child = Deploy.launch ~trace ~dir shape in
  let ports = List.filter (fun (pid, _) -> pid < submit_to) child.Deploy.ports in
  let gen = Gen.connect ~keep (List.map snd ports) in
  let warm = Gen.run_burst gen ~next ~count:1 ~window:1 ~timeout:60.0 in
  if warm.Gen.committed <> 1 then failwith "the warm-up request did not commit";
  ({ child; gen }, now () -. t0)

let stop l =
  Gen.close l.gen;
  Deploy.stop l.child

(* ------------------------------ the job ------------------------------ *)

(* The fixed closed-loop job: [p.burst] requests with [window] outstanding,
   as fast as they commit. Its rate is the committed requests per second of
   wall time up to the last commit. *)
let job l p ~next =
  let ph = Gen.run_burst l.gen ~next ~count:p.burst ~window ~timeout:30.0 in
  (ph, float_of_int ph.Gen.committed /. (ph.Gen.last_commit -. ph.Gen.started))

(* ------------------------------ the gates ----------------------------- *)

(* Agreement, convergence, and exactly-once on every counter key: its value
   on every correct replica lies between the acknowledged and the issued
   increments (equal to the acknowledged count when nothing is left
   unanswered). *)
let gates l (f : Deploy.final) ~quiet =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if f.Deploy.violations > 0 then fail "%d agreement violations" f.Deploy.violations;
  (match List.sort_uniq compare (List.map snd f.Deploy.digests) with
  | [ _ ] when f.Deploy.converged -> ()
  | ds -> fail "replicas did not converge (%d distinct state digests)" (List.length ds));
  Hashtbl.iter
    (fun key issued ->
      let acked = Option.value ~default:0 (Hashtbl.find_opt l.gen.Gen.acked key) in
      List.iter
        (fun (pid, state) ->
          let v = Option.value ~default:0 (List.assoc_opt key state) in
          if v < acked || v > issued || (quiet && v <> acked) then
            fail "replica %d: %s = %d, acknowledged %d, issued %d" pid key v acked issued)
        f.Deploy.states)
    l.gen.Gen.issued;
  List.rev !problems

let gates_json problems =
  "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") problems) ^ "]"

(* ------------------------------ untraced ------------------------------ *)

let merged (s : Deploy.snap) = R.merge (s.Deploy.net :: List.map snd s.Deploy.replicas)

(* How the untraced run spends its time: [set_ups] launches timed for
   [setup_s]; on [measured] of them, [rounds] rounds each of a nominal and
   a high-rate phase, then [jobs] closed-loop jobs. Pooling per-round
   figures and averaging the jobs over several deployments keeps one
   deployment's luck (thread placement, batch tick phase) from setting the
   result. Per-round figures and job rates are combined by a trimmed mean
   rather than a median: one job's rate ranges from about 8k to 23k req/s
   on durable-n7-t1, and kv-n4's per-run p50 at the high rate fell near
   either 7.6 or 9.3 ms, so a median flipped between clusters. *)
let set_ups = 21

let measured = 5

let rounds = 3

let jobs = 4

type measurement = {
  rounds_run : (Gen.phase * Gen.phase) list;  (** nominal, high *)
  bursts : (Gen.phase * float) list;  (** closed-loop jobs and their rates *)
  slots : float * float;  (** one-step and non-empty committed slots over the rounds *)
  fin : Deploy.final;
  quiet : bool;
  problems : string list;
}

let run_plain p ~seed ~seconds =
  let next = Gen.commands ~seed in
  let setups = ref [] in
  let launch_timed () =
    let l, s = launch p.shape ~trace:false ~keep:0 ~next in
    setups := s :: !setups;
    l
  in
  for _ = 1 to set_ups - measured do
    stop (launch_timed ())
  done;
  let round_s = 0.6 *. seconds /. float_of_int (measured * rounds) in
  let measure i =
    let l = launch_timed () in
    Fun.protect ~finally:(fun () -> stop l) (fun () ->
        let phase ~k ~rate ~duration =
          Gen.run_open l.gen ~next ~seed:(seed + (104729 * ((100 * i) + k))) ~rate ~duration ~drain
        in
        ignore (phase ~k:0 ~rate:p.nominal ~duration:1.0);
        (* nominal and high interleaved in rounds, so a host stall of a few
           seconds lands in a minority of each rate's phases *)
        let s0 = Deploy.snap l.child in
        let rounds_run =
          List.init rounds (fun r ->
              let nom = phase ~k:((2 * r) + 1) ~rate:p.nominal ~duration:(0.625 *. round_s) in
              let hi = phase ~k:((2 * r) + 2) ~rate:p.high ~duration:(0.375 *. round_s) in
              (nom, hi))
        in
        let s1 = Deploy.snap l.child in
        let slots =
          let a = merged s0 and b = merged s1 in
          let d name = float_of_int (R.get b name - R.get a name) in
          (d "service/one_step", d "service/committed_slots" -. d "service/empty_slots")
        in
        let bursts = List.init jobs (fun _ -> job l p ~next) in
        let quiet = Gen.quiesce l.gen 5.0 in
        let fin = Deploy.final l.child in
        let problems =
          List.map (Printf.sprintf "deployment %d: %s" i) (gates l fin ~quiet)
        in
        { rounds_run; bursts; slots; fin; quiet; problems })
  in
  let ms = List.init measured measure in
  let all f = List.concat_map f ms in
  let nominal = Gen.summarize_all ~rate:p.nominal (all (fun m -> List.map fst m.rounds_run)) in
  let high = Gen.summarize_all ~rate:p.high (all (fun m -> List.map snd m.rounds_run)) in
  let bursts = all (fun m -> m.bursts) in
  let problems = all (fun m -> m.problems) in
  let sum f = List.fold_left (fun acc m -> acc +. f m) 0.0 ms in
  let slot_fast = div (sum (fun m -> fst m.slots)) (sum (fun m -> snd m.slots)) in
  let counted =
    [ (nominal.Gen.s_attempted, nominal.Gen.s_failed); (high.Gen.s_attempted, high.Gen.s_failed) ]
    @ List.map (fun (ph, _) -> (ph.Gen.attempted, ph.Gen.attempted - ph.Gen.committed)) bursts
  in
  let attempted = List.fold_left (fun a (x, _) -> a + x) 0 counted in
  let failed = List.fold_left (fun a (_, x) -> a + x) 0 counted in
  let floats l = String.concat ", " (List.map (Printf.sprintf "%.4f") l) in
  let metrics =
    [
      ("setup_s", median_of_list !setups);
      ("commit_p50_ms", nominal.Gen.p50_ms);
      ("commit_p99_ms", nominal.Gen.tail_ms);
      ("commit_p50_ms.high", high.Gen.p50_ms);
      ("commit_p99_ms.high", high.Gen.tail_ms);
      ("sustained_ops_s", trimmed_mean (List.map snd bursts));
      ("peak_rss_mb", median_of_list (List.map (fun m -> m.fin.Deploy.rss_mb) ms));
    ]
  in
  let detail =
    Printf.sprintf
      "{\"setups_s\": [%s], \"nominal\": %s, \"high\": %s, \"job_rates\": [%s], \
       \"peak_rss_mb\": [%s], \
       \"failed_fraction\": %.6f, \"quiesced\": %b, \"agreement_compared\": %d, \
       \"one_step_slot_share\": %.4f, \"gates\": %s}"
      (floats (List.rev !setups)) (Gen.summary_json nominal) (Gen.summary_json high)
      (floats (List.map snd bursts))
      (floats (List.map (fun m -> m.fin.Deploy.rss_mb) ms))
      (idiv failed attempted)
      (List.for_all (fun m -> m.quiet) ms)
      (List.fold_left (fun acc m -> acc + m.fin.Deploy.compared) 0 ms)
      slot_fast (gates_json problems)
  in
  { metrics; correct = problems = []; attempted; failed; detail }

(* ------------------------------- traced ------------------------------- *)

(* Per-layer figures from the registry deltas over the measured phase,
   merged across correct replicas and the deployment's net registry, and
   from the tracing wrappers. *)
let per_replica ~(m0 : Deploy.snap) ~(m1 : Deploy.snap) pid name =
  match (List.assoc_opt pid m0.Deploy.replicas, List.assoc_opt pid m1.Deploy.replicas) with
  | Some x, Some y -> float_of_int (R.get y name - R.get x name)
  | _ -> 0.0

let layer_metrics ~(m0 : Deploy.snap) ~(m1 : Deploy.snap) ~attempted =
  let a = merged m0 and b = merged m1 in
  let d name = float_of_int (R.get b name - R.get a name) in
  let per_replica = per_replica ~m0 ~m1 in
  (* deployment-wide slot count: the most any one replica committed *)
  let slots_one =
    List.fold_left
      (fun acc (pid, _) -> Float.max acc (per_replica pid "service/committed_slots"))
      0.0 m1.Deploy.replicas
  in
  let slots = d "service/committed_slots" in
  let nonempty = slots -. d "service/empty_slots" in
  let probe = Option.get m1.Deploy.probe in
  let attempted = float_of_int attempted in
  [
    ("transport.sends_per_slot", div (float_of_int probe.Deploy.sends) slots_one);
    ("transport.bytes_per_slot", div (float_of_int probe.Deploy.bytes) slots_one);
    ("transport.send_us.p50", probe.Deploy.send_us.(0));
    ("transport.send_us.p99", probe.Deploy.send_us.(1));
    ("transport.drops", d "net/drops");
    ("transport.reconnects", d "net/reconnects");
    ("reactor.tick_ns", probe.Deploy.tick_ns);
    ("replica.handler_us.p50", probe.Deploy.handler_us.(0));
    ("replica.handler_us.p99", probe.Deploy.handler_us.(1));
    ("admission.backlog.p99", probe.Deploy.backlog_p99);
    ("admission.busy_per_1k", div (1000.0 *. d "service/busy_rejections") attempted);
    ("admission.dup_per_1k", div (1000.0 *. d "service/suppressed_duplicates") attempted);
    ("batcher.requests_per_slot", div (d "service/applied") slots);
    ("batcher.empty_slot_ratio", div (d "service/empty_slots") slots);
    ("smr.one_step_slot_ratio", div (d "service/one_step") nonempty);
    ("smr.two_step_slot_ratio", div (d "service/two_step") nonempty);
    ("smr.underlying_slot_ratio", div (d "service/underlying") nonempty);
    ("replica.fetch_rtts_per_1k_slots", div (1000.0 *. d "service/fetch_rtts") slots);
    ("replica.fetch_bytes_per_slot", div (d "service/fetch_bytes") slots);
    ("wal.fsyncs_per_slot", div (d "wal/fsyncs") slots);
    ("wal.records_per_fsync", div (d "wal/synced_records") (d "wal/fsyncs"));
    ("wal.bytes_per_slot", div (d "wal/bytes") slots);
  ]

(* The coded dissemination lane, run in every traced run: n=4 t=0 with
   erasure-coded batches and 64 KiB Blob writes submitted to replicas 0-2
   only, so replica 3 receives no client content and must rebuild every
   batch it commits from fragments (or fall back to a full fetch). The
   offered rate is well under the lane's capacity: driven as hard as it
   goes, such a deployment grew past 7 GiB RSS within 15 s on a 2-vCPU,
   8 GiB host. Returns the erasure figures of replica 3 over the measured
   phase, the phase, its gate problems and the child's peak RSS. *)
let coded_rate = 40.0

let coded_lane ~seed ~duration =
  let shape = { Deploy.n = 4; t = 0; mute = []; durable = false; coded = true } in
  let next = Gen.blobs ~seed ~bytes:65536 in
  let l, _ = launch shape ~submit_to:3 ~trace:false ~keep:0 ~next in
  Fun.protect ~finally:(fun () -> stop l) (fun () ->
      let m0 = Deploy.snap l.child in
      (* the drain outlasts one retransmission: with three of four replicas
         taking requests, an occasional Blob was left unanswered after 2 s *)
      let ph =
        Gen.run_open l.gen ~next ~seed ~rate:coded_rate ~duration ~drain:(Gen.retry_after +. drain)
      in
      let m1 = Deploy.snap l.child in
      let quiet = Gen.quiesce l.gen 5.0 in
      let f = Deploy.final l.child in
      let starved = per_replica ~m0 ~m1 3 in
      let slots = starved "service/committed_slots" -. starved "service/empty_slots" in
      let fetched = starved "service/fetch_bytes" +. starved "erasure/frag_bytes_in" in
      ( [
          ("erasure.starved_fetch_kib_per_slot", div (fetched /. 1024.0) slots);
          ("erasure.decodes_per_slot", div (starved "erasure/decodes") slots);
          ( "erasure.fallbacks_per_1k_slots",
            div (1000.0 *. starved "erasure/decode_fallbacks") slots );
        ],
        ph,
        gates l f ~quiet,
        f.Deploy.rss_mb ))

(* The traced run: an untraced reference deployment and a traced one run
   the same nominal phase and closed-loop jobs (half the run each); the
   differences are the tracing overhead. Registry deltas cover the traced
   nominal phase only. Then the stage replay, the fixed microbenchmarks and
   the model checker's counts. *)
let run_traced p ~seed ~seconds ~workload =
  let next = Gen.commands ~seed in
  let half = seconds /. 2.0 in
  let measure ~trace =
    let l, _ = launch p.shape ~trace ~keep:(if trace then 4096 else 0) ~next in
    Fun.protect ~finally:(fun () -> stop l) (fun () ->
        ignore (Gen.run_open l.gen ~next ~seed:(seed + 1) ~rate:p.nominal ~duration:1.0 ~drain);
        let m0 = if trace then Some (Deploy.snap ~mark:true l.child) else None in
        let ph =
          Gen.run_open l.gen ~next ~seed:(seed + 2) ~rate:p.nominal ~duration:(0.6 *. half) ~drain
        in
        let m1 = if trace then Some (Deploy.snap l.child) else None in
        let nominal = Gen.summarize ~rate:p.nominal ph in
        let rate = trimmed_mean (List.init jobs (fun _ -> snd (job l p ~next))) in
        let quiet = Gen.quiesce l.gen 5.0 in
        let problems = if trace then gates l (Deploy.final l.child) ~quiet else [] in
        (nominal, rate, m0, m1, problems, l.gen))
  in
  let ref_nominal, ref_sustained, _, _, _, _ = measure ~trace:false in
  let nominal, sustained_ops_s, m0, m1, problems, gen = measure ~trace:true in
  let m0 = Option.get m0 and m1 = Option.get m1 in
  let layers = layer_metrics ~m0 ~m1 ~attempted:nominal.Gen.s_attempted in
  let coded, coded_phase, coded_problems, coded_rss = coded_lane ~seed ~duration:3.0 in
  let problems = problems @ List.map (( ^ ) "coded lane: ") coded_problems in
  let per_slot =
    max 1 (min 256 (int_of_float (Float.round (List.assoc "batcher.requests_per_slot" layers))))
  in
  let replay, replay_detail =
    Micro.stage_replay ~next:(Gen.commands ~seed)
      ~slots:300 ~per_slot
      ~dir:(Printf.sprintf ".perfbench/tmp/replay-%d" (Unix.getpid ()))
      ~spans_file:(Printf.sprintf ".perfbench/spans/%s-seed%d.jsonl" workload seed)
  in
  let wire = Micro.wire ~requests:gen.Gen.sent_reqs ~replies:gen.Gen.replies in
  let shares =
    [
      ("smr.fast_path_fraction", nominal.Gen.fast);
      ("smr.expedited_fraction", nominal.Gen.fast +. nominal.Gen.two);
    ]
  in
  let overhead =
    [
      ("trace.overhead.commit_p50_ms", nominal.Gen.p50_ms -. ref_nominal.Gen.p50_ms);
      ("trace.overhead.sustained_ops_s", sustained_ops_s -. ref_sustained);
    ]
  in
  let detail =
    Printf.sprintf
      "{\"untraced_nominal\": %s, \"traced_nominal\": %s, \"untraced_sustained_ops_s\": %.1f, \
       \"traced_sustained_ops_s\": %.1f, \"coded_lane\": %s, \"coded_lane_rss_mb\": %.1f, \
       \"replay\": %s, \"gates\": %s}"
      (Gen.summary_json ref_nominal) (Gen.summary_json nominal) ref_sustained sustained_ops_s
      (Gen.summary_json (Gen.summarize ~rate:coded_rate coded_phase)) coded_rss replay_detail
      (gates_json problems)
  in
  {
    metrics =
      layers @ coded @ shares @ replay @ wire @ Micro.fixed () @ Mc_sweep.layer ~seed @ overhead;
    correct = problems = [];
    attempted = nominal.Gen.s_attempted + coded_phase.Gen.attempted;
    failed = nominal.Gen.s_failed + coded_phase.Gen.attempted - coded_phase.Gen.committed;
    detail;
  }
