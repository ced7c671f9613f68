(* Per-layer figures measured by calling a layer's public functions
   directly: the stage replay of a workload's own requests through the
   replica pipeline's stages, and fixed microbenchmarks of the consensus
   core, broadcast, codec, condition and erasure layers. *)

open Util
open Dex_service
module Codec = Dex_codec.Codec
module Wal = Dex_store.Wal

type span = { id : int; name : string; start : float; stop : float; parent : int; slot : int }

(* Stage replay: the workload's requests, regenerated from its seed, go
   through Admission.admit -> Batcher.cut -> Batch.digest/to_blob ->
   State_machine.apply -> Wal.append/sync, [per_slot] requests per slot.
   Each slot is one span tree (a root with one child per stage); self
   times are per stage. A second WAL measures group commit through
   [Wal.syncer] on the same records. Spans are written to [spans_file]. *)
let stage_replay ~next ~slots ~per_slot ~dir ~spans_file =
  mkdir_p dir;
  let adm = Admission.create ~cap:1_000_000 in
  let sm = State_machine.create () in
  let wal = (Wal.open_ (Filename.concat dir "wal")).Wal.wal in
  let record_codec = Codec.pair (Codec.triple Codec.int Codec.int Codec.int) Batch.codec in
  let self = Hashtbl.create 8 in
  let push name us =
    let b =
      match Hashtbl.find_opt self name with
      | Some b -> b
      | None ->
        let b = Fbuf.create () in
        Hashtbl.replace self name b;
        b
    in
    Fbuf.push b us
  in
  let spans = ref [] and ids = ref 0 and rid = ref 0 in
  let fresh () = incr ids; !ids in
  let records = ref [] and commands = ref [] and append_sync = Fbuf.create () in
  for slot = 1 to slots do
    let root = fresh () in
    let covered = ref 0.0 in
    let timed name f =
      let t0 = now () in
      let v = f () in
      let t1 = now () in
      spans := { id = fresh (); name; start = t0; stop = t1; parent = root; slot } :: !spans;
      covered := !covered +. (t1 -. t0);
      push name ((t1 -. t0) *. 1e6);
      v
    in
    let reqs =
      List.init per_slot (fun _ ->
          incr rid;
          let cmd = fst (next ()) in
          commands := cmd :: !commands;
          { Wire.client = 1 + (!rid mod 512); rid = !rid; command = cmd })
    in
    let s0 = now () in
    timed "admission" (fun () -> List.iter (fun r -> ignore (Admission.admit adm ~now:s0 r)) reqs);
    let batch =
      timed "batcher.cut" (fun () -> Batcher.cut adm ~now:(s0 +. 1.0) ~settle:0.0 ~cap:1_000_000)
    in
    let digest = timed "batch.digest" (fun () -> Batch.digest batch) in
    ignore (timed "batch.to_blob" (fun () -> Batch.to_blob batch));
    timed "state_machine.apply" (fun () ->
        List.iter
          (fun (r : Wire.request) ->
            Admission.remove adm ~client:r.Wire.client ~rid:r.Wire.rid;
            ignore (State_machine.apply sm r.Wire.command))
          batch);
    Admission.refresh_oldest adm;
    let record = Codec.encode record_codec ((slot, digest, 0), batch) in
    records := record :: !records;
    let a0 = now () in
    ignore (timed "wal.append" (fun () -> Wal.append wal record));
    ignore (timed "wal.sync" (fun () -> Wal.sync wal));
    Fbuf.push append_sync ((now () -. a0) *. 1e6);
    let s1 = now () in
    spans := { id = root; name = "slot"; start = s0; stop = s1; parent = 0; slot } :: !spans;
    push "slot" ((s1 -. s0 -. !covered) *. 1e6)
  done;
  Wal.close wal;
  (* Group commit: append through the syncer, kick it (as a reply waiting
     on the watermark does) and wait for the covering durable callback. *)
  let gwal = (Wal.open_ (Filename.concat dir "wal-group")).Wal.wal in
  let m = Mutex.create () and cv = Condition.create () and durable = ref 0 in
  let syncer =
    Wal.syncer gwal ~on_durable:(fun w ->
        Mutex.lock m;
        durable := max !durable w;
        Condition.broadcast cv;
        Mutex.unlock m)
  in
  let group = Fbuf.create () in
  List.iter
    (fun record ->
      let t0 = now () in
      let lsn = Wal.syncer_append syncer record in
      Wal.kick_syncer syncer;
      Mutex.lock m;
      while !durable < lsn do
        Condition.wait cv m
      done;
      Mutex.unlock m;
      Fbuf.push group ((now () -. t0) *. 1e6))
    (List.rev !records);
  Wal.stop_syncer syncer;
  Wal.close gwal;
  rm_rf dir;
  (* state_machine.apply_ns: the replayed commands again, one timed block *)
  let cmds = Array.of_list (List.rev !commands) in
  let apply_ns =
    per_op ~reps:5 ~iters:1 ~scale:1e9 (fun () ->
        let sm = State_machine.create () in
        Array.iter (fun c -> ignore (State_machine.apply sm c)) cmds)
    /. float_of_int (max 1 (Array.length cmds))
  in
  (* spans out, one JSON object per line, times relative to the first *)
  let spans = List.sort (fun a b -> compare a.id b.id) !spans in
  let origin = match spans with s :: _ -> s.start | [] -> 0.0 in
  mkdir_p (Filename.dirname spans_file);
  let oc = open_out spans_file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": \"%s\", \"start_us\": %.1f, \"dur_us\": %.1f, \"parent\": %d, \
         \"slot\": %d}\n"
        s.id s.name ((s.start -. origin) *. 1e6) ((s.stop -. s.start) *. 1e6) s.parent s.slot)
    spans;
  close_out oc;
  let mean name =
    match Hashtbl.find_opt self name with
    | Some b -> div (Array.fold_left ( +. ) 0.0 (Fbuf.to_array b)) (float_of_int (Fbuf.length b))
    | None -> 0.0
  in
  let q b p = quantile (Fbuf.sorted b) p in
  let self_table =
    Hashtbl.fold (fun name _ acc -> Printf.sprintf "\"%s\": %.3f" name (mean name) :: acc) self []
    |> List.sort compare |> String.concat ", "
  in
  ( [
      ("batcher.cut_us", mean "batcher.cut");
      ("batch.digest_us", mean "batch.digest");
      ("state_machine.apply_ns", apply_ns);
      ("wal.append_sync_us.p50", q append_sync 0.5);
      ("wal.append_sync_us.p99", q append_sync 0.99);
      ("wal.group_commit_us.p50", q group 0.5);
      ("wal.group_commit_us.p99", q group 0.99);
    ],
    Printf.sprintf "{\"slots\": %d, \"per_slot\": %d, \"mean_self_us\": {%s}}" slots per_slot
      self_table )

(* ------------------------- fixed microbenchmarks ------------------------ *)

module Doracle = Dex_core.Dex.Make (Dex_underlying.Uc_oracle)

let idb_round n =
  let t = (n - 1) / 4 in
  let open Dex_broadcast in
  let make p =
    let idb = Idb.create ~n ~t in
    {
      Dex_net.Protocol.start = (fun () -> Dex_net.Protocol.broadcast ~n (Idb.id_send p));
      on_message =
        (fun ~now:_ ~from m ->
          let emit = Idb.handle idb ~from m in
          List.concat_map (fun b -> Dex_net.Protocol.broadcast ~n b) emit.Idb.broadcasts);
    }
  in
  ignore (Dex_net.Runner.run (Dex_net.Runner.config ~n make))

let instance margin =
  let rng = Dex_stdext.Prng.create ~seed:(margin * 17) in
  let proposals = Dex_workload.Input_gen.with_freq_margin ~rng ~n:7 ~margin in
  fun () ->
    ignore
      (Dex_workload.Scenario.run
         (Dex_workload.Scenario.spec ~algo:Dex_workload.Scenario.Dex_freq ~n:7 ~t:1 ~proposals ()))

(* Returns the figures, or fails if a round trip does not reproduce its
   input (the codec and erasure checks double as correctness gates). *)
let fixed () =
  let pair = Dex_condition.Pair.freq ~n:7 ~t:1 in
  let stats =
    Dex_vector.View.stats
      (Dex_vector.Input_vector.to_view (Dex_vector.Input_vector.of_list [ 5; 5; 5; 5; 5; 1; 1 ]))
  in
  let msg = Doracle.Idb (Dex_broadcast.Idb.Echo { origin = 3; payload = 42 }) in
  let encoded = Codec.encode Doracle.codec msg in
  if Codec.decode_exn Doracle.codec encoded <> msg then failwith "codec round trip differs";
  let g = Dex_stdext.Prng.create ~seed:64 in
  let blob = String.init 65536 (fun _ -> Char.chr (Dex_stdext.Prng.int g 256)) in
  let k = Dex_erasure.Rs.data_count ~n:4 ~t:0 in
  let frags = Dex_erasure.Rs.encode ~k ~n:4 blob in
  let survivors = List.init 3 (fun i -> (i + 1, frags.(i + 1))) in
  let len = String.length blob in
  if Dex_erasure.Rs.decode ~k ~n:4 ~len survivors <> Some blob then
    failwith "erasure decode differs from the encoded blob";
  [
    ( "condition.p1_eval_ns",
      per_op ~iters:1_000_000 ~scale:1e9 (fun () ->
          ignore (Sys.opaque_identity (pair.Dex_condition.Pair.p1 stats))) );
    ( "codec.dex_msg_encode_ns",
      per_op ~iters:200_000 ~scale:1e9 (fun () ->
          ignore (Sys.opaque_identity (Codec.encode Doracle.codec msg))) );
    ( "codec.dex_msg_decode_ns",
      per_op ~iters:200_000 ~scale:1e9 (fun () ->
          ignore (Sys.opaque_identity (Codec.decode_exn Doracle.codec encoded))) );
    ("broadcast.idb_round_us", per_op ~iters:200 ~scale:1e6 (fun () -> idb_round 9));
    ("core.instance_us.one_step", per_op ~iters:100 ~scale:1e6 (instance 7));
    ("core.instance_us.two_step", per_op ~iters:100 ~scale:1e6 (instance 3));
    ("core.instance_us.fallback", per_op ~iters:100 ~scale:1e6 (instance 1));
    ( "erasure.encode_us",
      per_op ~iters:20 ~scale:1e6 (fun () ->
          ignore (Sys.opaque_identity (Dex_erasure.Rs.encode ~k ~n:4 blob))) );
    ( "erasure.decode_us",
      per_op ~iters:20 ~scale:1e6 (fun () ->
          ignore (Sys.opaque_identity (Dex_erasure.Rs.decode ~k ~n:4 ~len survivors))) );
  ]

(* The generator's own codec calls, replayed over the requests it sent and
   the replies it received (ns per frame). *)
let wire ~requests ~replies =
  let reqs = Array.of_list requests in
  let frames = Array.of_list (List.map (Codec.encode Wire.reply_codec) replies) in
  let each arr f =
    if Array.length arr = 0 then 0.0
    else
      per_op ~iters:(max 1 (20_000 / Array.length arr)) ~scale:1e9 (fun () -> Array.iter f arr)
      /. float_of_int (Array.length arr)
  in
  [
    ( "wire.request_encode_ns",
      each reqs (fun r -> ignore (Sys.opaque_identity (Codec.Frame.to_string Wire.request_codec r)))
    );
    ( "wire.reply_decode_ns",
      each frames (fun f -> ignore (Sys.opaque_identity (Codec.decode_exn Wire.reply_codec f))) );
  ]
