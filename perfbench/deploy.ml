(* Live deployments, each in its own forked child process.

   OCaml threads in one process share one runtime lock, so a generator
   living next to the replicas would timestamp behind their handlers. The
   deployment therefore runs in a child; the parent keeps only the
   single-threaded generator and talks to the child over a pipe pair
   (marshalled commands and replies).

   A traced deployment lends [Server.launch] a mesh whose transport is
   wrapped in a counting and timing layer, and samples admission backlogs
   and the mesh loop's post round-trip on a fixed cadence — all from
   outside the library, through its public functions. *)

open Util
module R = Dex_metrics.Registry
module Transport = Dex_runtime.Transport
module Reactor = Dex_runtime.Reactor

type shape = {
  n : int;
  t : int;
  mute : int list;
  durable : bool;
  coded : bool;  (** erasure-coded batch dissemination instead of full batches *)
}

type cmd = Mark | Snap | Final | Quit

type probe = {
  sends : int;
  bytes : int;
  send_us : float array;  (** p50, p99 *)
  handler_us : float array;  (** p50, p99 *)
  backlog_p99 : float;
  tick_ns : float;  (** median post round-trip on the mesh loop *)
}
(** What the tracing wrappers saw since the last [Mark]. *)

type snap = { net : R.snapshot; replicas : (int * R.snapshot) list; probe : probe option }

type final = {
  compared : int;
  violations : int;
  digests : (int * int) list;
  states : (int * (string * int) list) list;
  converged : bool;
  rss_mb : float;
}

type reply = Ready of (int * int) list | Snapped of snap | Finished of final

module Tracer = struct
  type t = {
    lock : Mutex.t;
    mutable sends : int;
    mutable bytes : int;
    send_us : Fbuf.t;
    handler_us : Fbuf.t;
    backlog : Fbuf.t;
    tick_ns : Fbuf.t;
    last_ret : float array;  (** per pid: when its last [recv] returned a message *)
  }

  let create ~pids =
    { lock = Mutex.create (); sends = 0; bytes = 0; send_us = Fbuf.create ();
      handler_us = Fbuf.create (); backlog = Fbuf.create (); tick_ns = Fbuf.create ();
      last_ret = Array.make pids 0.0 }

  let locked tr f =
    Mutex.lock tr.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock tr.lock) f

  let reset tr =
    locked tr (fun () ->
        tr.sends <- 0;
        tr.bytes <- 0;
        List.iter Fbuf.clear [ tr.send_us; tr.handler_us; tr.backlog; tr.tick_ns ])

  (* Send: count, size (through the deployment's own codec) and time each
     call. Receive: a node thread calls [recv] again right after handling
     the previous message, so the gap between a [recv] returning a message
     and the same pid's next [recv] is that message's handler time. *)
  let wrap tr ~size (inner : 'm Transport.t) : 'm Transport.t =
    {
      inner with
      Transport.send =
        (fun ~src ~dst m ->
          let b = size m in
          let t0 = now () in
          inner.Transport.send ~src ~dst m;
          let dt = now () -. t0 in
          locked tr (fun () ->
              tr.sends <- tr.sends + 1;
              tr.bytes <- tr.bytes + b;
              Fbuf.push tr.send_us (dt *. 1e6)));
      recv =
        (fun ~me ~timeout ->
          let tracked = me >= 0 && me < Array.length tr.last_ret in
          (if tracked then
             let last = tr.last_ret.(me) in
             if last > 0.0 then begin
               tr.last_ret.(me) <- 0.0;
               let dt = now () -. last in
               locked tr (fun () -> Fbuf.push tr.handler_us (dt *. 1e6))
             end);
          let r = inner.Transport.recv ~me ~timeout in
          (match r with Some _ when tracked -> tr.last_ret.(me) <- now () | _ -> ());
          r);
    }

  let probe tr =
    locked tr (fun () ->
        let q b = let a = Fbuf.sorted b in [| quantile a 0.5; quantile a 0.99 |] in
        {
          sends = tr.sends;
          bytes = tr.bytes;
          send_us = q tr.send_us;
          handler_us = q tr.handler_us;
          backlog_p99 = quantile (Fbuf.sorted tr.backlog) 0.99;
          tick_ns = quantile (Fbuf.sorted tr.tick_ns) 0.5;
        })

  (* Every 5 ms: each replica's admission backlog; every 20 ms: how long a
     closure posted to the mesh loop waits to run. *)
  let sampler tr ~backlogs ~reactor stop =
    Thread.create
      (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          Thread.delay 0.005;
          let bs = backlogs () in
          locked tr (fun () -> List.iter (fun b -> Fbuf.push tr.backlog (float_of_int b)) bs);
          incr i;
          if !i mod 4 = 0 then begin
            let m = Mutex.create () and c = Condition.create () and fired = ref false in
            let t0 = now () in
            Reactor.post reactor (fun () ->
                Mutex.lock m;
                fired := true;
                Condition.signal c;
                Mutex.unlock m);
            Mutex.lock m;
            while not !fired do
              Condition.wait c m
            done;
            Mutex.unlock m;
            let dt = now () -. t0 in
            locked tr (fun () -> Fbuf.push tr.tick_ns (dt *. 1e9))
          end
        done)
      ()
end

(* The dex lane over the oracle underlying consensus, with [dex_server
   serve]'s batching defaults: a 4 ms batcher tick and a 2 ms minimum
   request age. *)
module S = Dex_service.Server.Make (Dex_core.Dex.Lane (Dex_underlying.Uc_oracle))

let config (w : shape) ~data_dir =
  let pair = Dex_condition.Pair.freq ~n:w.n ~t:w.t in
  let dissemination = Dex_erasure.Dissemination.(if w.coded then Coded else Full) in
  S.config ?data_dir ~batch_delay:0.004 ~settle:0.002 ~dissemination ~pair:(fun _ -> pair)
    ~n:w.n ~t:w.t ()

let roles (w : shape) p =
  if List.mem p w.mute then Dex_service.Server.Mute else Dex_service.Server.Correct

(* The mesh [Server.launch] would build for itself — a primary loop plus
   shard loops when there are cores to run them — with the tracing
   wrapper over its transport. Returns the deployment, the primary loop
   and the teardown of the lent loops. *)
let launch_traced (w : shape) cfg tr =
  let net_metrics = R.create () in
  let primary = Reactor.create ~metrics:net_metrics ~name:"mesh" () in
  let cores = Domain.recommended_domain_count () in
  let shards =
    Array.init
      (min 3 (max 0 (min (w.n - 1) (cores - 1))))
      (fun i -> Reactor.create ~name:(Printf.sprintf "mesh-%d" (i + 1)) ())
  in
  let reactor_for =
    if Array.length shards = 0 then None
    else
      let pool = Array.append [| primary |] shards in
      Some (fun pid -> pool.(pid mod Array.length pool))
  in
  let pids = Dex_net.Pid.all ~n:w.n @ List.map fst (S.Log.extra (S.log_config cfg)) in
  let inner =
    Transport.Tcp_codec.create ~codec:S.smsg_codec ~metrics:net_metrics ~reactor:primary
      ?reactor_for ~pids ()
  in
  let size m = String.length (Dex_codec.Codec.encode S.smsg_codec m) in
  let runtime =
    { S.sr_transport = Tracer.wrap tr ~size inner; sr_net_metrics = net_metrics;
      sr_net_reactor = Some primary; sr_service_loop_for = None }
  in
  let d = S.launch ~roles:(roles w) ~runtime cfg in
  (d, primary, fun () -> Reactor.stop primary; Array.iter Reactor.stop shards)

(* Wait (up to 5 s) until every correct replica reports the same apply
   frontier twice in a row, then read the gates' inputs. *)
let final_report (d : S.deployment) =
  let frontiers () = List.map (fun (_, s) -> S.apply_frontier s) d.S.servers in
  let deadline = now () +. 5.0 in
  let rec wait prev =
    let f = frontiers () in
    let same = match f with [] -> true | x :: rest -> List.for_all (( = ) x) rest in
    if (same && f = prev) || now () > deadline then same
    else begin
      Thread.delay 0.05;
      wait f
    end
  in
  let converged = wait [] in
  let compared, violations = S.agreement_violations d in
  {
    compared;
    violations = List.length violations;
    digests = List.map (fun (p, s) -> (p, S.state_digest s)) d.S.servers;
    states = List.map (fun (p, s) -> (p, S.state_snapshot s)) d.S.servers;
    converged;
    rss_mb = peak_rss_mb ();
  }

(* The child's main: launch, report ports, answer commands until [Quit]
   or the parent goes away. *)
let serve (w : shape) ~trace ~data_dir ic oc =
  let send (r : reply) =
    Marshal.to_channel oc r [];
    flush oc
  in
  let cfg = config w ~data_dir in
  let tr = if trace then Some (Tracer.create ~pids:(w.n + 8)) else None in
  let d, stop_sampler, stop_loops =
    match tr with
    | None -> (S.launch ~roles:(roles w) cfg, ignore, ignore)
    | Some tr ->
      let d, primary, stop_loops = launch_traced w cfg tr in
      let stop = Atomic.make false in
      let backlogs () = List.map (fun (_, s) -> (S.stats s).S.backlog) d.S.servers in
      let th = Tracer.sampler tr ~backlogs ~reactor:primary stop in
      (d, (fun () -> Atomic.set stop true; Thread.join th), stop_loops)
  in
  send (Ready d.S.ports);
  let snapshot () =
    {
      net = R.snapshot d.S.net_metrics;
      replicas = List.map (fun (p, s) -> (p, R.snapshot (S.metrics s))) d.S.servers;
      probe = Option.map Tracer.probe tr;
    }
  in
  let rec loop () =
    match (Marshal.from_channel ic : cmd) with
    | Mark ->
      Option.iter Tracer.reset tr;
      send (Snapped (snapshot ()));
      loop ()
    | Snap ->
      send (Snapped (snapshot ()));
      loop ()
    | Final ->
      send (Finished (final_report d));
      loop ()
    | Quit | (exception End_of_file) -> ()
  in
  loop ();
  stop_sampler ();
  S.shutdown d;
  stop_loops ()

(* ----------------------------- parent side ----------------------------- *)

type child = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  ports : (int * int) list;  (** (replica pid, client port) of correct replicas *)
  dir : string option;
}

let launch ~trace ~dir (w : shape) =
  flush stdout;
  flush stderr;
  let c2p_r, c2p_w = Unix.pipe () and p2c_r, p2c_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close c2p_r;
    Unix.close p2c_w;
    let ic = Unix.in_channel_of_descr p2c_r and oc = Unix.out_channel_of_descr c2p_w in
    let code =
      try
        serve w ~trace ~data_dir:dir ic oc;
        0
      with e ->
        Printf.eprintf "perfbench deployment: %s\n%!" (Printexc.to_string e);
        1
    in
    (* [_exit]: skip at_exit, so the parent's buffers are not flushed twice *)
    Unix._exit code
  | pid -> (
    Unix.close c2p_w;
    Unix.close p2c_r;
    let ic = Unix.in_channel_of_descr c2p_r and oc = Unix.out_channel_of_descr p2c_w in
    match (Marshal.from_channel ic : reply) with
    | Ready ports -> { pid; ic; oc; ports; dir }
    | _ -> failwith "deployment: unexpected first reply"
    | exception End_of_file -> failwith "deployment: child died during launch")

let call c cmd =
  Marshal.to_channel c.oc (cmd : cmd) [];
  flush c.oc;
  (Marshal.from_channel c.ic : reply)

let snap ?(mark = false) c =
  match call c (if mark then Mark else Snap) with
  | Snapped s -> s
  | _ -> failwith "deployment: expected a snapshot"

let final c = match call c Final with Finished f -> f | _ -> failwith "deployment: expected final"

(* Ask the child to shut down; kill it if it has not exited in 20 s. Always
   reaps it and removes its data dir. *)
let stop c =
  (try
     Marshal.to_channel c.oc Quit [];
     flush c.oc
   with Sys_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ ->
      if now () > deadline then begin
        Unix.kill c.pid Sys.sigkill;
        ignore (Unix.waitpid [] c.pid)
      end
      else begin
        Unix.sleepf 0.02;
        wait ()
      end
    | _ -> ()
  in
  wait ();
  close_in_noerr c.ic;
  close_out_noerr c.oc;
  Option.iter rm_rf c.dir
