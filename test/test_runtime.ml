(* Tests for dex_runtime: mailboxes, the in-memory and TCP transports, and
   full DEX consensus running on real threads — the same Protocol.instance
   values the simulator drives. *)

open Dex_condition
open Dex_net
open Dex_underlying
open Dex_runtime

module D = Dex_core.Dex.Make (Uc_oracle)

let test_mailbox_fifo () =
  let box = Mailbox.create () in
  Mailbox.push box 1;
  Mailbox.push box 2;
  Alcotest.(check (option int)) "first" (Some 1) (Mailbox.pop ~timeout:0.1 box);
  Alcotest.(check (option int)) "second" (Some 2) (Mailbox.pop ~timeout:0.1 box)

let test_mailbox_timeout () =
  let box : int Mailbox.t = Mailbox.create () in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check (option int)) "timeout" None (Mailbox.pop ~timeout:0.05 box);
  Alcotest.(check bool) "waited" true (Unix.gettimeofday () -. t0 >= 0.04)

let test_mailbox_close_wakes () =
  let box : int Mailbox.t = Mailbox.create () in
  Mailbox.close box;
  Alcotest.(check (option int)) "closed" None (Mailbox.pop ~timeout:1.0 box);
  Mailbox.push box 9;
  Alcotest.(check int) "push after close dropped" 0 (Mailbox.length box)

let test_mailbox_cross_thread () =
  let box = Mailbox.create () in
  let producer =
    Thread.create
      (fun () ->
        Thread.delay 0.01;
        Mailbox.push box 42)
      ()
  in
  Alcotest.(check (option int)) "received" (Some 42) (Mailbox.pop ~timeout:1.0 box);
  Thread.join producer

let test_mem_transport_roundtrip () =
  let tr = Transport.Mem.create ~pids:[ 0; 1 ] () in
  tr.Transport.send ~src:0 ~dst:1 "hello";
  (match tr.Transport.recv ~me:1 ~timeout:0.5 with
  | Some (src, m) ->
    Alcotest.(check int) "src" 0 src;
    Alcotest.(check string) "payload" "hello" m
  | None -> Alcotest.fail "nothing received");
  tr.Transport.close ()

let test_mem_transport_unknown_dst () =
  let tr = Transport.Mem.create ~pids:[ 0 ] () in
  tr.Transport.send ~src:0 ~dst:99 "lost";
  Alcotest.(check bool) "no delivery" true (tr.Transport.recv ~me:0 ~timeout:0.05 = None);
  tr.Transport.close ()

(* A TCP transport runs on a reactor the caller owns: stop it once the
   transport is closed. *)
let with_reactor f =
  let r = Reactor.create () in
  Fun.protect ~finally:(fun () -> Reactor.stop r) (fun () -> f r)

let test_tcp_transport_roundtrip () =
  with_reactor @@ fun r ->
  let codec = Dex_codec.Codec.(pair int string) in
  let tr = Transport.Tcp_codec.create ~codec ~reactor:r ~pids:[ 0; 1 ] () in
  tr.Transport.send ~src:0 ~dst:1 (7, "payload");
  (match tr.Transport.recv ~me:1 ~timeout:2.0 with
  | Some (src, (k, s)) ->
    Alcotest.(check int) "src" 0 src;
    Alcotest.(check int) "fst" 7 k;
    Alcotest.(check string) "snd" "payload" s
  | None -> Alcotest.fail "nothing received over TCP");
  tr.Transport.close ()

let test_tcp_transport_many_messages () =
  with_reactor @@ fun r ->
  let tr = Transport.Tcp_codec.create ~codec:Dex_codec.Codec.int ~reactor:r ~pids:[ 0; 1 ] () in
  for i = 0 to 99 do
    tr.Transport.send ~src:0 ~dst:1 i
  done;
  let received = ref [] in
  let rec drain () =
    if List.length !received < 100 then
      match tr.Transport.recv ~me:1 ~timeout:2.0 with
      | Some (_, i) ->
        received := i :: !received;
        drain ()
      | None -> ()
  in
  drain ();
  Alcotest.(check int) "all arrived" 100 (List.length !received);
  (* TCP preserves per-connection order. *)
  Alcotest.(check (list int)) "in order" (List.init 100 Fun.id) (List.rev !received);
  tr.Transport.close ()

let test_link_stats_counters () =
  (* Two Tcp_codec meshes posing as two processes: A hosts pid 0, B hosts
     pid 1, cross-wired through [remotes]. A healthy send moves no
     link-health counter; killing B's endpoint makes A's sends burn the
     bounded retry budget (backoffs) and then abandon (drops); an unknown
     destination is abandoned immediately. *)
  with_reactor @@ fun r ->
  let codec = Dex_codec.Codec.string in
  let port1 = ref 0 in
  let b =
    Transport.Tcp_codec.create ~codec ~reactor:r
      ~on_bind:(fun _ port -> port1 := port)
      ~pids:[ 1 ] ()
  in
  let a =
    Transport.Tcp_codec.create ~codec ~reactor:r ~remotes:[ (1, !port1) ] ~pids:[ 0 ] ()
  in
  a.Transport.send ~src:0 ~dst:1 "ping";
  (match b.Transport.recv ~me:1 ~timeout:2.0 with
  | Some (0, "ping") -> ()
  | _ -> Alcotest.fail "healthy delivery failed");
  let healthy = a.Transport.link_stats () in
  Alcotest.(check int) "no backoffs while healthy" 0 healthy.Transport.backoffs;
  Alcotest.(check int) "no drops while healthy" 0 healthy.Transport.drops;
  b.Transport.close ();
  (* Wait for the closed listener to actually refuse connections. *)
  let refused = ref false in
  let tries = ref 0 in
  while (not !refused) && !tries < 100 do
    incr tries;
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, !port1));
       Thread.delay 0.01
     with Unix.Unix_error _ -> refused := true);
    try Unix.close s with Unix.Unix_error _ -> ()
  done;
  Alcotest.(check bool) "closed listener refuses connects" true !refused;
  (* A fresh endpoint pointed at the dead listener: every connect is
     refused, so each send burns the full retry budget and is abandoned.
     The budget runs on reactor timers, so the counters settle after
     [send] returns: poll until both messages are dropped. *)
  let c =
    Transport.Tcp_codec.create ~codec ~reactor:r ~remotes:[ (1, !port1) ] ~pids:[ 2 ] ()
  in
  c.Transport.send ~src:2 ~dst:1 "lost-1";
  c.Transport.send ~src:2 ~dst:1 "lost-2";
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (c.Transport.link_stats ()).Transport.drops < 2 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let broken = c.Transport.link_stats () in
  Alcotest.(check bool) "backoffs counted" true (broken.Transport.backoffs > 0);
  Alcotest.(check int) "both messages dropped" 2 broken.Transport.drops;
  Alcotest.(check int) "per-destination drop count" 2 (c.Transport.drop_count ~dst:1);
  c.Transport.send ~src:2 ~dst:99 "nowhere";
  Alcotest.(check int) "unknown dst dropped immediately" 1 (c.Transport.drop_count ~dst:99);
  (* Per-peer breakdown: the dead listener's losses must be attributed to
     pid 1 and the unknown destination's to pid 99, not blurred together. *)
  (match List.assoc_opt 1 (c.Transport.peer_links ()) with
  | Some s ->
    Alcotest.(check int) "peer 1 drops" 2 s.Transport.drops;
    Alcotest.(check bool) "peer 1 backoffs" true (s.Transport.backoffs > 0)
  | None -> Alcotest.fail "peer 1 missing from peer_links");
  (match List.assoc_opt 99 (c.Transport.peer_links ()) with
  | Some s ->
    Alcotest.(check int) "peer 99 drops" 1 s.Transport.drops;
    Alcotest.(check int) "peer 99 backoffs" 0 s.Transport.backoffs
  | None -> Alcotest.fail "peer 99 missing from peer_links");
  c.Transport.close ();
  a.Transport.close ();
  let registry = Dex_metrics.Registry.create () in
  let mem = Transport.Mem.create ~metrics:registry ~pids:[ 0; 1 ] () in
  mem.Transport.send ~src:0 ~dst:1 "m";
  ignore (mem.Transport.recv ~me:1 ~timeout:0.5);
  Alcotest.(check int) "mem reports no reconnects" 0
    (mem.Transport.link_stats ()).Transport.reconnects;
  mem.Transport.send ~src:0 ~dst:42 "void";
  let snap = Dex_metrics.Registry.snapshot registry in
  Alcotest.(check int) "registry mirrors total drops" 1
    (Dex_metrics.Registry.get snap "net/drops");
  Alcotest.(check int) "registry mirrors per-peer drops" 1
    (Dex_metrics.Registry.get snap "net/drops/peer42");
  mem.Transport.close ()

let run_dex_cluster ~transport_kind ~proposals =
  let pair = Pair.freq ~n:7 ~t:1 in
  let cfg = D.config ~pair () in
  let extra = D.extra cfg in
  let pids = Pid.all ~n:7 @ List.map fst extra in
  let reactor = match transport_kind with `Mem -> None | `Tcp -> Some (Reactor.create ()) in
  let transport =
    match reactor with
    | None -> Transport.Mem.create ~jitter:0.002 ~seed:5 ~pids ()
    | Some r -> Transport.Tcp_codec.create ~codec:D.codec ~reactor:r ~pids ()
  in
  let cluster =
    Cluster.create ~transport ~n:7 ~extra (fun p ->
        D.instance cfg ~me:p ~proposal:proposals.(p))
  in
  Cluster.start cluster;
  let ok = Cluster.await ~timeout:20.0 cluster in
  let decisions = Cluster.decisions cluster in
  Cluster.shutdown cluster;
  Option.iter Reactor.stop reactor;
  (ok, decisions)

let check_cluster_consensus ~expect_value ~expect_tag (ok, decisions) =
  Alcotest.(check bool) "all decided" true ok;
  Array.iter
    (function
      | Some d ->
        Alcotest.(check int) "value" expect_value d.Cluster.value;
        (match expect_tag with
        | Some tag -> Alcotest.(check string) "tag" tag d.Cluster.tag
        | None -> ())
      | None -> Alcotest.fail "missing decision")
    decisions

let test_cluster_mem_unanimous () =
  check_cluster_consensus ~expect_value:5 ~expect_tag:(Some "one-step")
    (run_dex_cluster ~transport_kind:`Mem ~proposals:(Array.make 7 5))

let test_cluster_mem_mixed () =
  (* margin 3: two-step or slower depending on real interleaving, but always
     value 5 (it is the only F-candidate among correct processes: the
     two-step predicates or the oracle majority both pick 5). *)
  let ok, decisions = run_dex_cluster ~transport_kind:`Mem ~proposals:[| 5; 5; 5; 5; 5; 1; 1 |] in
  Alcotest.(check bool) "all decided" true ok;
  let values =
    Array.to_list decisions |> List.filter_map (Option.map (fun d -> d.Cluster.value))
  in
  Alcotest.(check int) "seven decisions" 7 (List.length values);
  Alcotest.(check (list int)) "agreement" [ 5 ] (List.sort_uniq compare values)

let test_cluster_tcp_unanimous () =
  check_cluster_consensus ~expect_value:9 ~expect_tag:(Some "one-step")
    (run_dex_cluster ~transport_kind:`Tcp ~proposals:(Array.make 7 9))

let test_cluster_decision_wall_times () =
  let ok, decisions = run_dex_cluster ~transport_kind:`Mem ~proposals:(Array.make 7 5) in
  Alcotest.(check bool) "decided" true ok;
  Array.iter
    (function
      | Some d -> Alcotest.(check bool) "wall time sane" true (d.Cluster.wall >= 0.0 && d.Cluster.wall < 20.0)
      | None -> ())
    decisions

module Dleader = Dex_core.Dex.Make (Uc_leader)

let test_cluster_leader_uc_on_threads () =
  (* The leader-based UC's timers run as real sleeps on the thread runtime;
     shrink the round timeout so the fallback path completes quickly. A
     pessimistic input forces the UC rounds to actually run. *)
  let saved = !Uc_leader.timeout_base in
  Uc_leader.timeout_base := 0.25;
  Fun.protect
    ~finally:(fun () -> Uc_leader.timeout_base := saved)
    (fun () ->
      let pair = Pair.freq ~n:7 ~t:1 in
      let cfg = Dleader.config ~pair () in
      let proposals = [| 5; 5; 5; 5; 1; 1; 1 |] in
      let pids = Pid.all ~n:7 in
      let transport = Transport.Mem.create ~jitter:0.001 ~seed:9 ~pids () in
      let cluster =
        Cluster.create ~transport ~n:7 (fun p ->
            Dleader.instance cfg ~me:p ~proposal:proposals.(p))
      in
      Cluster.start cluster;
      let ok = Cluster.await ~timeout:30.0 cluster in
      let decisions = Cluster.decisions cluster in
      Cluster.shutdown cluster;
      Alcotest.(check bool) "all decided" true ok;
      let values =
        Array.to_list decisions |> List.filter_map (Option.map (fun d -> d.Cluster.value))
      in
      Alcotest.(check int) "seven decisions" 7 (List.length values);
      Alcotest.(check int) "agreement" 1 (List.length (List.sort_uniq compare values)))

(* ----------------------- reactor ----------------------- *)

(* A descriptor number past FD_SETSIZE without opening 1024 files: the
   registration guard must reject it before select ever sees it. *)
external fd_of_int : int -> Unix.file_descr = "%identity"

let await ?(timeout = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()

let test_reactor_timer_ordering () =
  let r = Reactor.create () in
  let mu = Mutex.create () in
  let fired = ref [] in
  let note tag () =
    Mutex.lock mu;
    fired := tag :: !fired;
    Mutex.unlock mu
  in
  (* Out-of-order scheduling must fire in deadline order; equal deadlines
     fire in scheduling order. *)
  ignore (Reactor.after r 0.03 (note "c"));
  ignore (Reactor.after r 0.01 (note "a"));
  ignore (Reactor.after r 0.02 (note "b"));
  ignore (Reactor.after r 0.05 (note "tie1"));
  ignore (Reactor.after r 0.05 (note "tie2"));
  Alcotest.(check bool) "all timers fired" true
    (await (fun () -> List.length !fired = 5));
  Alcotest.(check (list string)) "deadline order, ties in scheduling order"
    [ "a"; "b"; "c"; "tie1"; "tie2" ]
    (List.rev !fired);
  Reactor.stop r

let test_reactor_periodic_cancel () =
  let r = Reactor.create () in
  let n = ref 0 in
  let tm = Reactor.every r 0.005 (fun () -> incr n) in
  Alcotest.(check bool) "fires repeatedly" true (await (fun () -> !n >= 3));
  Reactor.cancel r tm;
  (* One firing may already be in flight when cancel lands; after it the
     count must freeze. *)
  Thread.delay 0.05;
  let frozen = !n in
  Thread.delay 0.05;
  Alcotest.(check int) "no firings after cancel" frozen !n;
  Reactor.cancel r tm;
  (* double cancel is a no-op *)
  ignore (Reactor.after r 0.01 (fun () -> ()));
  Alcotest.(check bool) "loop still alive" true (await (fun () -> Reactor.timer_count r <= 1));
  Reactor.stop r;
  Alcotest.(check bool) "stopped" true (Reactor.stopped r)

let test_reactor_deregister_during_dispatch () =
  (* Two descriptors readable in the same select round; whichever handler
     runs first deregisters both. The dispatcher re-checks registration
     before each callback, so exactly one handler may fire. *)
  let r = Reactor.create () in
  let a_r, a_w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let b_r, b_w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let mu = Mutex.create () in
  let fired = ref 0 in
  let handler self other () =
    Mutex.lock mu;
    incr fired;
    Mutex.unlock mu;
    ignore (Unix.read self (Bytes.create 8) 0 8);
    Reactor.remove r self;
    Reactor.remove r other
  in
  (* Register both before making either readable: if a byte landed first,
     the loop could dispatch one handler before the other fd is registered —
     its remove would be a no-op and the late registration would fire. *)
  Reactor.on_readable r a_r (handler a_r b_r);
  Reactor.on_readable r b_r (handler b_r a_r);
  ignore (Unix.write a_w (Bytes.of_string "x") 0 1);
  ignore (Unix.write b_w (Bytes.of_string "x") 0 1);
  Alcotest.(check bool) "one handler ran" true (await (fun () -> !fired >= 1));
  Thread.delay 0.05;
  Alcotest.(check int) "removed handler never fired" 1 !fired;
  Alcotest.(check int) "no descriptors left" 0 (Reactor.fd_count r);
  Reactor.stop r;
  List.iter Unix.close [ a_r; a_w; b_r; b_w ]

let test_reactor_fd_setsize_guard () =
  let r = Reactor.create () in
  let too_big = fd_of_int (Reactor.max_fds + 7) in
  let rejected f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "on_readable rejects" true
    (rejected (fun () -> Reactor.on_readable r too_big (fun () -> ())));
  Alcotest.(check bool) "on_writable rejects" true
    (rejected (fun () -> Reactor.on_writable r too_big (fun () -> ())));
  Alcotest.(check int) "nothing registered" 0 (Reactor.fd_count r);
  Reactor.stop r

let test_reactor_conn_partial_frames () =
  (* Frames arriving byte-dribbled and coalesced must reassemble equally;
     EOF fires on_close exactly once. *)
  let r = Reactor.create () in
  let near, far = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let codec = Dex_codec.Codec.string in
  let reader = Dex_codec.Codec.Frame.Reader.create codec in
  let box = Mailbox.create () in
  let closes = ref 0 in
  let conn =
    Reactor.Conn.attach r near
      ~on_bytes:(fun buf len ->
        List.iter (Mailbox.push box) (Dex_codec.Codec.Frame.Reader.feed reader buf len))
      ~on_close:(fun () -> incr closes)
  in
  (* One frame, one byte at a time. *)
  let f1 = Dex_codec.Codec.Frame.to_string codec "dribble" in
  String.iter
    (fun ch ->
      ignore (Unix.write far (Bytes.make 1 ch) 0 1);
      Thread.delay 0.001)
    f1;
  Alcotest.(check (option string)) "dribbled frame" (Some "dribble")
    (Mailbox.pop ~timeout:2.0 box);
  (* Two frames in a single write. *)
  let pair =
    Dex_codec.Codec.Frame.to_string codec "first" ^ Dex_codec.Codec.Frame.to_string codec "second"
  in
  let b = Bytes.of_string pair in
  ignore (Unix.write far b 0 (Bytes.length b));
  Alcotest.(check (option string)) "coalesced 1" (Some "first") (Mailbox.pop ~timeout:2.0 box);
  Alcotest.(check (option string)) "coalesced 2" (Some "second") (Mailbox.pop ~timeout:2.0 box);
  Unix.close far;
  Alcotest.(check bool) "eof close" true (await (fun () -> !closes = 1));
  Alcotest.(check bool) "conn reports closed" true (not (Reactor.Conn.is_open conn));
  Reactor.stop r

let test_reactor_conn_write_backpressure () =
  (* 200 x 8 KiB frames overflow the socket buffer, forcing partial writes
     and queue growth; a slow reader on the far end must still see every
     frame whole and in order. *)
  let r = Reactor.create () in
  let near, far = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let codec = Dex_codec.Codec.string in
  let conn =
    Reactor.Conn.attach r near ~on_bytes:(fun _ _ -> ()) ~on_close:(fun () -> ())
  in
  let frames = 200 in
  let payload i = Printf.sprintf "%04d:%s" i (String.make 8192 (Char.chr (97 + (i mod 26)))) in
  for i = 0 to frames - 1 do
    Reactor.Conn.send conn (Dex_codec.Codec.Frame.to_string codec (payload i))
  done;
  let reader = Dex_codec.Codec.Frame.Reader.create codec in
  let got = ref [] in
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while List.length !got < frames && Unix.gettimeofday () < deadline do
    match Unix.select [ far ] [] [] 1.0 with
    | [], _, _ -> ()
    | _ ->
      let n = Unix.read far buf 0 (Bytes.length buf) in
      if n > 0 then
        List.iter
          (fun s -> got := s :: !got)
          (Dex_codec.Codec.Frame.Reader.feed reader buf n);
      Thread.delay 0.001 (* keep the reader slower than the writer *)
  done;
  let got = List.rev !got in
  Alcotest.(check int) "every frame arrived" frames (List.length got);
  List.iteri
    (fun i s -> if s <> payload i then Alcotest.failf "frame %d corrupted" i)
    got;
  Alcotest.(check bool) "backpressure was observed" true
    (Reactor.Conn.hwm conn > 8192);
  Alcotest.(check int) "queue fully drained" 0 (Reactor.Conn.pending_bytes conn);
  Reactor.Conn.close conn;
  Reactor.stop r;
  Unix.close far

let test_tcp_reactor_roundtrip () =
  let r = Reactor.create () in
  let codec = Dex_codec.Codec.string in
  let port = ref 0 in
  let b =
    Transport.Tcp_codec.create ~codec ~reactor:r
      ~on_bind:(fun _ p -> port := p)
      ~pids:[ 1 ] ()
  in
  let a =
    Transport.Tcp_codec.create ~codec ~reactor:r ~remotes:[ (1, !port) ] ~pids:[ 0 ] ()
  in
  for i = 0 to 49 do
    a.Transport.send ~src:0 ~dst:1 (Printf.sprintf "m%d" i)
  done;
  let received = ref [] in
  let rec drain () =
    if List.length !received < 50 then
      match b.Transport.recv ~me:1 ~timeout:2.0 with
      | Some (0, m) ->
        received := m :: !received;
        drain ()
      | Some (src, _) -> Alcotest.failf "wrong src %d" src
      | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "all arrived in order"
    (List.init 50 (Printf.sprintf "m%d"))
    (List.rev !received);
  a.Transport.close ();
  b.Transport.close ();
  Reactor.stop r

let test_tcp_reactor_reconnect_while_writable () =
  (* Kill the peer endpoint, keep sending into the (possibly still armed)
     write path, then resurrect a listener on the same port: the frames
     buffered across the teardown must come out whole and in order on the
     fresh connection — the reconnect-while-writable race. *)
  let r = Reactor.create () in
  let codec = Dex_codec.Codec.string in
  let frame_codec = Dex_codec.Codec.pair Dex_codec.Codec.int codec in
  let port = ref 0 in
  let b =
    Transport.Tcp_codec.create ~codec ~reactor:r
      ~on_bind:(fun _ p -> port := p)
      ~pids:[ 1 ] ()
  in
  let a =
    Transport.Tcp_codec.create ~codec ~reactor:r ~remotes:[ (1, !port) ] ~pids:[ 0 ] ()
  in
  a.Transport.send ~src:0 ~dst:1 "before";
  (match b.Transport.recv ~me:1 ~timeout:2.0 with
  | Some (0, "before") -> ()
  | _ -> Alcotest.fail "healthy delivery failed");
  b.Transport.close ();
  (* Re-bind the freed port ourselves, then send while A's link is somewhere
     between armed-writable, torn down and retrying. *)
  let lst = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lst Unix.SO_REUSEADDR true;
  Unix.bind lst (Unix.ADDR_INET (Unix.inet_addr_loopback, !port));
  Unix.listen lst 4;
  a.Transport.send ~src:0 ~dst:1 "during-1";
  a.Transport.send ~src:0 ~dst:1 "during-2";
  let reader = Dex_codec.Codec.Frame.Reader.create frame_codec in
  let got = ref [] in
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let conns = ref [] in
  while List.length !got < 2 && Unix.gettimeofday () < deadline do
    match Unix.select (lst :: !conns) [] [] 0.2 with
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if fd = lst then begin
            let c, _ = Unix.accept lst in
            conns := c :: !conns
          end
          else
            let n = Unix.read fd buf 0 (Bytes.length buf) in
            if n > 0 then
              List.iter
                (fun f -> got := f :: !got)
                (Dex_codec.Codec.Frame.Reader.feed reader buf n))
        ready
  done;
  Alcotest.(check (list (pair int string))) "buffered frames replayed in order"
    [ (0, "during-1"); (0, "during-2") ]
    (List.rev !got);
  a.Transport.close ();
  List.iter Unix.close (lst :: !conns);
  Reactor.stop r

let test_cluster_double_start_rejected () =
  let transport = Transport.Mem.create ~pids:[ 0 ] () in
  let cluster =
    Cluster.create ~transport ~n:1 (fun _ ->
        { Protocol.start = (fun () -> []); on_message = (fun ~now:_ ~from:_ () -> []) })
  in
  Cluster.start cluster;
  Alcotest.check_raises "double start" (Invalid_argument "Cluster.start: already started")
    (fun () -> Cluster.start cluster);
  Cluster.shutdown cluster

let () =
  Alcotest.run "dex_runtime"
    [
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "timeout" `Quick test_mailbox_timeout;
          Alcotest.test_case "close wakes" `Quick test_mailbox_close_wakes;
          Alcotest.test_case "cross-thread" `Quick test_mailbox_cross_thread;
        ] );
      ( "transport",
        [
          Alcotest.test_case "mem roundtrip" `Quick test_mem_transport_roundtrip;
          Alcotest.test_case "mem unknown dst" `Quick test_mem_transport_unknown_dst;
          Alcotest.test_case "tcp roundtrip" `Quick test_tcp_transport_roundtrip;
          Alcotest.test_case "tcp ordering" `Quick test_tcp_transport_many_messages;
          Alcotest.test_case "link stats" `Quick test_link_stats_counters;
        ] );
      ( "reactor",
        [
          Alcotest.test_case "timer ordering" `Quick test_reactor_timer_ordering;
          Alcotest.test_case "periodic cancel" `Quick test_reactor_periodic_cancel;
          Alcotest.test_case "deregister during dispatch" `Quick
            test_reactor_deregister_during_dispatch;
          Alcotest.test_case "FD_SETSIZE guard" `Quick test_reactor_fd_setsize_guard;
          Alcotest.test_case "conn partial frames" `Quick test_reactor_conn_partial_frames;
          Alcotest.test_case "conn write backpressure" `Quick
            test_reactor_conn_write_backpressure;
          Alcotest.test_case "tcp_codec on reactor" `Quick test_tcp_reactor_roundtrip;
          Alcotest.test_case "reconnect while writable" `Quick
            test_tcp_reactor_reconnect_while_writable;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "mem unanimous one-step" `Quick test_cluster_mem_unanimous;
          Alcotest.test_case "mem mixed input" `Quick test_cluster_mem_mixed;
          Alcotest.test_case "tcp unanimous one-step" `Quick test_cluster_tcp_unanimous;
          Alcotest.test_case "wall times" `Quick test_cluster_decision_wall_times;
          Alcotest.test_case "leader UC on threads" `Quick test_cluster_leader_uc_on_threads;
          Alcotest.test_case "double start rejected" `Quick test_cluster_double_start_rejected;
        ] );
    ]
