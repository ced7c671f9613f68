(* Tests for dex_store: WAL append/sync/replay, crash-point injection (torn
   final record, truncated segment, corrupted checksum mid-segment, lsn-chain
   gap, abandoned buffers), segment truncation after snapshots, group commit,
   snapshot install/retention/interrupted-install, and the recovery
   composition. Every crash case must recover exactly the last durable
   prefix — never more, never garbage. *)

open Dex_store

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dex-store-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm dir;
  dir

let payload i = Printf.sprintf "record-%04d-%s" i (String.make 48 'x')

let fill wal k = List.init k (fun i -> Wal.append wal (payload i)) |> ignore

(* Flip one byte at [off] in [path]. *)
let corrupt path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let truncate_to path size =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Unix.ftruncate fd size;
  Unix.close fd

let seg_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".seg")
  |> List.sort compare

(* ------------------------------- WAL ------------------------------- *)

let test_wal_roundtrip () =
  let dir = fresh_dir () in
  let o = Wal.open_ dir in
  Alcotest.(check (list string)) "fresh log empty" [] o.Wal.entries;
  fill o.Wal.wal 10;
  Alcotest.(check int) "last lsn" 10 (Wal.last_lsn o.Wal.wal);
  Alcotest.(check int) "nothing durable yet" 0 (Wal.durable_lsn o.Wal.wal);
  Alcotest.(check int) "watermark after sync" 10 (Wal.sync o.Wal.wal);
  Wal.close o.Wal.wal;
  let o2 = Wal.open_ dir in
  Alcotest.(check (list string))
    "replay in lsn order"
    (List.init 10 payload)
    o2.Wal.entries;
  Alcotest.(check bool) "clean close is not torn" false o2.Wal.torn;
  Alcotest.(check int) "appends continue the chain" 11 (Wal.append o2.Wal.wal "next");
  Wal.close o2.Wal.wal

let test_wal_segment_rotation () =
  let dir = fresh_dir () in
  let o = Wal.open_ ~segment_bytes:512 dir in
  fill o.Wal.wal 30;
  ignore (Wal.sync o.Wal.wal);
  Wal.close o.Wal.wal;
  Alcotest.(check bool) "rotated into several segments" true (List.length (seg_files dir) > 2);
  let o2 = Wal.open_ ~segment_bytes:512 dir in
  Alcotest.(check (list string))
    "replay spans segments"
    (List.init 30 payload)
    o2.Wal.entries;
  Wal.close o2.Wal.wal

let test_wal_torn_final_record () =
  let dir = fresh_dir () in
  let o = Wal.open_ dir in
  fill o.Wal.wal 5;
  ignore (Wal.sync o.Wal.wal);
  Wal.close o.Wal.wal;
  (* A crash mid-write leaves a partial frame at the tail. *)
  let seg = Filename.concat dir (List.hd (seg_files dir)) in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 seg in
  output_string oc "\x00\x00\x00\x30partial-frame-without-checksu";
  close_out oc;
  let o2 = Wal.open_ dir in
  Alcotest.(check (list string)) "prefix survives" (List.init 5 payload) o2.Wal.entries;
  Alcotest.(check bool) "tear detected" true o2.Wal.torn;
  (* The tail was truncated away, so the log extends cleanly. *)
  Alcotest.(check int) "next lsn reuses the torn slot" 6 (Wal.append o2.Wal.wal "six");
  ignore (Wal.sync o2.Wal.wal);
  Wal.close o2.Wal.wal;
  let o3 = Wal.open_ dir in
  Alcotest.(check (list string))
    "extended log replays"
    (List.init 5 payload @ [ "six" ])
    o3.Wal.entries;
  Alcotest.(check bool) "clean after repair" false o3.Wal.torn;
  Wal.close o3.Wal.wal

let test_wal_truncated_segment () =
  let dir = fresh_dir () in
  let o = Wal.open_ dir in
  fill o.Wal.wal 8;
  ignore (Wal.sync o.Wal.wal);
  Wal.close o.Wal.wal;
  let seg = Filename.concat dir (List.hd (seg_files dir)) in
  let size = (Unix.stat seg).Unix.st_size in
  (* Cut into the middle of the final record. *)
  truncate_to seg (size - 20);
  let o2 = Wal.open_ dir in
  Alcotest.(check (list string)) "all but the cut record" (List.init 7 payload) o2.Wal.entries;
  Alcotest.(check bool) "cut detected" true o2.Wal.torn;
  Wal.close o2.Wal.wal

let test_wal_corrupt_mid_segment () =
  let dir = fresh_dir () in
  let o = Wal.open_ ~segment_bytes:512 dir in
  fill o.Wal.wal 30;
  ignore (Wal.sync o.Wal.wal);
  Wal.close o.Wal.wal;
  let segs = seg_files dir in
  Alcotest.(check bool) "several segments" true (List.length segs > 2);
  (* Flip a payload byte inside the FIRST segment's second record: the log
     must cut there, and every later segment — unreachable by replay — must
     be deleted. *)
  let first = Filename.concat dir (List.hd segs) in
  corrupt first (8 + 12 + 60 + 12 + 10);
  let o2 = Wal.open_ ~segment_bytes:512 dir in
  Alcotest.(check (list string)) "only the prefix before the flip" [ payload 0 ] o2.Wal.entries;
  Alcotest.(check bool) "corruption detected" true o2.Wal.torn;
  Alcotest.(check int) "later segments deleted" 1 (List.length (seg_files dir));
  Alcotest.(check int) "appends resume after the cut" 2 (Wal.append o2.Wal.wal "two");
  Wal.close o2.Wal.wal

let test_wal_segment_gap () =
  let dir = fresh_dir () in
  let o = Wal.open_ ~segment_bytes:512 dir in
  fill o.Wal.wal 30;
  ignore (Wal.sync o.Wal.wal);
  Wal.close o.Wal.wal;
  let segs = seg_files dir in
  Alcotest.(check bool) "at least three segments" true (List.length segs >= 3);
  (* Losing a middle segment breaks the lsn chain: everything from the gap
     on is unreachable and must be dropped. *)
  Sys.remove (Filename.concat dir (List.nth segs 1));
  let o2 = Wal.open_ ~segment_bytes:512 dir in
  let survivors = List.length o2.Wal.entries in
  Alcotest.(check bool) "only the first segment's records" true (survivors > 0 && survivors < 30);
  List.iteri
    (fun i e -> Alcotest.(check string) "contiguous prefix" (payload i) e)
    o2.Wal.entries;
  Alcotest.(check int) "orphan segments deleted" 1 (List.length (seg_files dir));
  Wal.close o2.Wal.wal

let test_wal_abandon_drops_unsynced () =
  let dir = fresh_dir () in
  let o = Wal.open_ dir in
  fill o.Wal.wal 4;
  ignore (Wal.sync o.Wal.wal);
  (* Buffered but never synced: a power cut would lose these. *)
  ignore (Wal.append o.Wal.wal "volatile-1");
  ignore (Wal.append o.Wal.wal "volatile-2");
  Wal.abandon o.Wal.wal;
  let o2 = Wal.open_ dir in
  Alcotest.(check (list string)) "durable prefix only" (List.init 4 payload) o2.Wal.entries;
  Wal.close o2.Wal.wal

let test_wal_truncate_below () =
  let dir = fresh_dir () in
  let o = Wal.open_ ~segment_bytes:512 dir in
  fill o.Wal.wal 30;
  ignore (Wal.sync o.Wal.wal);
  let before = List.length (seg_files dir) in
  (* Everything below lsn 20 is covered by a snapshot: whole segments of
     dead records go; the segment holding lsn 20 (and the active one) stay. *)
  Wal.truncate_below o.Wal.wal ~lsn:20;
  let after = List.length (seg_files dir) in
  Alcotest.(check bool) "segments were retired" true (after < before);
  Wal.close o.Wal.wal;
  let o2 = Wal.open_ ~segment_bytes:512 dir in
  let n = List.length o2.Wal.entries in
  Alcotest.(check bool) "suffix incl. lsn 20 survives" true (n >= 11 && n < 30);
  (* Entries are a contiguous suffix ending at record 29. *)
  List.iteri
    (fun i e -> Alcotest.(check string) "suffix order" (payload (30 - n + i)) e)
    o2.Wal.entries;
  Alcotest.(check int) "lsn chain intact" 31 (Wal.append o2.Wal.wal "31");
  Wal.close o2.Wal.wal

let test_wal_group_commit () =
  let dir = fresh_dir () in
  let o = Wal.open_ dir in
  let mu = Mutex.create () in
  let marks = ref [] in
  let on_durable w =
    Mutex.lock mu;
    marks := w :: !marks;
    Mutex.unlock mu
  in
  let syncer = Wal.syncer ~delay:0.002 ~cap:8 o.Wal.wal ~on_durable in
  for i = 0 to 39 do
    ignore (Wal.syncer_append syncer (payload i))
  done;
  Wal.stop_syncer syncer;
  Alcotest.(check int) "all records durable" 40 (Wal.durable_lsn o.Wal.wal);
  let marks = List.rev !marks in
  Alcotest.(check bool) "watermarks monotone" true
    (List.for_all2 ( < ) (0 :: marks) (marks @ [ 41 ]));
  Alcotest.(check int) "final watermark" 40 (List.nth marks (List.length marks - 1));
  let st = Wal.stats o.Wal.wal in
  Alcotest.(check bool) "fsyncs batched" true (st.Wal.fsyncs < st.Wal.appends);
  Wal.close o.Wal.wal;
  let o2 = Wal.open_ dir in
  Alcotest.(check int) "replay complete" 40 (List.length o2.Wal.entries);
  Wal.close o2.Wal.wal

let test_wal_abandon_syncer () =
  let dir = fresh_dir () in
  let o = Wal.open_ dir in
  let syncer = Wal.syncer ~delay:60.0 ~cap:1_000_000 o.Wal.wal ~on_durable:(fun _ -> ()) in
  ignore (Wal.syncer_append syncer "doomed-1");
  ignore (Wal.syncer_append syncer "doomed-2");
  (* Neither the latency cap (60 s away) nor the size cap fired, and the
     crash performs no final sync: both records must be lost. *)
  Wal.abandon_syncer syncer;
  Wal.abandon o.Wal.wal;
  let o2 = Wal.open_ dir in
  Alcotest.(check (list string)) "unsynced group lost" [] o2.Wal.entries;
  Wal.close o2.Wal.wal

(* The syncer's lifecycle under a lent loop that does the appends, as a
   replica's loop does: [on_durable] runs on the syncer's own thread,
   neither the appender's loop nor the caller's; [stop_syncer] joins that
   thread and then does the final sync on the caller's thread;
   [abandon_syncer] joins it without a sync. The thread's first callback
   is held for 100 ms, so a stop that did not join would return while the
   callback still runs. *)
let syncer_lifecycle ~abandon () =
  let module Reactor = Dex_runtime.Reactor in
  let dir = fresh_dir () in
  let o = Wal.open_ dir in
  let loop = Reactor.create ~name:"appender" () in
  let main = Thread.id (Thread.self ()) in
  let mu = Mutex.create () in
  let events = ref [] in
  let note e = Mutex.protect mu (fun () -> events := e :: !events) in
  let on_durable w =
    if Reactor.on_loop loop then note (Printf.sprintf "on appender loop %d" w)
    else if Thread.id (Thread.self ()) = main then note (Printf.sprintf "final %d" w)
    else begin
      note (Printf.sprintf "enter %d" w);
      Thread.delay 0.1;
      note (Printf.sprintf "exit %d" w)
    end
  in
  let s = Wal.syncer ~delay:60.0 ~cap:1_000_000 ~reactor:loop o.Wal.wal ~on_durable in
  Reactor.call loop (fun () ->
      ignore (Wal.syncer_append s "a");
      Wal.kick_syncer s);
  let deadline = Unix.gettimeofday () +. 2.0 in
  while Mutex.protect mu (fun () -> !events = []) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Reactor.call loop (fun () -> ignore (Wal.syncer_append s "b"));
  if abandon then Wal.abandon_syncer s else Wal.stop_syncer s;
  let seen = Mutex.protect mu (fun () -> List.rev !events) in
  Reactor.stop loop;
  if abandon then begin
    Alcotest.(check (list string)) "joined, no final sync" [ "enter 1"; "exit 1" ] seen;
    Alcotest.(check int) "second record not durable" 1 (Wal.durable_lsn o.Wal.wal);
    Wal.abandon o.Wal.wal;
    let o2 = Wal.open_ dir in
    Alcotest.(check (list string)) "only the synced record survives" [ "a" ] o2.Wal.entries;
    Wal.close o2.Wal.wal
  end
  else begin
    Alcotest.(check (list string)) "joined, then the final sync" [ "enter 1"; "exit 1"; "final 2" ]
      seen;
    Alcotest.(check int) "both records durable" 2 (Wal.durable_lsn o.Wal.wal);
    Wal.close o.Wal.wal
  end

let file_size path = (Unix.stat path).Unix.st_size

let test_wal_preallocation_sizes () =
  (* Preallocated segments hold their full physical size while open (so the
     append path never extends the file) and are trimmed back to the logical
     size on clean close; rotation trims each retired segment the same way. *)
  let dir = fresh_dir () in
  let o = Wal.open_ ~segment_bytes:4096 dir in
  fill o.Wal.wal 3;
  ignore (Wal.sync o.Wal.wal);
  let seg = Filename.concat dir (List.hd (seg_files dir)) in
  Alcotest.(check int) "open segment is extended ahead" 4096 (file_size seg);
  Wal.close o.Wal.wal;
  Alcotest.(check bool) "close trims to logical size" true (file_size seg < 4096);
  let trimmed = file_size seg in
  let o2 = Wal.open_ ~segment_bytes:4096 dir in
  Alcotest.(check (list string)) "replay after trim" (List.init 3 payload) o2.Wal.entries;
  Alcotest.(check bool) "not torn" false o2.Wal.torn;
  Wal.close o2.Wal.wal;
  (* Without preallocation the file only ever holds the logical bytes. *)
  let dir2 = fresh_dir () in
  let p = Wal.open_ ~segment_bytes:4096 ~preallocate:false dir2 in
  fill p.Wal.wal 3;
  ignore (Wal.sync p.Wal.wal);
  let seg2 = Filename.concat dir2 (List.hd (seg_files dir2)) in
  Alcotest.(check int) "unpreallocated = logical bytes" trimmed (file_size seg2);
  Wal.close p.Wal.wal;
  (* Rotation under preallocation: every retired segment is trimmed, and the
     full log replays. *)
  let dir3 = fresh_dir () in
  let r = Wal.open_ ~segment_bytes:512 dir3 in
  fill r.Wal.wal 30;
  ignore (Wal.sync r.Wal.wal);
  Wal.close r.Wal.wal;
  List.iter
    (fun n ->
      let sz = file_size (Filename.concat dir3 n) in
      if sz > 512 + 128 then Alcotest.failf "segment %s not trimmed (%d bytes)" n sz)
    (seg_files dir3);
  let r2 = Wal.open_ ~segment_bytes:512 dir3 in
  Alcotest.(check (list string)) "rotated log replays" (List.init 30 payload) r2.Wal.entries;
  Alcotest.(check bool) "rotation leaves no tear" false r2.Wal.torn;
  Wal.close r2.Wal.wal

let test_wal_preallocated_crash_tail () =
  (* A crash leaves the zero-filled preallocated tail in place. Recovery must
     read the zeros as healthy free space (an all-zero frame header is
     unforgeable), but a garbage frame in that tail is still a tear. *)
  let dir = fresh_dir () in
  let o = Wal.open_ ~segment_bytes:4096 dir in
  fill o.Wal.wal 5;
  ignore (Wal.sync o.Wal.wal);
  Wal.abandon o.Wal.wal;
  let seg = Filename.concat dir (List.hd (seg_files dir)) in
  Alcotest.(check int) "crash leaves the preallocated size" 4096 (file_size seg);
  let o2 = Wal.open_ ~segment_bytes:4096 dir in
  Alcotest.(check (list string)) "records recovered" (List.init 5 payload) o2.Wal.entries;
  Alcotest.(check bool) "zero tail is not a tear" false o2.Wal.torn;
  Wal.close o2.Wal.wal;
  let logical = file_size seg in
  (* Now plant a torn record where the zeros were: re-extend the file and
     write a partial frame at the logical end. *)
  truncate_to seg 4096;
  let fd = Unix.openfile seg [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd logical Unix.SEEK_SET);
  let junk = Bytes.of_string "\x00\x00\x00\x30half-a-record" in
  ignore (Unix.write fd junk 0 (Bytes.length junk));
  Unix.close fd;
  let o3 = Wal.open_ ~segment_bytes:4096 dir in
  Alcotest.(check (list string)) "prefix still recovered" (List.init 5 payload) o3.Wal.entries;
  Alcotest.(check bool) "garbage tail is a tear" true o3.Wal.torn;
  Alcotest.(check int) "appends continue past the repair" 6 (Wal.append o3.Wal.wal "six");
  Wal.close o3.Wal.wal

(* ----------------------------- snapshots ----------------------------- *)

let test_snapshot_roundtrip () =
  let dir = fresh_dir () in
  Snapshot.install ~dir ~slot:100 "state-at-100";
  Alcotest.(check (option (pair int string)))
    "latest" (Some (100, "state-at-100")) (Snapshot.load_latest ~dir);
  Snapshot.install ~dir ~slot:200 "state-at-200";
  Alcotest.(check (option (pair int string)))
    "newer wins" (Some (200, "state-at-200")) (Snapshot.load_latest ~dir)

let test_snapshot_retention () =
  let dir = fresh_dir () in
  List.iter (fun s -> Snapshot.install ~keep:2 ~dir ~slot:s (Printf.sprintf "s%d" s))
    [ 10; 20; 30; 40 ];
  let snaps =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".snap")
  in
  Alcotest.(check int) "only the two newest kept" 2 (List.length snaps);
  Alcotest.(check (option (pair int string)))
    "newest loadable" (Some (40, "s40")) (Snapshot.load_latest ~dir)

let test_snapshot_corrupt_falls_back () =
  let dir = fresh_dir () in
  Snapshot.install ~dir ~slot:100 "good-old";
  Snapshot.install ~dir ~slot:200 "bad-new";
  (* Flip a byte inside the newest snapshot's payload: its checksum fails
     and loading must fall back to the older valid snapshot. *)
  corrupt (Filename.concat dir "snap-000000000200.snap") 30;
  Alcotest.(check (option (pair int string)))
    "fallback to older" (Some (100, "good-old")) (Snapshot.load_latest ~dir)

let test_snapshot_interrupted_install () =
  let dir = fresh_dir () in
  Snapshot.install ~dir ~slot:100 "stable";
  (* A crash between tmp-write and rename leaves a dangling .tmp (and no
     final file): it must be invisible to load and swept by the next
     install. *)
  let tmp = Filename.concat dir "snap-000000000200.snap.tmp" in
  let oc = open_out_bin tmp in
  output_string oc "DEXSNAP1half-written-garbage";
  close_out oc;
  Alcotest.(check (option (pair int string)))
    "tmp never loads" (Some (100, "stable")) (Snapshot.load_latest ~dir);
  Snapshot.install ~dir ~slot:300 "next";
  Alcotest.(check bool) "tmp swept by the next install" false (Sys.file_exists tmp);
  Alcotest.(check (option (pair int string)))
    "install after interruption" (Some (300, "next")) (Snapshot.load_latest ~dir)

(* ------------------------------ recovery ------------------------------ *)

let test_recovery_composition () =
  let dir = fresh_dir () in
  let o = Wal.open_ dir in
  fill o.Wal.wal 6;
  ignore (Wal.sync o.Wal.wal);
  Snapshot.install ~dir ~slot:4 "snapshot-at-4";
  Wal.truncate_below o.Wal.wal ~lsn:5;
  ignore (Wal.append o.Wal.wal (payload 6));
  ignore (Wal.sync o.Wal.wal);
  Wal.close o.Wal.wal;
  let r = Recovery.run ~dir () in
  Alcotest.(check (option (pair int string)))
    "snapshot found" (Some (4, "snapshot-at-4")) r.Recovery.snapshot;
  (* Truncation is segment-granular: the single active segment survives
     whole, so replay starts at record 0 — entries may predate the
     snapshot, and the caller skips them by content. *)
  Alcotest.(check (list string)) "wal suffix" (List.init 7 payload) r.Recovery.entries;
  Alcotest.(check bool) "clean" false r.Recovery.torn;
  Alcotest.(check int) "append continues" 8 (Wal.append r.Recovery.wal "8");
  Wal.close r.Recovery.wal

let test_recovery_fresh_dir () =
  let dir = fresh_dir () in
  let r = Recovery.run ~dir () in
  Alcotest.(check (option (pair int string))) "no snapshot" None r.Recovery.snapshot;
  Alcotest.(check (list string)) "no entries" [] r.Recovery.entries;
  Wal.close r.Recovery.wal

let () =
  Alcotest.run "dex_store"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip + reopen" `Quick test_wal_roundtrip;
          Alcotest.test_case "segment rotation" `Quick test_wal_segment_rotation;
          Alcotest.test_case "torn final record" `Quick test_wal_torn_final_record;
          Alcotest.test_case "truncated segment" `Quick test_wal_truncated_segment;
          Alcotest.test_case "corrupt mid-segment" `Quick test_wal_corrupt_mid_segment;
          Alcotest.test_case "segment gap" `Quick test_wal_segment_gap;
          Alcotest.test_case "abandon drops unsynced" `Quick test_wal_abandon_drops_unsynced;
          Alcotest.test_case "truncate below" `Quick test_wal_truncate_below;
          Alcotest.test_case "group commit" `Quick test_wal_group_commit;
          Alcotest.test_case "abandoned syncer loses group" `Quick test_wal_abandon_syncer;
          Alcotest.test_case "syncer thread, stop" `Quick (syncer_lifecycle ~abandon:false);
          Alcotest.test_case "syncer thread, abandon" `Quick (syncer_lifecycle ~abandon:true);
          Alcotest.test_case "preallocation sizes" `Quick test_wal_preallocation_sizes;
          Alcotest.test_case "preallocated crash tail" `Quick test_wal_preallocated_crash_tail;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "retention" `Quick test_snapshot_retention;
          Alcotest.test_case "corrupt falls back" `Quick test_snapshot_corrupt_falls_back;
          Alcotest.test_case "interrupted install" `Quick test_snapshot_interrupted_install;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "snapshot + wal" `Quick test_recovery_composition;
          Alcotest.test_case "fresh dir" `Quick test_recovery_fresh_dir;
        ] );
    ]
