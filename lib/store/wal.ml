(* Segmented checksummed write-ahead log. See the interface for the
   contract; the notes here are about the on-disk format and crash cases.

   Segment file [wal-<first-lsn>.seg]:
     8-byte magic "DEXWAL1\n"
     records: 4-byte BE payload length | 8-byte BE FNV-64 of payload | payload

   Lsns are implicit (1-based, contiguous across segments): a segment's
   records are numbered from the lsn in its filename, so recovery needs no
   per-record header beyond the frame. A crash can leave (a) a partial
   record at the tail of the newest segment (torn write), (b) a segment cut
   short (lost tail), or (c) a flipped byte mid-segment (checksum mismatch).
   All three truncate the log at the last valid record; anything after a cut
   — including whole later segments — is unreachable by replay and is
   deleted, so the surviving prefix is exactly what recovery replays.

   Preallocation (default on): segments are ftruncate'd ahead to the full
   segment size at creation, so the group-commit fsync never pays a file
   extension (inode size update + block allocation) on the latency path;
   rotation and clean close trim the file back to its logical size. The
   zero-filled tail is distinguishable from a torn record because an
   all-zero frame header is unforgeable — a length-0 record carries the
   nonzero FNV-64 basis as its checksum — so recovery treats "first zero
   header" as the logical end of a healthy preallocated segment, not a torn
   write. *)

module Registry = Dex_metrics.Registry

let magic = "DEXWAL1\n"

let magic_len = String.length magic

let max_record = 16 * 1024 * 1024

let fnv64 s =
  let h = ref 0x3bf29ce484222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
  !h

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let seg_path dir first = Filename.concat dir (Printf.sprintf "wal-%012d.seg" first)

let parse_seg name =
  if String.length name = 20 && String.sub name 0 4 = "wal-" && Filename.check_suffix name ".seg"
  then int_of_string_opt (String.sub name 4 12)
  else None

type stats = {
  appends : int;
  fsyncs : int;
  synced_records : int;
  max_group : int;
  bytes : int;
  segments : int;
}

type t = {
  dir : string;
  segment_bytes : int;
  preallocate : bool;
  lock : Mutex.t;
  mutable fd : Unix.file_descr;
  mutable oc : out_channel;
  mutable seg_size : int;  (* bytes in the active segment, header included *)
  mutable segments : (int * string) list;  (* (first lsn, path), oldest first *)
  mutable next_lsn : int;
  mutable durable : int;
  mutable closed : bool;
  (* Operational counters live in a metrics registry (the caller's, or a
     private one) under [wal/*]; the public [stats] record reads them back. *)
  c_appends : Registry.counter;
  c_fsyncs : Registry.counter;
  c_synced_records : Registry.counter;
  g_max_group : Registry.gauge;
  c_bytes : Registry.counter;
}

type opened = {
  wal : t;
  entries : string list;
  next_lsn : int;
  torn : bool;
  replay_ms : float;
}

let write_record oc payload =
  let buf = Buffer.create (12 + String.length payload) in
  Buffer.add_int32_be buf (Int32.of_int (String.length payload));
  Buffer.add_int64_be buf (Int64.of_int (fnv64 payload));
  Buffer.add_string buf payload;
  Buffer.output_buffer oc buf

(* How a segment scan ended: [`Clean] — the last record reached exactly the
   file size; [`Zeros] — an all-zero frame header, i.e. the untouched tail
   of a preallocated segment (a length-0 record is unforgeable as zeros:
   its checksum is the nonzero FNV-64 basis); [`Torn] — a partial,
   corrupted or checksum-failed record. *)
type scan_end = [ `Clean | `Zeros | `Torn ]

exception Bad_record

let zero_header frame = Bytes.for_all (fun c -> c = '\000') frame

(* The valid prefix of one segment: payloads in order, the byte offset just
   past the last valid record, and how the scan ended. *)
let scan_segment path : string list * int * scan_end =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = in_channel_length ic in
      let header_ok =
        size >= magic_len
        &&
        let hdr = really_input_string ic magic_len in
        hdr = magic
      in
      if not header_ok then ([], 0, `Torn)
      else begin
        let entries = ref [] in
        let off = ref magic_len in
        let ending = ref `Clean in
        let frame = Bytes.create 12 in
        (try
           while !off < size do
             really_input ic frame 0 12;
             if zero_header frame then begin
               ending := `Zeros;
               raise Exit
             end;
             let len = Int32.to_int (Bytes.get_int32_be frame 0) in
             let sum = Int64.to_int (Bytes.get_int64_be frame 4) in
             if len < 0 || len > max_record then raise Bad_record;
             let payload = really_input_string ic len in
             if fnv64 payload <> sum then raise Bad_record;
             entries := payload :: !entries;
             off := !off + 12 + len
           done
         with
        | Exit -> ()
        | End_of_file | Bad_record -> ending := `Torn);
        (List.rev !entries, !off, !ending)
      end)

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.ftruncate fd len;
      Unix.fsync fd)

let fresh_segment ~preallocate ~segment_bytes dir first =
  let path = seg_path dir first in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc magic;
  flush oc;
  (* Extend to the full rotation size now, while off the latency path, so
     appends + group-commit fsyncs never pay block allocation or an inode
     size update. The zero tail is trimmed at rotation/close and is
     recognized by recovery after a crash. *)
  if preallocate && segment_bytes > magic_len then Unix.ftruncate fd segment_bytes;
  fsync_dir dir;
  (fd, oc, path)

let open_ ?metrics ?(segment_bytes = 4 * 1024 * 1024) ?(preallocate = true) dir =
  let t0 = Unix.gettimeofday () in
  let registry = match metrics with Some r -> r | None -> Registry.create () in
  mkdir_p dir;
  let on_disk =
    Sys.readdir dir |> Array.to_list |> List.filter_map parse_seg |> List.sort compare
  in
  let first_lsn = match on_disk with [] -> 1 | f :: _ -> f in
  let entries = ref [] in
  let expected = ref first_lsn in
  let torn = ref false in
  let cut = ref false in
  let kept = ref [] in  (* (first, path, valid size), newest first *)
  List.iter
    (fun first ->
      let path = seg_path dir first in
      if !cut || first <> !expected then begin
        (* After a cut — or a hole in the lsn chain — later records are not
           part of any replayable prefix: delete them. *)
        cut := true;
        torn := true;
        Sys.remove path
      end
      else begin
        let es, off, ending = scan_segment path in
        entries := List.rev_append es !entries;
        expected := !expected + List.length es;
        match ending with
        | `Clean -> kept := (first, path, off) :: !kept
        | `Zeros ->
          (* The untouched preallocated tail of a healthy segment (the trim
             at rotation/close didn't happen — e.g. a crash with every
             record synced): not torn, nothing to cut, the tail stays for
             the reopened append head to fill. *)
          kept := (first, path, off) :: !kept
        | `Torn ->
          cut := true;
          torn := true;
          if es = [] then Sys.remove path
          else begin
            truncate_file path off;
            kept := (first, path, off) :: !kept
          end
      end)
    on_disk;
  let next_lsn = !expected in
  let fd, oc, seg_size, segments =
    match !kept with
    | (_first, path, valid) :: _ ->
      (* Reopen the newest surviving segment for appends. Torn tails were
         already truncated away above; with preallocation the file is
         re-extended (ftruncate zero-fills) and the append head seeks to
         the valid prefix instead of the physical end. *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      let phys = (Unix.fstat fd).Unix.st_size in
      if preallocate then begin
        if phys < segment_bytes && valid < segment_bytes then Unix.ftruncate fd segment_bytes
      end
      else if phys > valid then Unix.ftruncate fd valid;
      ignore (Unix.lseek fd valid Unix.SEEK_SET);
      let oc = Unix.out_channel_of_descr fd in
      (fd, oc, valid, List.rev_map (fun (f, p, _) -> (f, p)) !kept)
    | [] ->
      let fd, oc, path = fresh_segment ~preallocate ~segment_bytes dir next_lsn in
      (fd, oc, magic_len, [ (next_lsn, path) ])
  in
  let wal =
    {
      dir;
      segment_bytes;
      preallocate;
      lock = Mutex.create ();
      fd;
      oc;
      seg_size;
      segments;
      next_lsn;
      durable = next_lsn - 1;
      closed = false;
      c_appends = Registry.counter registry "wal/appends";
      c_fsyncs = Registry.counter registry "wal/fsyncs";
      c_synced_records = Registry.counter registry "wal/synced_records";
      g_max_group = Registry.gauge registry "wal/max_group";
      c_bytes = Registry.counter registry "wal/bytes";
    }
  in
  Registry.gauge_fn registry "wal/segments" (fun () ->
      Mutex.lock wal.lock;
      let n = List.length wal.segments in
      Mutex.unlock wal.lock;
      n);
  {
    wal;
    entries = List.rev !entries;
    next_lsn;
    torn = !torn;
    replay_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
  }

let record_sync_locked (t : t) =
  let group = t.next_lsn - 1 - t.durable in
  if group > 0 then begin
    Registry.incr t.c_fsyncs;
    Registry.add t.c_synced_records group;
    Registry.set_max t.g_max_group group;
    t.durable <- t.next_lsn - 1
  end

let rotate_locked (t : t) =
  (* Seal the active segment (its records become durable with the closing
     fsync, and the preallocated tail is trimmed to the logical size) and
     continue in a fresh file named by the next lsn. *)
  flush t.oc;
  if t.preallocate then (try Unix.ftruncate t.fd t.seg_size with Unix.Unix_error _ -> ());
  Unix.fsync t.fd;
  record_sync_locked t;
  close_out_noerr t.oc;
  let fd, oc, path =
    fresh_segment ~preallocate:t.preallocate ~segment_bytes:t.segment_bytes t.dir t.next_lsn
  in
  t.fd <- fd;
  t.oc <- oc;
  t.seg_size <- magic_len;
  t.segments <- t.segments @ [ (t.next_lsn, path) ]

let append (t : t) payload =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Wal.append: closed"
  end
  else begin
    if t.seg_size >= t.segment_bytes then rotate_locked t;
    write_record t.oc payload;
    let lsn = t.next_lsn in
    t.next_lsn <- lsn + 1;
    t.seg_size <- t.seg_size + 12 + String.length payload;
    Registry.incr t.c_appends;
    Registry.add t.c_bytes (String.length payload);
    Mutex.unlock t.lock;
    lsn
  end

let flush (t : t) =
  Mutex.lock t.lock;
  if not t.closed then Stdlib.flush t.oc;
  Mutex.unlock t.lock

let sync (t : t) =
  Mutex.lock t.lock;
  if (not t.closed) && t.durable < t.next_lsn - 1 then begin
    Stdlib.flush t.oc;
    Unix.fsync t.fd;
    record_sync_locked t
  end;
  let d = t.durable in
  Mutex.unlock t.lock;
  d

let last_lsn (t : t) =
  Mutex.lock t.lock;
  let l = t.next_lsn - 1 in
  Mutex.unlock t.lock;
  l

let durable_lsn (t : t) =
  Mutex.lock t.lock;
  let d = t.durable in
  Mutex.unlock t.lock;
  d

let unsynced (t : t) =
  Mutex.lock t.lock;
  let u = t.next_lsn - 1 - t.durable in
  Mutex.unlock t.lock;
  u

let truncate_below (t : t) ~lsn =
  Mutex.lock t.lock;
  (* A segment is removable when the next one starts at or below the cutoff
     (so every record it holds is below it). The active segment always has a
     successor of [None], hence survives. *)
  let rec prune = function
    | (_, path) :: ((next_first, _) :: _ as rest) when next_first <= lsn ->
      (try Sys.remove path with Sys_error _ -> ());
      prune rest
    | segs -> segs
  in
  let pruned = prune t.segments in
  if List.length pruned <> List.length t.segments then begin
    t.segments <- pruned;
    fsync_dir t.dir
  end;
  Mutex.unlock t.lock

let close (t : t) =
  Mutex.lock t.lock;
  if not t.closed then begin
    Stdlib.flush t.oc;
    (* Trim the preallocated tail so a cleanly closed log holds exactly its
       records — directories stay copyable/inspectable at logical size. *)
    if t.preallocate then (try Unix.ftruncate t.fd t.seg_size with Unix.Unix_error _ -> ());
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    record_sync_locked t;
    close_out_noerr t.oc;
    t.closed <- true
  end;
  Mutex.unlock t.lock

let abandon (t : t) =
  (* Crash simulation: drop buffered-but-unsynced data on the floor (no
     flush, no fsync) and release the fd. Recovery must cope — that is the
     point. *)
  Mutex.lock t.lock;
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock t.lock

let stats (t : t) =
  Mutex.lock t.lock;
  let segments = List.length t.segments in
  Mutex.unlock t.lock;
  {
    appends = Registry.value t.c_appends;
    fsyncs = Registry.value t.c_fsyncs;
    synced_records = Registry.value t.c_synced_records;
    max_group = Registry.gauge_value t.g_max_group;
    bytes = Registry.value t.c_bytes;
    segments;
  }

(* ----------------------------- group commit ----------------------------- *)

(* The fsync cadence is a periodic timer on a reactor loop, and an append
   that reaches the size cap posts an immediate sync there, so [sync] and
   the durability callback run off the appender's thread. A service lends
   its own loop (one loop thread per replica, not one more per syncer);
   without one the syncer creates a private loop and stops it with the
   syncer. *)
type syncer = {
  s_wal : t;
  cap : int;
  on_durable : int -> unit;
  mutable running : bool;
  reactor : Dex_runtime.Reactor.t;
  owns_reactor : bool;
  mutable timer : Dex_runtime.Reactor.timer option;
}

let sync_pending s = if s.running && unsynced s.s_wal > 0 then s.on_durable (sync s.s_wal)

let kick s = Dex_runtime.Reactor.post s.reactor (fun () -> sync_pending s)

let syncer ?(delay = 0.001) ?(cap = 64) ?reactor wal ~on_durable =
  if delay <= 0.0 then invalid_arg "Wal.syncer: delay must be > 0";
  if cap < 1 then invalid_arg "Wal.syncer: cap must be >= 1";
  let owns_reactor, reactor =
    match reactor with
    | Some r -> (false, r)
    | None -> (true, Dex_runtime.Reactor.create ~name:"wal-syncer" ())
  in
  let s = { s_wal = wal; cap; on_durable; running = true; reactor; owns_reactor; timer = None } in
  s.timer <- Some (Dex_runtime.Reactor.every reactor delay (fun () -> sync_pending s));
  s

let syncer_append s payload =
  let lsn = append s.s_wal payload in
  if unsynced s.s_wal >= s.cap then kick s;
  lsn

let kick_syncer s = if s.running then kick s

let halt_driver s =
  Option.iter (Dex_runtime.Reactor.cancel s.reactor) s.timer;
  s.timer <- None;
  if s.owns_reactor then Dex_runtime.Reactor.stop s.reactor

let stop_syncer s =
  if s.running then begin
    s.running <- false;
    halt_driver s;
    if unsynced s.s_wal > 0 then s.on_durable (sync s.s_wal)
  end

let abandon_syncer s =
  (* Crash simulation: stop the driver without the final sync. *)
  if s.running then begin
    s.running <- false;
    halt_driver s
  end
