open Dex_store

module Registry = Dex_metrics.Registry

type recovered = {
  snapshot : (int * string) option;
  entries : string list;
  had_state : bool;
}

type t = {
  dir : string option;
  wal : Wal.t option;
  mutable syncer : Wal.syncer option;
  mutable wal_lsn : int;  (* lsn of the newest appended commit record *)
  mutable released_lsn : int;  (* replies with lsn <= this may leave *)
  wait_replies : (int, (int * int * Wire.outcome) list) Hashtbl.t;
  mutable snapshot_slot : int;  (* newest snapshot boundary captured/installed *)
  mutable pending_capture : (int * string * int) option;  (* slot, payload, covering lsn *)
  c_snapshots : Registry.counter;
}

let create ?dir ~segment_bytes ~metrics () =
  let c_snapshots = Registry.counter metrics "durability/snapshots" in
  match dir with
  | None ->
    ( {
        dir = None;
        wal = None;
        syncer = None;
        wal_lsn = 0;
        released_lsn = 0;
        wait_replies = Hashtbl.create 16;
        snapshot_slot = 0;
        pending_capture = None;
        c_snapshots;
      },
      { snapshot = None; entries = []; had_state = false } )
  | Some dir ->
    let r = Recovery.run ~metrics ~segment_bytes ~dir () in
    let last = Wal.last_lsn r.Recovery.wal in
    ( {
        dir = Some dir;
        wal = Some r.Recovery.wal;
        syncer = None;
        wal_lsn = last;
        released_lsn = last;
        wait_replies = Hashtbl.create 16;
        snapshot_slot = 0;
        pending_capture = None;
        c_snapshots;
      },
      {
        snapshot = r.Recovery.snapshot;
        entries = r.Recovery.entries;
        had_state = r.Recovery.snapshot <> None || r.Recovery.entries <> [] || r.Recovery.torn;
      } )

let enabled t = t.wal <> None

let start_group_commit ~reactor t ~delay ~cap ~on_durable =
  match t.wal with
  | Some wal -> t.syncer <- Some (Wal.syncer ~delay ~cap ~reactor wal ~on_durable)
  | None -> ()

let snapshot_slot t = t.snapshot_slot

let set_snapshot_slot t slot = t.snapshot_slot <- slot

let append t record =
  match t.wal with
  | None -> 0
  | Some wal ->
    let lsn =
      match t.syncer with
      | Some syncer -> Wal.syncer_append syncer record
      | None ->
        (* Group commit off: fsync inline; the record is durable before any
           reply is even composed. *)
        let lsn = Wal.append wal record in
        let watermark = Wal.sync wal in
        if watermark > t.released_lsn then t.released_lsn <- watermark;
        lsn
    in
    t.wal_lsn <- lsn;
    lsn

let gate t ~client ~rid ~lsn outcome ~reply =
  if lsn <= t.released_lsn then reply ~client ~rid outcome
  else
    Hashtbl.replace t.wait_replies lsn
      ((client, rid, outcome) :: Option.value ~default:[] (Hashtbl.find_opt t.wait_replies lsn))

let kick t =
  (* Only when a reply is actually waiting on the watermark: an idle lane
     keeps batching on the latency cap alone. *)
  if Hashtbl.length t.wait_replies > 0 then Option.iter Wal.kick_syncer t.syncer

let release_up_to t ~watermark ~reply =
  if watermark <= t.released_lsn then false
  else begin
    for lsn = t.released_lsn + 1 to watermark do
      match Hashtbl.find_opt t.wait_replies lsn with
      | None -> ()
      | Some rs ->
        Hashtbl.remove t.wait_replies lsn;
        List.iter (fun (client, rid, outcome) -> reply ~client ~rid outcome) (List.rev rs)
    done;
    t.released_lsn <- watermark;
    true
  end

let clear_queued t = Hashtbl.reset t.wait_replies

let maybe_capture t ~apply_next ~every ~encode =
  if enabled t && t.pending_capture = None && apply_next - t.snapshot_slot >= every then begin
    t.pending_capture <- Some (apply_next, encode (), t.wal_lsn);
    t.snapshot_slot <- apply_next
  end

let take_capture t =
  let c = t.pending_capture in
  t.pending_capture <- None;
  c

let install_capture t ~slot ~payload ~covering_lsn =
  match t.dir with
  | None -> ()
  | Some dir ->
    Snapshot.install ~dir ~slot payload;
    Registry.incr t.c_snapshots;
    Option.iter (fun wal -> Wal.truncate_below wal ~lsn:(covering_lsn + 1)) t.wal

let note_installed t ~slot ~payload =
  (match t.dir with
  | Some dir ->
    Snapshot.install ~dir ~slot payload;
    Option.iter (fun wal -> Wal.truncate_below wal ~lsn:(t.wal_lsn + 1)) t.wal
  | None -> ());
  t.snapshot_slot <- slot;
  t.pending_capture <- None

let preferred_snapshot_slot t ~live =
  if enabled t && t.snapshot_slot > 0 then t.snapshot_slot else live

let load_disk_snapshot t =
  match t.dir with Some dir -> Snapshot.load_latest ~dir | None -> None

let wal_stats t = Option.map Wal.stats t.wal

let durable_lsn t = match t.wal with Some wal -> Wal.durable_lsn wal | None -> 0

let snapshots t = Registry.value t.c_snapshots

let stop t =
  Option.iter Wal.stop_syncer t.syncer;
  Option.iter Wal.close t.wal

let crash t =
  Option.iter Wal.abandon_syncer t.syncer;
  Option.iter Wal.abandon t.wal
