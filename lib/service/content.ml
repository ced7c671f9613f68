open Dex_net

module Registry = Dex_metrics.Registry
module Rs = Dex_erasure.Rs
module Fragment = Dex_erasure.Fragment

type msg =
  | Fetch of int * int
  | Batch_payload of int * Batch.t
  | Truncated of int
  | Frag_request of int * int * int
  | Frag_payload of Fragment.t
  | Snapshot_fetch of int
  | Snapshot_fetch_full of int
  | Snapshot_payload of int * string
  | Snapshot_frag of { slot : int; frag : Fragment.t }

(* The coded lane's own state: partial reconstructions ([frags]: digest ->
   index -> body, [frag_len]: the claimed blob length), a responder-side
   cache of encoded fragment bodies ([enc_cache]: digest -> blob length *
   bodies), and the digests already failed over to the full lane ([fb], so
   the round timer and a decode failure don't double-fire). *)
type coded = {
  k : int;  (* data-shard count: Rs.data_count over the deployment geometry *)
  frags : (int, (int, string) Hashtbl.t) Hashtbl.t;
  frag_len : (int, int) Hashtbl.t;
  enc_cache : (int, int * string array) Hashtbl.t;
  fb : (int, unit) Hashtbl.t;
  rounds : (int, int) Hashtbl.t;
      (* coded-fetch rounds already spent per digest: the round timer
         re-requests the (recomputed) missing mask a few times before
         failing over — the full lane retries forever, so the coded lane
         deserves more than one 50 ms round under load *)
  mutable snap_rounds : int;  (* coded snapshot-fetch rounds without an install *)
}

type lane = Full | Coded of coded

type t = {
  me : Pid.t;
  n : int;
  peers : Pid.t list;
  retry : float;
  retain : int;
  lane : lane;
  store : (int, Batch.t) Hashtbl.t;
  last_use : (int, int) Hashtbl.t;  (* digest -> newest slot that referenced it *)
  unresolved : (int, unit) Hashtbl.t;  (* digests being fetched *)
  c_fetches : Registry.counter;
  c_fetch_rtts : Registry.counter;
  c_fetch_bytes : Registry.counter;
  c_frag_sent : Registry.counter;
  c_frag_recv : Registry.counter;
  c_frag_bytes_out : Registry.counter;
  c_frag_bytes_in : Registry.counter;
  c_pushes : Registry.counter;
  c_decodes : Registry.counter;
  c_decode_failures : Registry.counter;
  c_decode_fallbacks : Registry.counter;
  c_bytes_saved : Registry.counter;
}

let create ~metrics ~mode ~n ~t:byz ~me ~retry ~retain =
  let counter = Registry.counter metrics in
  {
    me;
    n;
    peers = List.filter (fun p -> not (Pid.equal p me)) (Pid.all ~n);
    retry;
    retain;
    lane =
      (match mode with
      | Dex_erasure.Dissemination.Full -> Full
      | Dex_erasure.Dissemination.Coded ->
        Coded
          {
            k = Rs.data_count ~n ~t:byz;
            frags = Hashtbl.create 16;
            frag_len = Hashtbl.create 16;
            enc_cache = Hashtbl.create 16;
            fb = Hashtbl.create 8;
            rounds = Hashtbl.create 8;
            snap_rounds = 0;
          });
    store = Hashtbl.create 256;
    last_use = Hashtbl.create 256;
    unresolved = Hashtbl.create 8;
    c_fetches = counter "service/fetches";
    c_fetch_rtts = counter "service/fetch_rtts";
    c_fetch_bytes = counter "service/fetch_bytes";
    c_frag_sent = counter "erasure/frag_sent";
    c_frag_recv = counter "erasure/frag_recv";
    c_frag_bytes_out = counter "erasure/frag_bytes_out";
    c_frag_bytes_in = counter "erasure/frag_bytes_in";
    c_pushes = counter "erasure/pushes";
    c_decodes = counter "erasure/decodes";
    c_decode_failures = counter "erasure/decode_failures";
    c_decode_fallbacks = counter "erasure/decode_fallbacks";
    c_bytes_saved = counter "erasure/bytes_saved";
  }

let broadcast c msg = List.map (fun peer -> Protocol.Send (peer, msg)) c.peers

(* ------------------------------- the store ------------------------------- *)

let find c digest = Hashtbl.find_opt c.store digest

let pin c digest ~slot =
  match Hashtbl.find_opt c.last_use digest with
  | Some newest when newest >= slot -> ()
  | _ -> Hashtbl.replace c.last_use digest slot

let add c digest batch ~slot =
  Hashtbl.replace c.store digest batch;
  pin c digest ~slot

let clear_frags k digest =
  Hashtbl.remove k.frags digest;
  Hashtbl.remove k.frag_len digest;
  Hashtbl.remove k.fb digest;
  Hashtbl.remove k.rounds digest

(* Digests whose newest reference trails the frontier by more than
   [retain] slots are retired. The coded tables ride the same horizon —
   except pools still being fetched, which stay. *)
let gc c ~frontier =
  let floor = frontier - c.retain in
  Hashtbl.fold (fun digest last acc -> if last < floor then digest :: acc else acc) c.last_use []
  |> List.iter (fun digest ->
         Hashtbl.remove c.store digest;
         Hashtbl.remove c.last_use digest);
  match c.lane with
  | Full -> ()
  | Coded k ->
    let dead tbl =
      Hashtbl.fold
        (fun digest _ acc ->
          if Hashtbl.mem c.unresolved digest || Hashtbl.mem c.last_use digest then acc
          else digest :: acc)
        tbl []
    in
    List.iter (clear_frags k) (dead k.frags);
    List.iter (Hashtbl.remove k.enc_cache) (dead k.enc_cache)

(* ------------------------------ fragments ------------------------------ *)

let frag c k ~digest ~index ~len body =
  Fragment.make ~digest ~index ~total:c.n ~data:k.k ~len body

let fits c k frag =
  Fragment.valid frag && frag.Fragment.total = c.n && frag.Fragment.data = k.k

let note_recv c frag =
  Registry.incr c.c_frag_recv;
  Registry.add c.c_frag_bytes_in (String.length frag.Fragment.body)

let send_frag c ~to_ wrap frag =
  Registry.incr c.c_frag_sent;
  Registry.add c.c_frag_bytes_out (String.length frag.Fragment.body);
  Protocol.Send (to_, wrap frag)

let frag_payload frag = Frag_payload frag

(* Encode (and cache) the fragment bodies of a batch we hold. The cache is
   keyed by digest and GC'd with the store, so a responder encodes each
   batch once no matter how many peers pull fragments. *)
let encoded c k digest batch =
  match Hashtbl.find_opt k.enc_cache digest with
  | Some entry -> entry
  | None ->
    let blob = Batch.to_blob batch in
    let entry = (String.length blob, Rs.encode ~k:k.k ~n:c.n blob) in
    Hashtbl.replace k.enc_cache digest entry;
    entry

(* ------------------------------ fetch lane ------------------------------ *)

let fetching c = Hashtbl.length c.unresolved > 0

let fetches c = Registry.value c.c_fetches

(* The full-blob round: broadcast, every holder answers with the whole
   batch, the self-timer retries. Also the coded lane's fallback. *)
let full_fetch c digest ~frontier =
  broadcast c (Fetch (digest, frontier))
  @ [ Protocol.Set_timer { delay = c.retry; msg = Fetch (digest, frontier) } ]

(* A coded round: ask every peer for the indices we still miss — each
   holder answers with only its own fragment, so a resolution ingresses
   about one blob spread over n-1 links instead of n-1 full copies. Retry
   rounds set the desperate bit (bit n): fewer than k peers hold this
   batch, so home fragments alone cannot complete the decode — holders
   encode every missing index. The mask lists only what is missing, so the
   duplicate cost is bounded by holders x missing. Round [r] waits
   [2^r x retry]: answers that are only slow (holders busy encoding large
   batches) must not trigger more desperate rounds, each of which makes
   every holder encode every missing index again. *)
let coded_fetch c k digest ~frontier =
  let held = Hashtbl.find_opt k.frags digest in
  let mask = ref 0 in
  for i = 0 to c.n - 1 do
    if not (Option.fold ~none:false ~some:(fun pool -> Hashtbl.mem pool i) held) then
      mask := !mask lor (1 lsl i)
  done;
  let round = Option.value ~default:0 (Hashtbl.find_opt k.rounds digest) in
  if round > 0 then mask := !mask lor (1 lsl c.n);
  broadcast c (Frag_request (digest, !mask, frontier))
  @ [ Protocol.Set_timer
        { delay = c.retry *. float_of_int (1 lsl round); msg = Frag_request (digest, 0, frontier) }
    ]

let request c digest ~frontier =
  if Hashtbl.mem c.unresolved digest then []
  else begin
    Hashtbl.replace c.unresolved digest ();
    Registry.incr c.c_fetches;
    match c.lane with
    | Full -> full_fetch c digest ~frontier
    | Coded k -> coded_fetch c k digest ~frontier
  end

(* Coded proposer push: instead of every replica re-deriving the batch from
   its own admission queue or fetching the whole blob, the batch's home
   replica (digest mod n) sends each peer its own systematic fragment — one
   blob's worth of egress spread over the mesh. Purely an optimization:
   holders ignore the fragment, and the others still have the request
   lane. *)
let propose c digest batch ~slot =
  add c digest batch ~slot;
  match c.lane with
  | Coded k when digest mod c.n = c.me ->
    let len, bodies = encoded c k digest batch in
    Registry.incr c.c_pushes;
    List.map
      (fun peer ->
        send_frag c ~to_:peer frag_payload (frag c k ~digest ~index:peer ~len bodies.(peer)))
      c.peers
  | _ -> []

(* Verified content is in hand: the fetch is over. *)
let resolve c digest batch =
  Hashtbl.remove c.unresolved digest;
  (match c.lane with Coded k -> clear_frags k digest | Full -> ());
  Some (digest, batch)

(* Fail an unresolved coded fetch over to the full lane — once: the round
   timer and a decode failure can both get here. *)
let fallback c k digest ~frontier =
  if Hashtbl.mem c.unresolved digest && not (Hashtbl.mem k.fb digest) then begin
    Hashtbl.replace k.fb digest ();
    Registry.incr c.c_decode_fallbacks;
    full_fetch c digest ~frontier
  end
  else []

(* Enough fragments pooled: reconstruct, decode, recanonicalize, rehash.
   Only a digest match lets the content in — a Byzantine fragment with a
   self-consistent checksum can corrupt the reconstruction but cannot
   forge the batch digest. *)
let try_decode c k digest ~frontier =
  match (Hashtbl.find_opt k.frags digest, Hashtbl.find_opt k.frag_len digest) with
  | Some pool, Some len when Hashtbl.length pool >= k.k -> (
    let picks = Hashtbl.fold (fun i b acc -> (i, b) :: acc) pool [] in
    let reconstructed =
      match Rs.decode ~k:k.k ~n:c.n ~len picks with
      | None -> None
      | Some blob -> (
        match Batch.of_blob blob with
        | Error _ -> None
        | Ok body ->
          let batch = Batch.canonical body in
          if Batch.digest batch = digest then Some batch else None)
    in
    match reconstructed with
    | Some batch ->
      Registry.incr c.c_decodes;
      (* Versus the full lane, where every holder answers the broadcast
         with the whole blob: (n-1) full copies vs what we ingressed. *)
      let ingress = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 picks in
      Registry.add c.c_bytes_saved (max 0 (((c.n - 1) * len) - ingress));
      ([], resolve c digest batch)
    | None ->
      (* Some fragment lied (or pools mixed): drop the pool and fail over
         to the full lane, whose rehash gate is per payload. *)
      Registry.incr c.c_decode_failures;
      Hashtbl.remove k.frags digest;
      Hashtbl.remove k.frag_len digest;
      (fallback c k digest ~frontier, None))
  | _ -> ([], None)

(* One batch fragment arrived. Solicited fragments (the digest is being
   fetched) are accepted from anyone; unsolicited ones only in two bounded
   shapes — a peer relaying its home fragment ([index = from]) and the
   proposer push assigning us ours ([index = me]) — and only while the pool
   table has room, so a Byzantine sender cannot grow the tables. *)
let on_frag c k ~frontier ~from frag =
  let digest = frag.Fragment.digest in
  let index = frag.Fragment.index in
  let wanted = Hashtbl.mem c.unresolved digest in
  if
    fits c k frag && digest <> Batch.empty_digest
    && (not (Hashtbl.mem c.store digest))
    && (wanted || index = from || index = c.me)
    && (Hashtbl.mem k.frags digest || Hashtbl.length k.frags < 4096)
  then begin
    note_recv c frag;
    let pool =
      match Hashtbl.find_opt k.frags digest with
      | Some pool -> pool
      | None ->
        let pool = Hashtbl.create 8 in
        Hashtbl.replace k.frags digest pool;
        (* Pin fresh pools at the frontier so the GC keeps them for
           [retain] slots, like any other content. *)
        if not (Hashtbl.mem c.last_use digest) then Hashtbl.replace c.last_use digest frontier;
        pool
    in
    let len_ok =
      match Hashtbl.find_opt k.frag_len digest with
      | Some len -> len = frag.Fragment.len
      | None ->
        Hashtbl.replace k.frag_len digest frag.Fragment.len;
        true
    in
    if len_ok && not (Hashtbl.mem pool index) then Hashtbl.replace pool index frag.Fragment.body;
    if wanted then try_decode c k digest ~frontier else ([], None)
  end
  else ([], None)

(* The coded round timer. The pool may already hold enough fragments
   (pushed before the fetch began) without anything having triggered a
   decode, so try that first; otherwise re-request the still-missing
   indices for 3 rounds, and only then fail over. *)
let on_round c k digest ~frontier =
  if not (Hashtbl.mem c.unresolved digest) then ([], None)
  else
    match try_decode c k digest ~frontier with
    | [], None when not (Hashtbl.mem k.fb digest) ->
      let round = 1 + Option.value ~default:0 (Hashtbl.find_opt k.rounds digest) in
      if round <= 3 then begin
        Hashtbl.replace k.rounds digest round;
        (coded_fetch c k digest ~frontier, None)
      end
      else (fallback c k digest ~frontier, None)
    | decoded_or_failed_over -> decoded_or_failed_over

(* A peer wants fragments. A holder serves its own index, or on a desperate
   round every missing index it can encode. Without the content, the
   proposer push may still have seeded us with our home fragment: relay it,
   turning every pushed-to replica into a server for its own index. *)
let serve_frags c k ~from ~refuse digest mask =
  let asked i = mask land (1 lsl i) <> 0 in
  match find c digest with
  | Some batch ->
    let len, bodies = encoded c k digest batch in
    let serve index =
      send_frag c ~to_:from frag_payload (frag c k ~digest ~index ~len bodies.(index))
    in
    let offered = if asked c.n then List.init c.n Fun.id else [ c.me ] in
    List.filter_map (fun i -> if asked i then Some (serve i) else None) offered
  | None -> (
    match (Hashtbl.find_opt k.frags digest, Hashtbl.find_opt k.frag_len digest) with
    | Some pool, Some len when asked c.me && Hashtbl.mem pool c.me ->
      [ send_frag c ~to_:from frag_payload
          (frag c k ~digest ~index:c.me ~len (Hashtbl.find pool c.me)) ]
    | _ -> refuse ())

let on_message c ~frontier ~snapshot_slot ~from msg =
  let self = Pid.equal from c.me in
  (* If we are past the requester's stuck slot and retired the content,
     point it at snapshot transfer rather than letting it retry forever. *)
  let refuse stuck () =
    if stuck < frontier then [ Protocol.Send (from, Truncated snapshot_slot) ] else []
  in
  match (msg, c.lane) with
  | Fetch (digest, _), _ when self ->
    ((if Hashtbl.mem c.unresolved digest then full_fetch c digest ~frontier else []), None)
  | Fetch (digest, stuck), _ -> (
    match find c digest with
    | Some batch -> ([ Protocol.Send (from, Batch_payload (digest, batch)) ], None)
    | None -> (refuse stuck (), None))
  | Batch_payload (digest, body), _ ->
    (* Never trust the claimed digest: recanonicalize and rehash. *)
    let batch = Batch.canonical body in
    if digest <> Batch.empty_digest && Batch.digest batch = digest then begin
      (* Every holder answers the broadcast, so redundant copies are real
         fetched bytes too. *)
      Registry.add c.c_fetch_bytes (String.length (Batch.to_blob batch));
      if Hashtbl.mem c.unresolved digest then Registry.incr c.c_fetch_rtts;
      ([], resolve c digest batch)
    end
    else ([], None)
  | Frag_request (digest, _, _), Coded k when self -> on_round c k digest ~frontier
  | Frag_request (digest, mask, stuck), Coded k ->
    (serve_frags c k ~from ~refuse:(refuse stuck) digest mask, None)
  | Frag_payload frag, Coded k when not self -> on_frag c k ~frontier ~from frag
  | ( ( Truncated _ | Frag_request _ | Frag_payload _ | Snapshot_fetch _ | Snapshot_fetch_full _
      | Snapshot_payload _ | Snapshot_frag _ ),
      _ ) ->
    ([], None)

let vote_content c batch = match c.lane with Full -> batch | Coded _ -> []

(* ------------------------------- snapshots ------------------------------- *)

(* Coded transfer needs k peers aligned on one (slot, payload); after a
   couple of fruitless rounds (misaligned live frontiers, churn) demand the
   whole payload instead. *)
let snapshot_fetch c ~frontier =
  broadcast c
    (match c.lane with
    | Coded k when k.snap_rounds >= 2 -> Snapshot_fetch_full frontier
    | Coded k ->
      k.snap_rounds <- k.snap_rounds + 1;
      Snapshot_fetch frontier
    | Full -> Snapshot_fetch frontier)

let snapshot_settled c = match c.lane with Coded k -> k.snap_rounds <- 0 | Full -> ()

let serve_snapshot c ~to_ ~whole ~slot payload =
  match c.lane with
  | Coded k when not whole ->
    let len = String.length payload in
    let body = (Rs.encode ~k:k.k ~n:c.n payload).(c.me) in
    [ send_frag c ~to_
        (fun frag -> Snapshot_frag { slot; frag })
        (frag c k ~digest:(Fragment.fnv64 payload) ~index:c.me ~len body) ]
  | _ -> [ Protocol.Send (to_, Snapshot_payload (slot, payload)) ]

(* Pool under (slot, payload hash); once [t+1] peers vouch for the hash and
   [k] indices are in, reconstruct and verify against the hash. A failed
   verification (some fragment lied) drops the group — the hash had [t+1]
   voters, so honest refills can still assemble it. *)
let snapshot_frag c cu ~from ~frontier ~slot ~validate frag =
  match c.lane with
  | Coded k when fits c k frag -> (
    note_recv c frag;
    match
      Catch_up.record_snap_frag cu ~from ~frontier ~slot ~hash:frag.Fragment.digest
        ~index:frag.Fragment.index ~body:frag.Fragment.body ~data:k.k ~len:frag.Fragment.len
    with
    | None -> None
    | Some (slot, hash, bodies, len) -> (
      match Rs.decode ~k:k.k ~n:c.n ~len bodies with
      | Some payload when Fragment.fnv64 payload = hash && validate payload ->
        Registry.incr c.c_decodes;
        Some (slot, payload)
      | _ ->
        Registry.incr c.c_decode_failures;
        Catch_up.drop_snap_group cu ~slot ~hash;
        None))
  | _ -> None
