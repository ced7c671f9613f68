open Dex_vector
open Dex_net
open Dex_broadcast

type phase = [ `Propose | `Prevote | `Precommit ]

type msg =
  | Val of Value.t Bracha.msg
  | Est of Value.t
  | Proposal of int * Value.t
  | Prevote of int * Value.t option
  | Precommit of int * Value.t option
  | Wake of int * phase

let pp_phase ppf = function
  | `Propose -> Format.pp_print_string ppf "propose"
  | `Prevote -> Format.pp_print_string ppf "prevote"
  | `Precommit -> Format.pp_print_string ppf "precommit"

let pp_vote ppf = function
  | None -> Format.pp_print_string ppf "nil"
  | Some v -> Value.pp ppf v

let pp_msg ppf = function
  | Val _ -> Format.pp_print_string ppf "VAL(rb)"
  | Est v -> Format.fprintf ppf "EST(%a)" Value.pp v
  | Proposal (r, v) -> Format.fprintf ppf "PROPOSAL(r=%d,%a)" r Value.pp v
  | Prevote (r, v) -> Format.fprintf ppf "PREVOTE(r=%d,%a)" r pp_vote v
  | Precommit (r, v) -> Format.fprintf ppf "PRECOMMIT(r=%d,%a)" r pp_vote v
  | Wake (r, p) -> Format.fprintf ppf "WAKE(r=%d,%a)" r pp_phase p

let fallback = 0

let name = "uc-leader"

(* Byzantine round numbers far beyond the local round are ignored rather
   than allocated. *)
let round_window = 10_000

type round_state = {
  mutable proposal : Value.t option;  (* first proposal from the round's proposer *)
  prevotes : (Pid.t, Value.t option) Hashtbl.t;  (* first vote per sender *)
  precommits : (Pid.t, Value.t option) Hashtbl.t;
}

type t = {
  n : int;
  t : int;
  me : Pid.t;
  timeout_base : float;
  rb : Value.t Bracha.t;
  delivered : View.t;
  est_senders : (Pid.t, Value.t) Hashtbl.t;  (* first EST per sender *)
  rounds : (int, round_state) Hashtbl.t;
  mutable est : Value.t option;  (* sticky once formed *)
  mutable locked : Value.t option;
  mutable round : int;
  mutable step : phase;
  mutable decided : bool;
  mutable halted_emitting : bool;
}

let create ~timeout_base ~n ~t:fb ~me =
  if fb < 0 || n <= 4 * fb then invalid_arg "Uc_leader.create: requires n > 4t and t >= 0";
  {
    n;
    t = fb;
    me;
    timeout_base;
    rb = Bracha.create ~n ~t:fb;
    delivered = View.bottom n;
    est_senders = Hashtbl.create 16;
    rounds = Hashtbl.create 8;
    est = None;
    locked = None;
    round = -1;
    step = `Propose;
    decided = false;
    halted_emitting = false;
  }

let round_state t r =
  match Hashtbl.find_opt t.rounds r with
  | Some rs -> rs
  | None ->
    let rs = { proposal = None; prevotes = Hashtbl.create 8; precommits = Hashtbl.create 8 } in
    Hashtbl.add t.rounds r rs;
    rs

let proposer t r = r mod t.n

let timeout t r = t.timeout_base *. float_of_int (r + 1)

let to_all t m = List.init t.n (fun p -> (p, m))

(* Unique value with RB-delivered support >= n - 2t, if any. *)
let supported t =
  let threshold = t.n - (2 * t.t) in
  List.find_opt (fun v -> View.occurrences t.delivered v >= threshold) (View.values t.delivered)

let evidence_count t w =
  Hashtbl.fold (fun _ v acc -> if Value.equal v w then acc + 1 else acc) t.est_senders 0

let justified t w =
  match t.locked with
  | Some l -> Value.equal l w
  | None -> evidence_count t w >= t.t + 1

let votes_for tbl w =
  Hashtbl.fold (fun _ v acc -> if v = Some w then acc + 1 else acc) tbl 0

let quorum_value t tbl =
  (* The unique value with >= n - t votes in this table, if any. *)
  let candidates =
    Hashtbl.fold (fun _ v acc -> match v with Some w when not (List.mem w acc) -> w :: acc | _ -> acc) tbl []
  in
  List.find_opt (fun w -> votes_for tbl w >= t.n - t.t) candidates

(* A decision fires as soon as any round accumulates n - t matching
   precommits. *)
let check_decision t =
  if t.decided then None
  else
    Hashtbl.fold
      (fun _ rs acc ->
        match acc with
        | Some _ -> acc
        | None -> quorum_value t rs.precommits)
      t.rounds None

let enter_round t r =
  t.round <- r;
  t.step <- `Propose;
  let rs = round_state t r in
  ignore rs;
  let propose_msgs =
    if proposer t r = t.me then begin
      let choice =
        match (t.locked, t.est) with
        | Some l, _ -> Some l
        | None, Some e -> Some e
        | None, None -> None
      in
      match choice with Some w -> to_all t (Proposal (r, w)) | None -> []
    end
    else []
  in
  (propose_msgs, [ (timeout t r, Wake (r, `Propose)) ])

(* Phase progression for the current round; may cascade (e.g. a pre-buffered
   quorum completes the round immediately). *)
let rec try_advance t =
  if t.decided || t.round < 0 then ([], [])
  else begin
    let r = t.round in
    let rs = round_state t r in
    match t.step with
    | `Propose -> (
      match rs.proposal with
      | Some w when justified t w ->
        t.step <- `Prevote;
        let sends = to_all t (Prevote (r, Some w)) in
        let timers = [ (timeout t r, Wake (r, `Prevote)) ] in
        let more_sends, more_timers = try_advance t in
        (sends @ more_sends, timers @ more_timers)
      | _ -> ([], []))
    | `Prevote -> (
      match quorum_value t rs.prevotes with
      | Some w ->
        t.locked <- Some w;
        t.step <- `Precommit;
        let sends = to_all t (Precommit (r, Some w)) in
        let timers = [ (timeout t r, Wake (r, `Precommit)) ] in
        let more_sends, more_timers = try_advance t in
        (sends @ more_sends, timers @ more_timers)
      | None -> ([], []))
    | `Precommit -> ([], [])
  end

let emit_of t (sends, timers) =
  let decision = check_decision t in
  if decision <> None then begin
    t.decided <- true;
    t.halted_emitting <- true
  end;
  { Uc_intf.sends; timers; decision }

let propose t v =
  (* UC_propose: disseminate the proposal; round progression is driven by
     estimate formation, which needs n - t RB deliveries. *)
  emit_of t (to_all t (Val (Bracha.rb_send v)), [])

(* Estimate formation: sticky, fires once. Entering round 0 follows. *)
let maybe_form_estimate t =
  if t.est = None && View.filled t.delivered >= t.n - t.t then begin
    let e = match supported t with Some w -> w | None -> fallback in
    t.est <- Some e;
    let est_msgs = to_all t (Est e) in
    let round_sends, round_timers = enter_round t 0 in
    let adv_sends, adv_timers = try_advance t in
    (est_msgs @ round_sends @ adv_sends, round_timers @ adv_timers)
  end
  else ([], [])

let record_vote tbl ~from vote = if not (Hashtbl.mem tbl from) then Hashtbl.add tbl from vote

let on_message t ~from msg =
  if t.halted_emitting then Uc_intf.nothing
  else
    match msg with
    | Val rb_msg ->
      let emit = Bracha.handle t.rb ~from rb_msg in
      List.iter
        (fun (origin, v) -> if origin >= 0 && origin < t.n then View.set t.delivered origin v)
        emit.Bracha.deliveries;
      let echoes =
        List.concat_map (fun m -> to_all t (Val m)) emit.Bracha.broadcasts
      in
      let est_sends, est_timers = maybe_form_estimate t in
      emit_of t (echoes @ est_sends, est_timers)
    | Est v ->
      if from >= 0 && from < t.n && not (Hashtbl.mem t.est_senders from) then
        Hashtbl.add t.est_senders from v;
      (* Fresh evidence can justify a pending proposal. *)
      emit_of t (try_advance t)
    | Proposal (r, w) ->
      if r < 0 || r > t.round + round_window || from <> proposer t r then Uc_intf.nothing
      else begin
        let rs = round_state t r in
        if rs.proposal = None then rs.proposal <- Some w;
        emit_of t (try_advance t)
      end
    | Prevote (r, vote) ->
      if r < 0 || r > t.round + round_window || from < 0 || from >= t.n then Uc_intf.nothing
      else begin
        record_vote (round_state t r).prevotes ~from vote;
        emit_of t (try_advance t)
      end
    | Precommit (r, vote) ->
      if r < 0 || r > t.round + round_window || from < 0 || from >= t.n then Uc_intf.nothing
      else begin
        record_vote (round_state t r).precommits ~from vote;
        emit_of t (try_advance t)
      end
    | Wake (r, phase) ->
      if from <> t.me || r <> t.round || t.decided then Uc_intf.nothing
      else begin
        match (phase, t.step) with
        | `Propose, `Propose ->
          (* No justified proposal in time: prevote nil. *)
          t.step <- `Prevote;
          let sends = to_all t (Prevote (r, None)) in
          let timers = [ (timeout t r, Wake (r, `Prevote)) ] in
          let more_sends, more_timers = try_advance t in
          emit_of t (sends @ more_sends, timers @ more_timers)
        | `Prevote, `Prevote ->
          t.step <- `Precommit;
          let sends = to_all t (Precommit (r, None)) in
          let timers = [ (timeout t r, Wake (r, `Precommit)) ] in
          let more_sends, more_timers = try_advance t in
          emit_of t (sends @ more_sends, timers @ more_timers)
        | `Precommit, `Precommit ->
          let round_sends, round_timers = enter_round t (r + 1) in
          let adv_sends, adv_timers = try_advance t in
          emit_of t (round_sends @ adv_sends, round_timers @ adv_timers)
        | _ -> Uc_intf.nothing
      end

let extra_nodes ~n:_ ~t:_ ~seed:_ = []

let phase_codec =
  let open Dex_codec.Codec in
  variant ~name:"Uc_leader.phase"
    (function
      | `Propose -> (0, fun _ -> ())
      | `Prevote -> (1, fun _ -> ())
      | `Precommit -> (2, fun _ -> ()))
    (fun tag _ ->
      match tag with
      | 0 -> `Propose
      | 1 -> `Prevote
      | 2 -> `Precommit
      | other -> bad_tag ~name:"Uc_leader.phase" other)

let codec =
  let open Dex_codec.Codec in
  let rb_codec = Bracha.codec int in
  let vote = option int in
  variant ~name:"Uc_leader.msg"
    (function
      | Val m -> (0, fun buf -> rb_codec.write buf m)
      | Est v -> (1, fun buf -> int.write buf v)
      | Proposal (r, v) ->
        ( 2,
          fun buf ->
            int.write buf r;
            int.write buf v )
      | Prevote (r, v) ->
        ( 3,
          fun buf ->
            int.write buf r;
            vote.write buf v )
      | Precommit (r, v) ->
        ( 4,
          fun buf ->
            int.write buf r;
            vote.write buf v )
      | Wake (r, p) ->
        ( 5,
          fun buf ->
            int.write buf r;
            phase_codec.write buf p ))
    (fun tag rd ->
      match tag with
      | 0 -> Val (rb_codec.read rd)
      | 1 -> Est (int.read rd)
      | 2 ->
        let r = int.read rd in
        let v = int.read rd in
        Proposal (r, v)
      | 3 ->
        let r = int.read rd in
        let v = vote.read rd in
        Prevote (r, v)
      | 4 ->
        let r = int.read rd in
        let v = vote.read rd in
        Precommit (r, v)
      | 5 ->
        let r = int.read rd in
        let p = phase_codec.read rd in
        Wake (r, p)
      | other -> bad_tag ~name:"Uc_leader.msg" other)

module Make (T : sig val timeout_base : float end) = struct
  type nonrec msg = msg
  type nonrec t = t
  let name, propose, on_message, extra_nodes = (name, propose, on_message, extra_nodes)
  let codec = codec
  let create ~n ~t ~me ~seed:_ = create ~timeout_base:T.timeout_base ~n ~t ~me
end

include (Make (struct let timeout_base = 8.0 end) : Uc_intf.S with type msg := msg and type t := t)
