open Dex_vector
open Dex_condition
open Dex_net

module Make (D : Dex_core.Protocol_lane.LANE) = struct

  type msg =
    | Slot of { slot : int; payload : D.msg }
    | Release of int
    | Skip of int
    | Resend

  let release upto = Release upto

  let skip upto = Skip upto

  let resend = Resend

  let pp_msg ppf = function
    | Slot { slot; payload } -> Format.fprintf ppf "[slot %d] %a" slot D.pp_msg payload
    | Release upto -> Format.fprintf ppf "[release <%d]" upto
    | Skip upto -> Format.fprintf ppf "[skip <%d]" upto
    | Resend -> Format.fprintf ppf "[resend]"

  let codec =
    let open Dex_codec.Codec in
    variant ~name:"Replicated_log.msg"
      (function
        | Slot { slot; payload } ->
          ( 0,
            fun buf ->
              int.write buf slot;
              D.codec.write buf payload )
        | Release upto -> (1, fun buf -> int.write buf upto)
        | Skip upto -> (2, fun buf -> int.write buf upto)
        | Resend -> (3, fun _ -> ()))
      (fun tag r ->
        match tag with
        | 0 ->
          let slot = int.read r in
          Slot { slot; payload = D.codec.read r }
        | 1 -> Release (int.read r)
        | 2 -> Skip (int.read r)
        | 3 -> Resend
        | other -> bad_tag ~name:"Replicated_log.msg" other)

  type config = {
    pair : int -> Pair.t;
    n : int;
    t : int;
    seed : int;
    slots : int;
    window : int;
  }

  let config ?(seed = 0) ?(window = 4) ~pair ~slots ~n ~t () =
    if slots < 0 then invalid_arg "Replicated_log.config: negative slots";
    if window < 1 then invalid_arg "Replicated_log.config: window must be >= 1";
    { pair; n; t; seed; slots; window }

  (* Per-slot seeds keep the per-instance coins independent. *)
  let slot_seed cfg slot = cfg.seed + (1_000_003 * slot)

  let slot_cfg cfg slot = D.config ~seed:(slot_seed cfg slot) ~pair:(cfg.pair slot) ()

  let wrap_payload slot actions =
    Protocol.map_actions (fun payload -> Slot { slot; payload }) actions

  let replica ?(activation = `Eager) ?(retain = 64) ?(base = 0) cfg ~me ~propose ~on_commit =
    if retain < 1 then invalid_arg "Replicated_log.replica: retain must be >= 1";
    if base < 0 || base > cfg.slots then
      invalid_arg "Replicated_log.replica: base out of range";
    let instances : (int, D.msg Protocol.instance) Hashtbl.t = Hashtbl.create 16 in
    let started : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let decided : (int, Value.t * string) Hashtbl.t = Hashtbl.create 16 in
    (* Slots touched by remote traffic before they were admitted; admitted on
       the next activation sweep once the window reaches them. *)
    let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    (* [base] is the first unstable slot of a recovered replica: slots below
       it were already committed (and persisted) in a previous life, so the
       log neither runs nor reports them again. *)
    let commits = ref base in
    (* [On_demand]: slots < released may start without remote traffic (the
       application has proposals for them). [Eager] releases everything. *)
    let released = ref (match activation with `Eager -> cfg.slots | `On_demand -> base) in
    (* All slots < low are started (or committed without a local start);
       the activation sweep never has to look below it. *)
    let low = ref base in
    (* Every send of each slot not yet committed, one list per batch of
       actions, for [Resend]; dropped when the slot commits or is skipped. *)
    let outbox : (int, msg Protocol.action list list) Hashtbl.t = Hashtbl.create 16 in
    let record slot sends =
      if sends <> [] && slot >= !commits then
        Hashtbl.replace outbox slot
          (sends :: Option.value ~default:[] (Hashtbl.find_opt outbox slot))
    in

    let instance_of slot =
      match Hashtbl.find_opt instances slot with
      | Some inst -> inst
      | None ->
        let inst = D.instance (slot_cfg cfg slot) ~me ~proposal:(propose ~slot) in
        Hashtbl.add instances slot inst;
        inst
    in

    let startable slot =
      match activation with
      | `Eager -> true
      | `On_demand -> slot < !released || Hashtbl.mem seen slot
    in

    (* Wrapping a slot's actions may commit, which may activate further
       slots, whose start actions are folded into the same result. *)
    let rec wrap slot actions =
      let sends = ref [] in
      let wrapped =
        List.concat_map
          (function
            | Protocol.Send (p, m) ->
              let send = Protocol.Send (p, Slot { slot; payload = m }) in
              sends := send :: !sends;
              [ send ]
            | Protocol.Set_timer { delay; msg } ->
              [ Protocol.Set_timer { delay; msg = Slot { slot; payload = msg } } ]
            | Protocol.Decide { value; tag } -> on_decide slot value tag)
          actions
      in
      record slot !sends;
      wrapped
    and on_decide slot value tag =
      if slot < !commits || Hashtbl.mem decided slot then []
      else begin
        Hashtbl.add decided slot (value, tag);
        flush_commits ()
      end
    and flush_commits () =
      match Hashtbl.find_opt decided !commits with
      | Some (value, tag) ->
        let slot = !commits in
        incr commits;
        Hashtbl.remove decided slot;
        (* A slot can commit purely from remote traffic, without a local
           start; record it as started so the [low] watermark stays a
           contiguous prefix. *)
        Hashtbl.replace started slot ();
        Hashtbl.remove seen slot;
        Hashtbl.remove outbox slot;
        (* Retire the instance that fell out of the retention band; stragglers
           for retired slots are dropped at the [on_message] floor. *)
        Hashtbl.remove instances (slot - retain);
        let provenance =
          match Dex_core.Dex.provenance_of_tag tag with
          | Some p -> p
          | None -> Dex_core.Dex.Underlying
        in
        on_commit ~slot ~provenance value;
        let opened = activate () in
        opened @ flush_commits ()
      | None -> activate ()
    and activate () =
      (* Keep [window] slots in flight beyond the committed prefix. *)
      let upper = min cfg.slots (!commits + cfg.window) in
      while !low < cfg.slots && Hashtbl.mem started !low do
        incr low
      done;
      let acc = ref [] in
      for slot = !low to upper - 1 do
        if (not (Hashtbl.mem started slot)) && startable slot then begin
          Hashtbl.replace started slot ();
          Hashtbl.remove seen slot;
          acc := !acc @ wrap slot ((instance_of slot).Protocol.start ())
        end
      done;
      !acc
    in

    let start () = activate () in
    let on_message ~now ~from m =
      match m with
      | Release upto ->
        (* Local control traffic: the application self-sends [release] when
           it has material for more slots. Only honoured from ourselves — a
           remote peer forging it could at worst open empty slots. *)
        if Pid.equal from me && upto > !released then begin
          released := min upto cfg.slots;
          activate ()
        end
        else []
      | Skip upto ->
        (* Local control traffic: a recovered replica self-sends [skip] after
           installing slots through the catch-up lane, fast-forwarding the
           commit frontier without re-running (or re-reporting) those slots.
           Only honoured from ourselves — a forged skip from a peer could
           silence commits. *)
        if Pid.equal from me && upto > !commits then begin
          let upto = min upto cfg.slots in
          while !commits < upto do
            let slot = !commits in
            incr commits;
            Hashtbl.replace started slot ();
            Hashtbl.remove decided slot;
            Hashtbl.remove seen slot;
            Hashtbl.remove outbox slot;
            Hashtbl.remove instances (slot - retain)
          done;
          (* Slots beyond the skip point that decided passively while we
             lagged can flush now. *)
          flush_commits ()
        end
        else []
      | Resend ->
        (* Local control traffic: a replica whose log stopped committing
           self-sends [resend] to repeat every send of its uncommitted
           slots. The log never retransmits otherwise, so a lost message
           that no replica can do without (a UC proposal, a vote the
           quorum needs) wedges the slot everywhere; instances ignore
           redelivery. Only honoured from ourselves. *)
        if Pid.equal from me then
          Hashtbl.fold
            (fun _ batches acc -> List.fold_left (fun acc s -> List.rev_append s acc) acc batches)
            outbox []
        else []
      | Slot { slot; payload } ->
        if slot < 0 || slot >= cfg.slots || slot < !commits - retain then []
        else begin
          let joined =
            if Hashtbl.mem started slot then []
            else begin
              Hashtbl.replace seen slot ();
              activate ()
            end
          in
          joined @ wrap slot ((instance_of slot).Protocol.on_message ~now ~from payload)
        end
    in
    { Protocol.start; on_message }

  (* How many per-slot auxiliary instances a dispatcher keeps alive. Slots
     are created in roughly increasing order, so evicting [slot - live_band]
     on creation bounds memory over unbounded logs. *)
  let live_band = 1024

  (* Mount one lazily-populating dispatcher per auxiliary pid: per-slot nodes
     are instantiated (and started) on first traffic for their slot, so a
     log with a large [slots] bound costs nothing up front. *)
  let lazy_dispatcher cfg ~node_of =
    let tbl : (int, D.msg Protocol.instance) Hashtbl.t = Hashtbl.create 16 in
    let get slot =
      match Hashtbl.find_opt tbl slot with
      | Some inst -> (inst, [])
      | None ->
        Hashtbl.remove tbl (slot - live_band);
        let inst = node_of slot in
        Hashtbl.add tbl slot inst;
        (inst, wrap_payload slot (inst.Protocol.start ()))
    in
    let start () = [] in
    let on_message ~now ~from m =
      match m with
      | Release _ | Skip _ | Resend -> []
      | Slot { slot; payload } ->
        if slot < 0 || slot >= cfg.slots then []
        else
          let inst, start_actions = get slot in
          start_actions @ wrap_payload slot (inst.Protocol.on_message ~now ~from payload)
    in
    { Protocol.start; on_message }

  let extra cfg =
    if cfg.slots = 0 then []
    else
      (* The auxiliary pid set is slot-independent (the UC mounts the same
         nodes for every instance); probe slot 0 for it. *)
      let pids = List.map fst (D.extra (slot_cfg cfg 0)) in
      List.map
        (fun pid ->
          let node_of slot =
            match List.assoc_opt pid (D.extra (slot_cfg cfg slot)) with
            | Some inst -> inst
            | None -> { Protocol.start = (fun () -> []); on_message = (fun ~now:_ ~from:_ _ -> []) }
          in
          (pid, lazy_dispatcher cfg ~node_of))
        pids

  let equivocator cfg ~me ~split =
    let instances : (int, D.msg Protocol.instance) Hashtbl.t = Hashtbl.create 16 in
    let get slot =
      match Hashtbl.find_opt instances slot with
      | Some inst -> (inst, [])
      | None ->
        Hashtbl.remove instances (slot - live_band);
        let inst = D.equivocator (slot_cfg cfg slot) ~me ~split:(split ~slot) in
        Hashtbl.add instances slot inst;
        (inst, wrap_payload slot (inst.Protocol.start ()))
    in
    (* Purely reactive: it equivocates on every slot it sees traffic for.
       (Starting eagerly would require enumerating the whole slot space.) *)
    let start () = [] in
    let on_message ~now ~from m =
      match m with
      | Release _ | Skip _ | Resend -> []
      | Slot { slot; payload } ->
        if slot < 0 || slot >= cfg.slots then []
        else
          let inst, start_actions = get slot in
          start_actions @ wrap_payload slot (inst.Protocol.on_message ~now ~from payload)
    in
    { Protocol.start; on_message }
end
