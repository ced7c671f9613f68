open Dex_vector
open Dex_net

type kind = Message | Timer

type key = { src : Pid.t; dst : Pid.t; kind : kind; chan : int }

let pp_key ppf k =
  Format.fprintf ppf "%a>%a:%s:%d" Pid.pp k.src Pid.pp k.dst
    (match k.kind with Message -> "M" | Timer -> "T")
    k.chan

let key_to_string k =
  Format.asprintf "%d>%d:%s:%d" k.src k.dst
    (match k.kind with Message -> "M" | Timer -> "T")
    k.chan

let key_of_string s =
  match String.split_on_char ':' s with
  | [ ends; kind_s; chan_s ] -> begin
    match String.split_on_char '>' ends with
    | [ src_s; dst_s ] -> begin
      match
        ( int_of_string_opt src_s,
          int_of_string_opt dst_s,
          int_of_string_opt chan_s,
          kind_s )
      with
      | Some src, Some dst, Some chan, "M" -> Some { src; dst; kind = Message; chan }
      | Some src, Some dst, Some chan, "T" -> Some { src; dst; kind = Timer; chan }
      | _ -> None
    end
    | _ -> None
  end
  | _ -> None

type decision = { value : Value.t; tag : string; depth : int; step : int }

type delivery = { step : int; key : key; depth : int }

type 'msg system = {
  n : int;
  make_instance : Pid.t -> 'msg Protocol.instance;
  make_extra : unit -> (Pid.t * 'msg Protocol.instance) list;
}

type 'msg event = { key : key; payload : 'msg; depth : int }

type 'msg t = {
  sys : 'msg system;
  instances : (Pid.t, 'msg Protocol.instance) Hashtbl.t;
  mutable inflight : 'msg event list;  (* emission order, oldest first *)
  chans : (Pid.t * Pid.t * kind, int) Hashtbl.t;
  mutable nsteps : int;
  decisions : decision option array;
  mutable late : (Pid.t * decision) list;
  mutable deliveries : delivery list;  (* newest first *)
}

let enqueue t ~src ~dst ~kind ~depth payload =
  (* Sends to pids with no instance model the network discarding traffic a
     Byzantine node addresses to non-existent processes — mirrors Runner. *)
  if Hashtbl.mem t.instances dst then begin
    let ck = (src, dst, kind) in
    let chan = Option.value ~default:0 (Hashtbl.find_opt t.chans ck) in
    Hashtbl.replace t.chans ck (chan + 1);
    t.inflight <- t.inflight @ [ { key = { src; dst; kind; chan }; payload; depth } ]
  end

(* The checker's primitives for the shared {!Effects} interpreter. [depth]
   is the causal depth outgoing messages carry: a timer re-enters the
   process one level lower, so that its handler's emissions keep the depth
   current when the timer was set; a decision consumed a message of depth
   [depth - 1]. *)
let handler t =
  {
    Effects.send =
      (fun ~src ~depth ~dst ~payload -> enqueue t ~src ~dst ~kind:Message ~depth payload);
    set_timer =
      (fun ~src ~depth ~delay:_ ~msg -> enqueue t ~src ~dst:src ~kind:Timer ~depth:(depth - 1) msg);
    decide =
      (fun ~pid ~depth ~value ~tag ->
        let d = { value; tag; depth = depth - 1; step = t.nsteps } in
        if pid >= 0 && pid < t.sys.n then
          match t.decisions.(pid) with
          | None -> t.decisions.(pid) <- Some d
          | Some _ -> t.late <- (pid, d) :: t.late);
  }

let create sys =
  let extras = List.sort (fun (a, _) (b, _) -> Pid.compare a b) (sys.make_extra ()) in
  let t =
    {
      sys;
      instances = Hashtbl.create (sys.n + List.length extras);
      inflight = [];
      chans = Hashtbl.create 64;
      nsteps = 0;
      decisions = Array.make sys.n None;
      late = [];
      deliveries = [];
    }
  in
  let ordered =
    List.map (fun p -> (p, sys.make_instance p)) (Pid.all ~n:sys.n) @ extras
  in
  List.iter (fun (p, inst) -> Hashtbl.replace t.instances p inst) ordered;
  List.iter
    (fun (p, inst) -> Effects.execute (handler t) ~self:p ~depth:1 (inst.Protocol.start ()))
    ordered;
  t

let inflight t = List.map (fun ev -> ev.key) t.inflight

let quiescent t = t.inflight = []

let steps t = t.nsteps

let deliver_event t ev =
  t.nsteps <- t.nsteps + 1;
  t.deliveries <- { step = t.nsteps; key = ev.key; depth = ev.depth } :: t.deliveries;
  match Hashtbl.find_opt t.instances ev.key.dst with
  | None -> ()
  | Some inst ->
    let actions =
      inst.Protocol.on_message ~now:(float_of_int t.nsteps) ~from:ev.key.src ev.payload
    in
    Effects.execute (handler t) ~self:ev.key.dst ~depth:(ev.depth + 1) actions

let deliver_nth t k =
  let rec split i acc = function
    | [] -> invalid_arg "Exec.deliver_nth: index out of range"
    | ev :: rest when i = k -> (ev, List.rev_append acc rest)
    | ev :: rest -> split (i + 1) (ev :: acc) rest
  in
  if k < 0 then invalid_arg "Exec.deliver_nth: negative index";
  let ev, remaining = split 0 [] t.inflight in
  t.inflight <- remaining;
  deliver_event t ev

let deliver_key t key =
  let rec find i = function
    | [] -> None
    | ev :: _ when ev.key = key -> Some i
    | _ :: rest -> find (i + 1) rest
  in
  match find 0 t.inflight with
  | None -> false
  | Some k ->
    deliver_nth t k;
    true

let run_fifo ?(max_steps = 100_000) t =
  let rec loop () =
    if t.inflight = [] then true
    else if t.nsteps >= max_steps then false
    else begin
      deliver_nth t 0;
      loop ()
    end
  in
  loop ()

let fingerprint t =
  (* Per-receiver delivered-key sequences, receivers in pid order. Receiver
     state is a function of its own delivery sequence and deliveries at
     distinct receivers commute, so this digest identifies the global
     state. *)
  let per : (Pid.t, Buffer.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (d : delivery) ->
      let buf =
        match Hashtbl.find_opt per d.key.dst with
        | Some b -> b
        | None ->
          let b = Buffer.create 64 in
          Hashtbl.replace per d.key.dst b;
          b
      in
      Buffer.add_string buf (key_to_string d.key);
      Buffer.add_char buf ';')
    (List.rev t.deliveries);
  let pids = List.sort Pid.compare (Hashtbl.fold (fun p _ acc -> p :: acc) per []) in
  String.concat "|"
    (List.map
       (fun p -> Printf.sprintf "%d=%s" p (Buffer.contents (Hashtbl.find per p)))
       pids)

type summary = {
  sys_n : int;
  decisions : decision option array;
  late : (Pid.t * decision) list;
  deliveries : delivery list;
  complete : bool;
}

let summary t =
  {
    sys_n = t.sys.n;
    decisions = Array.copy t.decisions;
    late = List.rev t.late;
    deliveries = List.rev t.deliveries;
    complete = t.inflight = [];
  }

let replay ?(max_steps = 100_000) ?(loose = false) sys schedule =
  let t = create sys in
  List.iter
    (fun key ->
      if t.nsteps < max_steps then
        if not (deliver_key t key) && not loose then
          invalid_arg
            (Printf.sprintf "Exec.replay: %s not in flight" (key_to_string key)))
    schedule;
  t

let to_trace ?pp_msg sys schedule =
  let trace = Dex_sim.Trace.create () in
  let t = create sys in
  let record_decisions_after before_step =
    Array.iteri
      (fun pid d ->
        match d with
        | Some (d : decision) when d.step = before_step ->
          Dex_sim.Trace.recordf trace ~time:(float_of_int d.step)
            "decide %a value=%a depth=%d tag=%s" Pid.pp pid Value.pp d.value d.depth
            d.tag
        | _ -> ())
      t.decisions
  in
  let deliver_traced key =
    let payload_pp ppf ev =
      match pp_msg with
      | Some pp -> pp ppf ev.payload
      | None -> Format.pp_print_string ppf "<msg>"
    in
    match List.find_opt (fun ev -> ev.key = key) t.inflight with
    | None -> ()
    | Some ev ->
      ignore (deliver_key t key);
      Dex_sim.Trace.recordf trace ~time:(float_of_int t.nsteps)
        "deliver %a->%a depth=%d %a" Pid.pp key.src Pid.pp key.dst ev.depth payload_pp
        ev;
      record_decisions_after t.nsteps
  in
  record_decisions_after 0;
  List.iter deliver_traced schedule;
  let rec drain () =
    match t.inflight with
    | [] -> ()
    | _ when t.nsteps >= 100_000 -> ()
    | ev :: _ ->
      deliver_traced ev.key;
      drain ()
  in
  drain ();
  trace
