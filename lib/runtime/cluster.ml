open Dex_vector
open Dex_net

type decision = { value : Value.t; tag : string; wall : float }

(* One run of a node. Every callback the incarnation schedules — a frame,
   a timer, a self-send — checks [live] on the loop first, so whatever a
   stopped incarnation left behind is a tombstone, never a call into its
   successor. *)
type 'msg incarnation = {
  pid : Pid.t;
  instance : 'msg Protocol.instance;
  live : bool Atomic.t;
}

type 'msg node = { mutable inc : 'msg incarnation }

type 'msg t = {
  transport : 'msg Transport.t;
  n : int;
  nodes : (Pid.t * 'msg node) list;
  decisions : decision option array;
  decisions_mutex : Mutex.t;
  decided_cond : Condition.t;  (** signalled under [decisions_mutex] on every new decision *)
  lifecycle_mutex : Mutex.t;  (** serializes start/stop/shutdown transitions *)
  reactor : Reactor.t;  (** every node's loop; also runs await deadlines *)
  owns_reactor : bool;
  mutable running : bool;
  mutable started : bool;
  mutable epoch : float;
}

let incarnation ~pid ~instance = { pid; instance; live = Atomic.make false }

let create ~transport ~n ?(extra = []) ?reactor make_instance =
  let owns_reactor, reactor =
    match reactor with
    | Some r -> (false, r)
    | None -> (true, Reactor.create ~name:"cluster" ())
  in
  let instances = List.map (fun p -> (p, make_instance p)) (Pid.all ~n) @ extra in
  {
    transport;
    n;
    nodes = List.map (fun (pid, instance) -> (pid, { inc = incarnation ~pid ~instance })) instances;
    decisions = Array.make n None;
    decisions_mutex = Mutex.create ();
    decided_cond = Condition.create ();
    lifecycle_mutex = Mutex.create ();
    reactor;
    owns_reactor;
    running = false;
    started = false;
    epoch = 0.0;
  }

let record_decision t ~pid ~value ~tag =
  if pid >= 0 && pid < t.n then
    Mutex.protect t.decisions_mutex (fun () ->
        if t.decisions.(pid) = None then begin
          t.decisions.(pid) <- Some { value; tag; wall = Unix.gettimeofday () -. t.epoch };
          Condition.broadcast t.decided_cond
        end)

(* The runtime interprets actions through the same {!Effects} interpreter as
   the simulator; only the three primitives differ. A send to oneself and a
   timer are local events: they are posted on the loop and never cross the
   transport (nor its fault plan). Causal depth is not tracked against the
   wall clock, so the handler ignores it. *)
let rec handler t inc =
  {
    Effects.send =
      (fun ~src:_ ~depth:_ ~dst ~payload ->
        if Pid.equal dst inc.pid then Reactor.post t.reactor (fun () -> run t inc ~from:dst payload)
        else t.transport.Transport.send ~src:inc.pid ~dst payload);
    decide = (fun ~pid ~depth:_ ~value ~tag -> record_decision t ~pid ~value ~tag);
    set_timer =
      (fun ~src:_ ~depth:_ ~delay ~msg ->
        ignore (Reactor.after t.reactor delay (fun () -> run t inc ~from:inc.pid msg)));
  }

and run t inc ~from msg =
  if Atomic.get inc.live then
    let now = Unix.gettimeofday () -. t.epoch in
    Effects.execute (handler t inc) ~self:inc.pid ~depth:0
      (inc.instance.Protocol.on_message ~now ~from msg)

(* The delivery hook, on the transport's thread: post the frame on the
   loop. The endpoint calls its hook one frame at a time and the posted
   queue is FIFO, so frames run in arrival order. *)
let enqueue t inc from msg = Reactor.post t.reactor (fun () -> run t inc ~from msg)

(* [start] is posted before the hook goes in, so it runs before any frame —
   including frames that reached the endpoint before the hook existed,
   which the transport hands over on installation. *)
let launch t inc =
  Atomic.set inc.live true;
  Reactor.post t.reactor (fun () ->
      if Atomic.get inc.live then
        Effects.execute (handler t inc) ~self:inc.pid ~depth:0 (inc.instance.Protocol.start ()));
  t.transport.Transport.deliver ~me:inc.pid (Some (enqueue t inc))

(* Tombstone the incarnation and drop its traffic at the endpoint. *)
let retire t inc =
  Atomic.set inc.live false;
  t.transport.Transport.deliver ~me:inc.pid (Some (fun _ _ -> ()))

let start t =
  if t.started then invalid_arg "Cluster.start: already started";
  t.started <- true;
  t.running <- true;
  t.epoch <- Unix.gettimeofday ();
  List.iter (fun (_, node) -> launch t node.inc) t.nodes

let find_node t pid =
  match List.assoc_opt pid t.nodes with
  | Some node -> node
  | None -> invalid_arg "Cluster: unknown pid"

let stop_node t pid =
  Mutex.protect t.lifecycle_mutex (fun () ->
      let inc = (find_node t pid).inc in
      if Atomic.get inc.live then begin
        retire t inc;
        (* A barrier: a callback that saw [live] before it dropped finishes
           before this returns; every later one is a tombstone. *)
        Reactor.call t.reactor ignore
      end)

let start_node t pid instance =
  Mutex.protect t.lifecycle_mutex (fun () ->
      if not t.running then invalid_arg "Cluster.start_node: cluster not running";
      let node = find_node t pid in
      if Atomic.get node.inc.live then invalid_arg "Cluster.start_node: node is running";
      node.inc <- incarnation ~pid ~instance;
      launch t node.inc)

let decisions t = Mutex.protect t.decisions_mutex (fun () -> Array.copy t.decisions)

(* Block on the decision condition variable instead of polling. The stdlib
   [Condition] has no timed wait, so a cancellable reactor timer broadcasts
   once at the deadline; between decisions and that single wake-up the
   waiter is fully asleep. A cluster that shut down mid-wait can produce no
   further decisions (and its deadline timer died with the reactor), so the
   wait also ends when [running] goes false — {!shutdown} broadcasts. *)
let await ?(timeout = 10.0) ?among t =
  let pids = match among with Some l -> l | None -> Pid.all ~n:t.n in
  let deadline = Unix.gettimeofday () +. timeout in
  let all_decided () =
    List.for_all (fun p -> p >= 0 && p < t.n && t.decisions.(p) <> None) pids
  in
  Mutex.lock t.decisions_mutex;
  let watchdog =
    if all_decided () then None
    else
      Some
        (Reactor.after t.reactor timeout (fun () ->
             Mutex.protect t.decisions_mutex (fun () -> Condition.broadcast t.decided_cond)))
  in
  let rec wait () =
    if all_decided () then true
    else if Unix.gettimeofday () >= deadline then false
    else if not t.running then false
    else begin
      Condition.wait t.decided_cond t.decisions_mutex;
      wait ()
    end
  in
  let result = wait () in
  Mutex.unlock t.decisions_mutex;
  Option.iter (Reactor.cancel t.reactor) watchdog;
  result

let shutdown t =
  (* Safe to call concurrently and repeatedly: exactly one caller observes
     [running = true] under the lifecycle lock and performs the teardown;
     later and concurrent callers return once it is done. *)
  Mutex.protect t.lifecycle_mutex (fun () ->
      if t.running then begin
        t.running <- false;
        List.iter (fun (_, node) -> retire t node.inc) t.nodes;
        Reactor.call t.reactor ignore;
        t.transport.Transport.close ();
        if t.owns_reactor then Reactor.stop t.reactor;
        (* Wake waiters in [await]: no further decision can arrive. *)
        Mutex.protect t.decisions_mutex (fun () -> Condition.broadcast t.decided_cond)
      end)
