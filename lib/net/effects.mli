(** The shared interpreter for {!Protocol.action} lists.

    Every execution backend — the discrete-event simulator ({!Runner}), the
    model checker's schedule-driven executor ([Dex_mcheck.Exec]) and the
    loop-driven runtime ([Dex_runtime.Cluster]) — drives protocol
    instances by interpreting the action lists they emit. The interpretation
    loop itself (what a [Send], a [Decide], a [Set_timer] {e mean}) is
    backend-independent; only the three primitive effects differ. A backend
    supplies those primitives as a {!handler} and delegates to {!execute},
    so new backends plug in one record rather than re-implementing the
    action walk.

    [depth] threads the causal-step accounting through: it is the depth
    outgoing messages emitted by the current activation carry (a decision
    consumed a message of depth [depth - 1]; a timer re-enters the process
    at the depth it was set at). Backends without step accounting (the
    wall-clock runtime) ignore it. *)

open Dex_vector

type 'msg handler = {
  send : src:Pid.t -> depth:int -> dst:Pid.t -> payload:'msg -> unit;
      (** point-to-point transmission *)
  decide : pid:Pid.t -> depth:int -> value:Value.t -> tag:string -> unit;
      (** decision recording; first write per pid must win *)
  set_timer : src:Pid.t -> depth:int -> delay:float -> msg:'msg -> unit;
      (** deliver [msg] back to [src] after [delay], preserving [depth] *)
}

val execute : 'msg handler -> self:Pid.t -> depth:int -> 'msg Protocol.action list -> unit
(** Interpret the actions in emission order through the handler. *)
