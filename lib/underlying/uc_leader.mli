(** Leader-based underlying consensus for eventually-synchronous runs
    ([n > 4t]).

    A third instantiation of the §2.2 abstraction, complementing
    {!Uc_oracle} (idealized) and {!Multivalued} (randomized): a
    signature-free rotating-proposer protocol in the Tendermint style, live
    once message delays stabilize under the (growing) round timeouts. The
    paper's asynchronous algorithms never rely on timing; only this UC
    component does, which is consistent with §2.2 ("we simply assume an
    abstraction of them" — partial synchrony being one of the listed
    assumptions).

    Structure:

    + [UC_propose(v)] reliably broadcasts [VAL(v)] (Bracha). On RB-delivering
      [n − t] proposals a process fixes a {e sticky} estimate: the unique
      value with support [≥ n − 2t] if one exists (unique because
      [2(n − 2t) > n] for [n > 4t]), else a fixed fallback — and broadcasts
      [EST(est)] once.
    + Rounds [r = 0, 1, …] with proposer [r mod n]. The proposer broadcasts
      [PROPOSAL(r, w)] with [w] = its locked value, else its estimate.
    + A process prevotes [w] iff it locked [w], or it is unlocked and holds
      {e evidence} for [w]: [EST(w)] from [t + 1] distinct senders (hence
      from at least one correct process). Otherwise it prevotes [nil] when
      the round's proposal timer fires.
    + [n − t] prevotes for one [w] lock it and trigger [PRECOMMIT(r, w)];
      a prevote timeout precommits [nil]. [n − t] precommits for [w]
      (in any round) decide [w]. A precommit timeout enters round [r + 1]
      with timeout [base · (r + 2)].

    Why the §2.2 obligations hold:
    - {b Agreement}: per-round lock uniqueness by quorum intersection
      ([2(n − t) − n = n − 2t > t] forces a correct double-prevoter);
      across rounds, once [w] gathers [n − t] precommit support, at least
      [n − 2t] correct processes are locked on [w] and never prevote
      anything else, leaving at most [t + t < n − t] possible prevotes for
      any other value — no other value can ever be locked or decided.
    - {b Unanimity}: if all correct propose [v], every [n − t] RB-delivery
      set contains [≥ n − 2t] copies of [v], so every correct estimate is
      [v]; any other value collects at most [t] ESTs and is never
      justified, so only [v] can gather prevotes.
    - {b Termination}: estimates and evidence are sticky/monotone facts that
      eventually replicate everywhere (Bracha totality, plain broadcast);
      among correct estimates one value has [≥ t + 1] holders by
      pigeonhole, so its evidence eventually justifies some rotating
      correct proposer's choice, and once timeouts exceed the (eventually
      bounded) message delays that round decides at every correct process
      from the same broadcast precommits.

    Timers use {!Dex_net.Protocol.Set_timer}. The round-0 timeout
    [timeout_base] is in the runner's time units, and round [r] waits
    [timeout_base · (r + 1)] per phase. The module itself is the instance
    for simulated units ([timeout_base = 8.0]: the bundled disciplines
    deliver within one unit); a live deployment counts seconds and builds
    its own with {!Make}. *)

open Dex_vector
open Dex_broadcast

type msg =
  | Val of Value.t Bracha.msg
  | Est of Value.t
  | Proposal of int * Value.t
  | Prevote of int * Value.t option
  | Precommit of int * Value.t option
  | Wake of int * [ `Propose | `Prevote | `Precommit ]  (** round timers *)

val pp_msg : Format.formatter -> msg -> unit

val fallback : Value.t
(** Estimate when no proposal reaches support [n − 2t] (0). *)

module Make (_ : sig val timeout_base : float end) : Uc_intf.S with type msg = msg
(** The protocol with round-0 timeout [timeout_base]. *)

include Uc_intf.S with type msg := msg
