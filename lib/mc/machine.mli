(** Pluggable per-node machines for the model checker.

    A machine is one protocol seen twice: as a pure transition function
    [decide : history -> action] — the paper's literal DRIP form, which the
    checker memoizes per interned history key — and as an executable
    {!Radio_drip.Protocol.t} used to replay extracted counterexample traces
    through the concrete {!Radio_sim.Engine}.  The [decision] predicate
    says whether a final history makes its node a leader (Section 2.3).

    The two views must agree; {!of_protocol} guarantees it by construction
    (fresh-spawn replay of the engine's exact decide/observe interleaving),
    and the canonical-DRIP entries rely on the tested equivalence of
    {!Canonical.protocol} and {!Canonical.pure_drip}.

    Only deterministic anonymous machines can be registered: the randomized
    baselines (shared RNG) and the labeled one (spawn-order identities)
    fall outside the transition system and are intentionally excluded. *)

type t = {
  name : string;
  protocol : Radio_drip.Protocol.t;  (** for concrete Engine replay *)
  decide : Radio_drip.History.t -> Radio_drip.Protocol.action;
      (** the pure DRIP: action of local round [i] from [H[0..i-1]] *)
  decision : Radio_drip.History.t -> bool;
      (** leader predicate on final histories *)
}

val pure_of_protocol :
  Radio_drip.Protocol.t ->
  Radio_drip.History.t ->
  Radio_drip.Protocol.action
(** The pure view of a protocol: spawn a fresh instance and replay the
    engine's call sequence (wake-up, then decide-and-discard before every
    later observation), returning the final decision.  [O(|h|)] per call.
    Raises [Invalid_argument] on the empty history. *)

val of_protocol :
  ?name:string ->
  ?decision:(Radio_drip.History.t -> bool) ->
  Radio_drip.Protocol.t ->
  t
(** Wraps a protocol; [decision] defaults to never electing. *)

val of_election : ?name:string -> Radio_sim.Runner.election -> t

val drip : Election.Canonical.plan -> t
(** The canonical DRIP [D_G] compiled from a configuration's plan
    ([Feasibility.analysis.plan]): stateful protocol, literal pure form,
    singleton-class decision. *)

val pure_drip : Election.Canonical.plan -> t
(** Same plan, but the replay protocol is {!Canonical.pure_protocol}. *)

val of_name : Election.Canonical.plan -> string -> t option
(** Registry used by [anorad mc --protocol]: drip, pure-drip, beacon,
    silent, min-beacon, wave.  Only the drip entries read the plan. *)

val names : string list
