(** Distributed radio interaction protocols (DRIPs) and their execution
    interface (Miller–Pelc–Yadav, Section 2.2).

    A DRIP is formally a function from a node's history prefix
    [H_v[0 .. i-1]] to the action of local round [i].  Because replaying the
    whole prefix every round is quadratic, the engine talks to protocols
    through per-node {e instances}: mutable objects whose visible behaviour
    must be a function of the local history only (anonymity!).  {!of_pure}
    converts a literal history-function DRIP into an instance, and the test
    suite checks that the optimized stateful implementations coincide with
    their pure counterparts on sample executions. *)

(** Action chosen for a local round.  After [Terminate] the node is silent
    and deaf forever; termination must be permanent (Section 2.2).

    [Quiet k] ([k >= 1]) is a {e quiet horizon}: "I listen in this round
    and in the next [k - 1] local rounds, whatever I hear".  It is [Listen]
    for the round it is returned in, plus a promise that lets the caller stop
    asking: the engine does not call [decide] again until local round
    [i + k], it reports the entries of those rounds that are not [Silence]
    through [observe] as they happen, and it folds each run of silent rounds
    into one [skip] call.  A [Quiet k] with [k < 1] is treated as [Quiet 1]. *)
type action =
  | Listen
  | Quiet of int
  | Transmit of string
  | Terminate

(** One node's running protocol instance.  A per-round loop (the
    executable specification, the purity replay, the model checker's
    history function) runs it as: [on_wakeup e0] once (the wake-up entry
    [H[0]]), then for each local round [i >= 1]: [decide ()] for the
    action, read through {!per_round}, followed by [observe e_i] with the
    entry recorded for that round ([Silence] when the node transmitted).

    The engine makes the same calls except inside a quiet horizon: there a
    round whose entry is [Silence] is not reported at once, and [skip k]
    reports [k] such rounds together, before the next [observe] or
    [decide].  [skip k] must therefore act exactly like [k] calls of
    [observe Silence]; {!stateful} and {!of_pure} derive it so, and every
    protocol must behave identically under both ways of running it.  An instance that
    never returns [Quiet] is never sent [skip].  After [decide] returns
    [Terminate], the instance is never consulted again.

    Within one round the engine calls [decide] and the [observe] of nodes
    that returned [Listen] or [Transmit] in ascending node order; a quiet
    node reached by a message or by noise is called after them.  Instances
    that share mutable state (the randomized baselines' random source)
    must therefore not return [Quiet]. *)
type instance = {
  on_wakeup : History.entry -> unit;
  decide : unit -> action;
  observe : History.entry -> unit;
  skip : int -> unit;
}

type t = {
  name : string;
  spawn : unit -> instance;
}
(** An anonymous protocol: every node runs an instance produced by the same
    [spawn] (identical algorithm at identical nodes).  [spawn] may close over
    a shared random source for randomized baselines; deterministic DRIPs must
    not share mutable state between instances. *)

val per_round : action -> action
(** The action a per-round loop executes: [Quiet _] is [Listen], every
    other action is itself. *)

val skip_by_observe : (History.entry -> unit) -> int -> unit
(** [skip_by_observe observe k] calls [observe Silence] [k] times: the
    [skip] of an instance that keeps no cheaper account of silent rounds. *)

val of_pure : name:string -> (History.t -> action) -> t
(** Wraps a literal DRIP [D]: at local round [i] the instance calls
    [D (H[0 .. i-1])].  Quadratic overall, but the most direct transcription
    of the paper's definition; used as ground truth in tests. *)

val stateful :
  name:string ->
  init:(History.entry -> 's) ->
  decide:('s -> action) ->
  observe:('s -> History.entry -> 's) ->
  t
(** Functional-state protocol: [init] consumes the wake-up entry, [decide]
    picks the round's action, [observe] folds in the recorded entry; [skip]
    is {!skip_by_observe}. *)

val silent : ?lifetime:int -> unit -> t
(** A protocol that listens for [lifetime] rounds (default 0) and then
    terminates.  Useful for probing wake-up behaviour. *)

val beacon : ?message:string -> ?delay:int -> unit -> t
(** Transmits [message] (default ["1"]) once, in local round [delay + 1]
    (default round 1), then terminates.  The minimal symmetry prober. *)
