(** An executable {e specification} of the radio model, independent of
    {!Radio_sim.Engine}: the reference oracle of the engine tests.

    This implementation is deliberately naive: it models the network as an
    immutable value, recomputes every round from scratch with folds over
    association lists, and derives node histories at the end from the global
    event log instead of accumulating them per node.  It shares no round
    bookkeeping with {!Radio_sim.Engine} — only the [Protocol] instance
    interface.

    Its only purpose is differential testing: the property suite runs both
    engines on random protocols and configurations and requires identical
    histories, wake-ups and termination rounds.  A disagreement means one of
    the two misreads the model; agreement on thousands of random executions
    is the strongest evidence the optimized engine implements Section 2
    faithfully. *)

type result = {
  histories : Radio_drip.History.t array;
  wake_round : int array;
  forced : bool array;
  done_local : int array;  (** -1 if still running at the cutoff *)
  all_terminated : bool;
}

val run :
  ?max_rounds:int ->
  Radio_drip.Protocol.t ->
  Radio_config.Config.t ->
  result
(** Same semantics as {!Radio_sim.Engine.run} (default [max_rounds] 100_000). *)

val agrees_with_engine : result -> Radio_sim.Engine.outcome -> bool
(** Field-by-field comparison against a {!Radio_sim.Engine} outcome. *)
