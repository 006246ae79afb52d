(** An executable {e specification} of the radio model, independent of
    {!Radio_sim.Engine}: the reference oracle of the engine tests.

    This implementation is deliberately naive: it models the network as an
    immutable value, recomputes every round from scratch with folds over
    association lists, and derives node histories at the end from the global
    event log instead of accumulating them per node.  It shares no round
    bookkeeping with {!Radio_sim.Engine} — only the [Protocol] instance
    interface, and the plan and ledger types of crash, leave, join and
    retag runs.

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
  rounds : int;  (** global rounds simulated *)
  crashed_at : int array;
  departed_at : int array;
  ledger : Radio_sim.Engine.fired list;  (** chronological *)
}

val run :
  ?max_rounds:int ->
  ?plan:Radio_sim.Fault_plan.t ->
  Radio_drip.Protocol.t ->
  Radio_config.Config.t ->
  result
(** Same semantics as {!Radio_sim.Engine.run_plan} (default [max_rounds]
    100_000, empty plan) for plans of crashes, leaves, joins and retags;
    raises [Invalid_argument] on any other fault. *)

val agrees_with_engine : result -> Radio_sim.Engine.outcome -> bool
(** Field-by-field comparison against a {!Radio_sim.Engine} outcome. *)

val agrees_with_plan_outcome : result -> Radio_sim.Engine.plan_outcome -> bool
(** {!agrees_with_engine} plus the rounds, crash and departure rounds and
    the ledger. *)
