(** Model-conformance checker for engine outcomes.

    Verifies that an {!Radio_sim.Engine.outcome} satisfies every invariant
    promised by [lib/sim/engine.mli] — the Miller–Pelc–Yadav model of
    Sections 2.1/2.2:

    - {b shape}: all per-node arrays have length [n]; [all_terminated]
      agrees with [done_local]; terminated nodes satisfy
      [wake + done <= rounds];
    - {b history length}: a terminated node's history has exactly
      [done_local] entries (the terminate decision consumes none); a node
      still running at the cutoff has [rounds - wake_round] entries; a
      sleeping node has none;
    - {b wake-up semantics}: [forced] nodes start with [Message _] and woke
      no later than their tag; spontaneous nodes start with [Silence] and
      woke exactly at their tag; [Collision] never appears at index 0;
    - {b energy/metric ledgers}: [transmissions_by_node] sums to the
      transmission metric; wake-up and reception counters agree with the
      histories;
    - {b collision semantics} (traced outcomes only): replaying the trace's
      transmitter sets through the graph must reproduce every recorded
      history entry — exactly one transmitting neighbour yields its message,
      two or more yield [Collision], transmitters hear [Silence];
    - {b termination permanence} (traced): no node transmits at or after its
      termination round;
    - {b forced wake-up uniqueness} (traced): a sleeping node wakes iff
      exactly one neighbour transmits (else it stays asleep until its tag);
    - {b anonymity} (traced): nodes with identical history prefixes take
      identical actions — the defining property of a DRIP.

    Passing [?protocol] additionally replays each recorded history into a
    fresh [spawn] and re-executes the whole configuration ({!Purity}),
    which catches shared mutable state between instances and internal
    nondeterminism.  Only pass deterministic protocols. *)

val structural : Radio_sim.Engine.outcome -> Report.t
(** The trace-independent checks. *)

val trace_conformance : Radio_sim.Engine.outcome -> Report.t
(** Collision semantics, termination permanence and forced-wake-up
    uniqueness.  Empty when the outcome carries no trace. *)

val anonymity : Radio_sim.Engine.outcome -> Report.t
(** The cross-node DRIP law: identical history prefixes imply identical
    actions.  Empty when the outcome carries no trace. *)

val validate :
  ?protocol:Radio_drip.Protocol.t -> Radio_sim.Engine.outcome -> Report.t
(** All of the above, plus {!Purity.replay} and {!Purity.rerun} when
    [protocol] is given. *)

val validate_exn :
  ?protocol:Radio_drip.Protocol.t -> Radio_sim.Engine.outcome -> unit
(** Raises [Failure] with a rendered report when {!validate} finds
    violations. *)

(** {1 Faulty outcomes}

    {!Radio_sim.Engine.run_plan} runs deviate from the pristine model on
    purpose, so the pristine checks would flag every injected fault.  The
    fault-aware validator instead checks the outcome against the model
    {e as perturbed by the plan}:

    - {b fault ledger}: every fired event is scheduled by the plan, rounds
      are in range, [observed_by] is sorted; crashes are unobserved, agree
      with [crashed_at], and every entry of [crashed_at] has a matching
      ledger event;
    - {b crash silence}: a crashed node's history stops at the crash round,
      it is never marked terminated, and (traced) it transmits nothing at or
      after its crash;
    - {b drop semantics} (traced): recomputing every reception with the
      plan's drops removed from the air must reproduce the recorded entries —
      a dropped message never appears in the receiver's history;
    - {b noise semantics} (traced): a noisy listener records [Collision];
      a noisy sleeping node is never force-woken;
    - {b wake-up semantics} (traced): forced iff exactly one {e audible}
      (post-drop) neighbour transmits and no noise.

    On an empty plan with an empty ledger this is exactly {!validate} —
    the identity law extends to the checker. *)

val validate_faulty :
  ?protocol:Radio_drip.Protocol.t ->
  Radio_sim.Engine.plan_outcome ->
  Report.t
(** [protocol] adds the per-node history replay ({!Purity.replay}); the
    whole-configuration rerun is skipped on non-empty plans (the pristine
    engine cannot reproduce a faulty outcome). *)

val validate_faulty_exn :
  ?protocol:Radio_drip.Protocol.t ->
  Radio_sim.Engine.plan_outcome ->
  unit
