(** Model-conformance checker for engine outcomes.

    Verifies that an {!Radio_sim.Engine.outcome} satisfies every invariant
    promised by [lib/sim/engine.mli] — the Miller–Pelc–Yadav model of
    Sections 2.1/2.2 — as perturbed by a fault plan.  One pass does the
    work; the pristine model is its run on {!Radio_sim.Fault_plan.empty}
    with no crash, where every fault branch collapses to the pristine rule:

    - {b shape}: all per-node arrays have length [n]; [all_terminated]
      agrees with [done_local] over live nodes; terminated nodes satisfy
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
    - {b crash silence}: a crashed node's history stops at the crash round,
      it is never marked terminated, and (traced) it transmits nothing at or
      after its crash;
    - {b collision semantics} (traced outcomes only): replaying the trace's
      transmitter sets through the graph, with the plan's drops removed
      from the air, must reproduce every recorded history entry — exactly
      one audible transmitting neighbour yields its message, two or more
      yield [Collision], transmitters hear [Silence], and a noisy listener
      hears [Collision];
    - {b termination permanence} (traced): no node transmits at or after its
      termination round;
    - {b forced wake-up uniqueness} (traced): a sleeping node is force-woken
      iff exactly one audible neighbour transmits and no noise hits it, by
      that neighbour's message (else it stays asleep until its tag); the
      trace's wake-up and termination events agree with the outcome;
    - {b anonymity} (traced, no crash fired): nodes with identical history
      prefixes take identical actions — the defining property of a DRIP.

    Passing [?protocol] additionally replays each recorded history into a
    fresh [spawn] ({!Purity.replay}) and, on fault-free outcomes,
    re-executes the whole configuration ({!Purity.rerun}), which catches
    shared mutable state between instances and internal nondeterminism.
    Only pass deterministic protocols. *)

val validate :
  ?protocol:Radio_drip.Protocol.t -> Radio_sim.Engine.outcome -> Report.t
(** The pristine model: every check above on the empty plan with no crash,
    plus {!Purity.replay} and {!Purity.rerun} when [protocol] is given. *)

(** {1 Faulty outcomes}

    {!Radio_sim.Engine.run_plan} runs deviate from the pristine model on
    purpose, so the pristine checks would flag every injected fault.  The
    fault-aware validator runs the same pass under the run's plan and
    crashes, after the {b fault ledger} check: every fired event is
    scheduled by the plan, rounds are in range, [observed_by] is sorted;
    crashes are unobserved, agree with [crashed_at], and every entry of
    [crashed_at] has a matching ledger event. *)

val validate_faulty :
  ?protocol:Radio_drip.Protocol.t ->
  Radio_sim.Engine.plan_outcome ->
  Report.t
(** Under topology events only the ledger is checked (every other check
    recomputes semantics against the static graph).  [protocol] adds the
    per-node history replay ({!Purity.replay}); the whole-configuration
    rerun applies only when both the plan and the ledger are empty (the
    pristine engine cannot reproduce a faulty outcome). *)
