(** Seeded mutants of the canonical DRIP — negative controls proving the
    checker catches what it claims to catch.  Each mutant breaks exactly
    one property:

    - {!greedy_decision} keeps the canonical action schedule but accepts
      {e every} final class in the decision function, so every node decides
      at termination: a [Two_leaders] safety violation on any configuration
      with [n >= 2].  Because the actions are untouched, the extracted
      counterexample trace is a perfectly valid canonical-DRIP execution —
      it {e passes} [anorad check-trace] — and only the decision layer is
      broken, exactly as the checker verdict predicts.

    - {!early_stop} terminates every node one local round before the
      plan's schedule completes.  On feasible configurations no node ever
      holds the full election evidence, so no leader emerges
      ([No_leader_on_feasible]); the trace diverges from the canonical
      DRIP's and {e fails} validation against the healthy protocol while
      replaying bit-for-bit under the mutant itself. *)

val greedy_decision : Election.Canonical.plan -> Machine.t
val early_stop : Election.Canonical.plan -> Machine.t

val of_name : Election.Canonical.plan -> string -> Machine.t option
(** Registry used by [anorad mc --protocol]. *)

val names : string list
