(** Churn supervision: keeping a leader standing while the network flaps.

    The engine ({!Radio_sim.Engine.run_plan}) answers "what happens to one
    election run while the topology changes under it".  This module is the
    control-plane view an operator has over a {e long-lived} deployment:
    the fault plan's topology events (and crashes) partition the timeline
    [0 .. horizon) into {b epochs} of static topology, and at every epoch
    boundary the supervisor

    + {b applies} the boundary's events to an {!Election.Incremental} state
      (link flaps become edge edits, leaves/crashes and joins become
      membership edits, retags become tag edits) and re-classifies
      {e incrementally} — the delta costs are recorded per epoch;
    + {b audits} the standing leader: a leader that left or crashed is
      lost; an intact leader keeps standing (classification changes alone
      do not depose it);
    + {b repairs}: when a re-election is needed but the current
      configuration is infeasible, {!Election.Repair} perturbs wake-up tags
      and the changes are written back as incremental edits;
    + {b re-elects} with bounded exponential backoff: the dedicated
      algorithm of the {e current} configuration runs with a doubling round
      timeout, capped by [max_timeout] and by the rounds remaining in the
      epoch.  Election rounds are leaderless rounds — the price of churn
      that {!report.availability} quantifies.

    Everything is deterministic: the same plan, horizon and configuration
    replay the same epoch sequence byte for byte.  Drop, noise and jitter
    faults do not move epoch boundaries (they perturb single rounds, not
    the topology). *)

type epoch = {
  index : int;  (** 0-based; epoch 0 opens at round 0 (cold start) *)
  round : int;  (** global round the epoch opens at *)
  events : Radio_sim.Fault_plan.t;
      (** boundary events applied, normalized order *)
  edits_applied : int;  (** incremental edits (incl. repair write-backs) *)
  labels_computed : int;  (** labels recomputed at this boundary *)
  labels_reused : int;  (** memoized labels reused at this boundary *)
  rebuilds : int;  (** edits that fell back to from-scratch *)
  live : int;  (** present nodes after the boundary *)
  feasible : bool;  (** of the induced configuration after the boundary *)
  repaired : bool;  (** tags were repaired to regain feasibility *)
  attempts : int;  (** election attempts run in this epoch *)
  election_rounds : int;  (** leaderless rounds spent electing *)
  re_elected : bool;  (** an election completed in this epoch *)
  leader : int option;  (** standing leader (universe id) after the epoch *)
}

type report = {
  horizon : int;
  epochs : epoch list;  (** chronological; at least one (round 0) *)
  availability : float;
      (** leader-standing rounds / horizon, in [0, 1] *)
  re_elections : int;  (** epochs whose election completed *)
  total_election_rounds : int;
  stats : Election.Incremental.stats;
      (** cumulative re-classification economics over the whole run *)
  final_leader : int option;  (** universe id *)
}

val run :
  ?max_attempts:int ->
  ?max_timeout:int ->
  plan:Radio_sim.Fault_plan.t ->
  horizon:int ->
  Radio_config.Config.t ->
  report
(** [run ~plan ~horizon config] supervises the deployment for [horizon]
    rounds.  Events scheduled at or beyond [horizon] are ignored.
    [max_attempts] (default 5) bounds elections per epoch; [max_timeout]
    (default unbounded) caps the doubled per-attempt round budget.
    Raises [Invalid_argument] when [horizon <= 0] or the plan does not
    {!Radio_sim.Fault_plan.validate} against the configuration. *)

val pp : Format.formatter -> report -> unit
