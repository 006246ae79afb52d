(** One-stop feasibility API: classify a configuration and, when feasible,
    hand out the dedicated distributed leader election algorithm of
    Theorem 3.15. *)

type analysis = {
  run : Classifier.run;
  plan : Canonical.plan;
  feasible : bool;
  leader : int option;
      (** the canonical leader — the unique member of the singleton class *)
  election_local_rounds : int;
      (** local round in which every node of the canonical DRIP terminates
          ([r_T + 1]); meaningful even for infeasible runs (the phases still
          define a schedule) *)
}

val analyze : Radio_config.Config.t -> analysis
(** Classifies with {!Fast_classifier}, whose run is bit-identical to the
    literal Algorithms 1–4 of {!Classifier} (the differential tests keep
    the literal run as their oracle). *)

val analyze_run : Classifier.run -> analysis
(** The same analysis from an already-computed classifier run — the churn
    supervisor feeds {!Incremental.run} results here so re-election after a
    topology edit reuses the memoized refinement instead of reclassifying
    from scratch. *)

val is_feasible : Radio_config.Config.t -> bool

val dedicated_election : analysis -> Radio_sim.Runner.election option
(** The dedicated leader election algorithm [(D_G, f_G)] when the
    configuration is feasible; [None] otherwise. *)

val verify_by_simulation :
  ?max_rounds:int -> analysis -> Radio_sim.Runner.result option
(** Runs the dedicated algorithm on its own configuration in the simulator.
    [None] for infeasible analyses.  Theorem 3.15 promises
    [elects_unique_leader] and agreement with [leader]. *)

val feasible_fraction : Radio_config.Config.t list -> float
(** Share of feasible configurations in a batch (used by the feasibility
    landscape experiment, E10). *)
