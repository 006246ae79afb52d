(** Degradation curves: how far does election survive outside the paper's
    clean model?

    A sweep fixes a feasible configuration, compiles its dedicated election
    (Theorem 3.15), and then raises the fault intensity: at intensity [k],
    each trial crash-stops [k] nodes at seed-determined rounds.  Trials use
    {e nested} crash sets ({!Radio_sim.Fault_plan.crash_schedule}): the
    intensity-[k+1] plan of a trial is its intensity-[k] plan plus one more
    crash, so curves degrade rather than jump around.  Everything is derived from the integer
    [seed]; the emitted csv and chart are reproducible byte-for-byte.

    Three curves per configuration:
    - {b success}: fraction of trials electing a unique leader among the
      surviving nodes (all survivors terminated, exactly one winner);
    - {b stability}: fraction of trials electing the {e same} leader the
      fault-free run elects (a success that crowns a different node keeps
      the network alive but breaks any state the old leader owned);
    - {b overhead}: mean global rounds relative to the fault-free election
      (successful trials only; 1.0 when faults never delay completion). *)

type point = {
  intensity : int;  (** number of crash-stop faults per trial *)
  trials : int;
  successes : int;
  stable : int;  (** successes that elect the fault-free leader *)
  mean_rounds : float;  (** over successful trials; [nan] when none *)
}

type curve = {
  name : string;
  config : Radio_config.Config.t;
  seed : int;
  baseline_leader : int;  (** the fault-free dedicated election's leader *)
  baseline_rounds : int;  (** engine rounds of the fault-free run *)
  points : point list;  (** ascending intensity *)
}

val success_rate : point -> float

val stability_rate : point -> float

val overhead : curve -> point -> float
(** [mean_rounds / baseline_rounds]; [nan] when the point has no success. *)

val crash_sweep :
  ?pool:Radio_exec.Pool.t ->
  ?seed:int ->
  ?trials:int ->
  ?max_intensity:int ->
  ?max_rounds:int ->
  name:string ->
  Radio_config.Config.t ->
  curve
(** [crash_sweep ~name config] sweeps intensities [0 .. max_intensity]
    (default [n]) with [trials] seeds per point (default 20).  The crash
    horizon is the fault-free completion round + 1, so every crash can land
    anywhere in the live part of the run.  Raises [Invalid_argument] when
    the configuration is infeasible — there is no election to degrade.

    [pool] runs intensity levels in parallel; the curve (and csv/chart)
    is byte-identical to the sequential sweep at every jobs level
    (docs/PARALLEL.md). *)

val to_csv : curve -> string
(** Header [intensity,trials,successes,success_rate,stable,stability_rate,
    mean_rounds,overhead], one row per point, via {!Radio_analysis.Csv}. *)

val to_chart : curve -> string
(** ASCII degradation chart (success percentage vs intensity) via
    {!Radio_analysis.Chart.series}. *)

val pp : Format.formatter -> curve -> unit
(** Table rendering via {!Radio_analysis.Table}. *)
