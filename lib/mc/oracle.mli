(** The differential feasibility oracle.

    For every configuration of the small universe
    ({!Election.Census.universe}: connected graphs up to isomorphism
    crossed with normalized tag assignments of bounded span), the
    model-checker verdict under the canonical DRIP must agree with the
    classifier:

    - feasible ⇒ {!Checker.Elected} with the canonical leader, within the
      [O(n^2 σ)] bound (both enforced by {!Checker.verify});
    - infeasible ⇒ {!Checker.Non_election} at a terminal symmetric state in
      which {e every} final-history class has at least two members.

    With [replay] on, each run's trace is additionally replayed through the
    concrete {!Radio_sim.Engine} and must match bit-for-bit and pass
    {!Radio_lint.Invariants.validate}. *)

type disagreement = {
  config : Radio_config.Config.t;
  classifier_feasible : bool;
  verdict : Checker.verdict;
  detail : string;
}

type report = {
  configurations : int;
  feasible : int;
  infeasible : int;
  replayed : int;
  max_completion_round : int;
      (** largest global completion round seen on feasible configurations *)
  disagreements : disagreement list;
}

val run :
  ?pool:Radio_exec.Pool.t ->
  ?progress:(int -> int -> unit) ->
  ?max_n:int ->
  ?max_span:int ->
  ?replay:bool ->
  unit ->
  report
(** Defaults: [max_n = 5], [max_span = 2], [replay = false].  Walks the
    cells of {!Election.Census.universe} in order and raises its
    [Invalid_argument] on an out-of-range [max_n] or [max_span].

    [pool] checks configurations in parallel; the report is byte-identical
    to the sequential run at every jobs level (docs/PARALLEL.md).
    [progress done total] is invoked on the calling domain after each
    configuration's verdict is folded in, in submission order. *)

val consistent : report -> bool
(** No disagreements. *)

val pp_report : Format.formatter -> report -> unit
val pp_disagreement : Format.formatter -> disagreement -> unit
