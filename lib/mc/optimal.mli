(** The optimal symmetry-breaking time on small configurations — a
    measured companion to the paper's lower bounds and its second open
    problem.

    The {e symmetry-breaking round} of an execution is the first global
    round at which some awake node's history differs from the history of
    every other node (sleeping nodes all share the empty history ⊥).  No
    leader election algorithm can decide before symmetry breaks, so the
    minimum over all DRIPs lower-bounds every dedicated algorithm's
    election time — this is exactly the quantity the proofs of
    Propositions 4.1/4.3 reason about.

    The search is {!Checker.explore}'s universal mode: every
    deterministic anonymous protocol restricted to class-indexed messages
    (each history class either listens or transmits its class key; no
    protocol can distinguish more than its history classes, and richer
    alphabets cannot help beyond naming them), breadth-first over global
    states, stopped at the first level that separates a node.  Within
    that family the result is exact; combined with a matching theoretical
    lower bound (e.g. Lemma 4.2's [>= m] for [H_m]) it pins the true
    optimum.

    State count grows quickly, so this is for census-sized instances:
    [n <= 6] and horizons of a couple dozen rounds.  Configurations of
    more than 62 nodes are refused (the explorer's state encoding). *)

type outcome =
  | Broken_at of int  (** minimal symmetry-breaking global round *)
  | Never  (** the configuration is infeasible: symmetry never breaks *)
  | Not_within_horizon
  | Search_budget_exhausted

val breaking_time :
  ?pool:Radio_exec.Pool.t ->
  ?horizon:int ->
  ?max_states:int ->
  Radio_config.Config.t ->
  outcome
(** [breaking_time config] is [Never] when the classifier finds [config]
    infeasible (Lemma 3.16: symmetry never breaks), else the first
    separating round of a {!Checker.explore} over rounds [0 .. horizon]
    (default 24) that holds at most [max_states] (default 200_000)
    distinct states.  [pool] parallelises the exploration; the outcome is
    bit-identical at every jobs level.  Raises [Invalid_argument] on the
    empty configuration and on feasible configurations of more than 62
    nodes. *)

val canonical_breaking_time :
  ?max_rounds:int -> Radio_config.Config.t -> int option
(** For comparison: the round at which the {e canonical DRIP}'s execution
    first separates some node, measured in the simulator. *)
