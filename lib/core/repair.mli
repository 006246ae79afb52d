(** Repairing infeasible configurations by perturbing wake-up tags.

    The paper characterizes when election is impossible; an operator facing
    an infeasible deployment has one lever: change {e when} nodes wake up
    (e.g. jitter a station's timeout).  [Repair] searches for a minimal such
    intervention:

    - {!repair_one} tries every single-node tag change within a budget and
      returns the cheapest one making the configuration feasible;
    - {!repair} runs a best-first search over multi-node changes up to
      [max_changes] nodes, minimizing first the number of touched nodes and
      then the total tag displacement.

    Graph structure is never modified — radios cannot move, but clocks can
    be nudged.  This is an extension beyond the paper (its machinery makes
    the search decidable). *)

type change = {
  node : int;
  old_tag : int;
  new_tag : int;
}

type plan = {
  changes : change list;  (** sorted by node *)
  repaired : Radio_config.Config.t;  (** normalized, feasible *)
  cost : int;  (** sum of |new - old| *)
}

val max_candidates : int
(** [100_000]: the most candidate changes, [n x (max_tag + 1)], a search
    considers.  Past it, {!repair_one} and {!repair} return [None] (no
    repair within the budget) before building any candidate; an input
    that is already feasible still gets its empty plan. *)

val repair_one :
  ?max_tag:int -> Radio_config.Config.t -> plan option
(** Cheapest single-node repair with new tags in [0 .. max_tag]
    (default: [span + 1]).  [None] when no single change suffices or
    the candidates pass {!max_candidates}.
    Returns immediately with an empty plan when the input is already
    feasible. *)

val repair :
  ?max_tag:int -> ?max_changes:int -> Radio_config.Config.t -> plan option
(** Best-first search touching at most [max_changes] (default 2) nodes.
    Complete within its budget: returns [None] only if no assignment within
    the budget is feasible, or the candidates pass {!max_candidates}. *)

val pp_plan : Format.formatter -> plan -> unit
