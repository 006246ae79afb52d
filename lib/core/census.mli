(** Exhaustive census of the small-configuration universe (experiment E11).

    For every connected graph up to isomorphism with [n <= max_n] vertices
    and every tag assignment with values in [0 .. max_span] containing a 0
    (i.e. every normalized configuration), the census:

    - classifies the configuration (both classifier implementations),
    - simulates the canonical DRIP and partitions nodes by actual history,
    - cross-checks the three: the fast and literal classifiers must agree,
      and the configuration must be feasible iff some node has a globally
      unique history in the simulation (Lemmas 3.9/3.11/3.16).

    Any disagreement is a bug; the report counts them (they must be zero)
    alongside the feasibility statistics the landscape experiment samples
    only randomly. *)

type cell = {
  n : int;
  span : int;  (** actual span of the configurations counted here *)
  total : int;
  feasible : int;
  disagreements : int;  (** classifier-vs-simulation conflicts: must be 0 *)
  impl_mismatches : int;  (** fast-vs-literal conflicts: must be 0 *)
}

type report = {
  cells : cell list;  (** sorted by [(n, span)] *)
  configurations : int;
  all_consistent : bool;
}

val tag_assignments : n:int -> span:int -> int array list
(** The normalized tag vectors of exact span [span]: values in
    [0 .. span], at least one 0 and at least one [span], in ascending
    order as base-[(span + 1)] numbers with [tags.(0)] the least
    significant digit.  Over [span = 0 .. s] they number
    [(s+1)^n - s^n]. *)

val universe :
  max_n:int -> max_span:int -> (int * int * Radio_config.Config.t list) list
(** The small-configuration universe as [(n, span, configurations)] cells,
    one per [n] in [1 .. max_n] and exact span in [0 .. max_span] (a cell
    may be empty), in that order.  Within a cell the tag vectors follow
    {!tag_assignments} and, for each, the graphs follow
    {!Radio_graph.Enumerate.connected_up_to_iso}.  The census, the
    model-checker oracle and the adversary all walk this one list.
    Raises [Invalid_argument] unless [1 <= max_n <= 6] and
    [max_span >= 0], and, before building anything, when the universe
    would hold more than [100_000] configurations
    ([sum_n |graphs(n)| ((max_span+1)^n - max_span^n)]) or [max_span]
    exceeds that bound. *)

val check_bounds : max_n:int -> max_span:int -> (unit, string) result
(** The bounds {!universe} enforces, checked without building anything:
    [Error msg] with the message {!universe} would raise, so a caller can
    refuse bad bounds before any work. *)

val run : ?pool:Radio_exec.Pool.t -> ?max_n:int -> ?max_span:int -> unit -> report
(** Audits every cell of {!universe}.  Defaults: [max_n = 4],
    [max_span = 2].  [max_n = 5] multiplies the work by roughly the number
    of 5-vertex connected graphs (21) times [3^5] assignments and is still
    fast; [max_n = 6] takes seconds.

    [pool] audits configurations in parallel; the report is byte-identical
    to the sequential run at every jobs level (docs/PARALLEL.md). *)

val pp_report : Format.formatter -> report -> unit
