(** Exhaustive counterexample search over the small-configuration universe.

    {!Impossibility.refute_universal} implements the paper's {e specific}
    adversary (Proposition 4.4's [H_{t+1}]).  This module brute-forces the
    same conclusion: scan {e every} feasible configuration of the small
    universe and return the first one a candidate "universal" algorithm
    fails on.  By Proposition 4.4 a failure always exists; the search finds
    the smallest witness rather than the proof's tailored one, which is
    often far more economical (many candidates already fail on 2-node
    configurations). *)

type counterexample = {
  config : Radio_config.Config.t;  (** feasible, yet the candidate fails *)
  winners : int list;  (** the candidate's winners there (not exactly one) *)
}

val find_failure :
  ?max_n:int ->
  ?max_span:int ->
  ?max_rounds:int ->
  Radio_sim.Runner.election ->
  counterexample option
(** Scans the feasible configurations of {!Census.universe} in its
    (n, span) order, with [n <= max_n] (default 4) and span
    [<= max_span] (default 2).  [None] means the candidate
    survived this bounded universe — not that it is universal (but see
    Proposition 4.4: enlarging the universe always defeats it). *)

val count_failures :
  ?max_n:int ->
  ?max_span:int ->
  ?max_rounds:int ->
  Radio_sim.Runner.election ->
  int * int
(** [(failures, feasible_total)] over the same universe. *)
