(** Supervised re-election: graceful degradation when a run fails.

    The paper's dedicated algorithms are correct in the pristine model;
    under faults an election can come back wrong (no unique winner) or not
    come back at all.  The supervisor wraps the whole pipeline in a
    bounded retry loop, the way an operator would babysit a deployment:

    + {b audit}: compile the current configuration's dedicated election
      (repairing the tags first via {!Election.Repair} if the classifier
      says the configuration is infeasible), run it under the fault plan
      with a round timeout, and audit the outcome — did every surviving
      node terminate, and did exactly one survivor win?
    + {b detect}: classify the attempt as [Elected], [No_unique_winner]
      (terminated but zero or several winners) or [Timed_out] (some
      survivor still running at the timeout);
    + {b recover}: on failure, re-seed the wake-up tags with
      {!Election.Repair}-style jitter derived from [(seed, attempt)] —
      moving {e when} nodes wake is the one lever an operator has — and
      retry with the round timeout doubled (bounded exponential backoff).

    Everything is deterministic: the same configuration, fault plan and
    seed replay the same attempt sequence. *)

type detection =
  | Elected of int
  | No_unique_winner of int list  (** the surviving winners found *)
  | Timed_out

type attempt = {
  index : int;  (** 0-based *)
  config : Radio_config.Config.t;  (** tags this attempt ran with *)
  repaired : bool;  (** tags were repaired to regain feasibility *)
  timeout : int;  (** round budget of this attempt *)
  rounds : int;  (** global rounds actually consumed *)
  faults_fired : int;  (** ledger length of the faulty run *)
  ledger : Radio_sim.Engine.fired list;
      (** the attempt's fired-fault ledger, chronological; {!pp} prints the
          elected attempt's ledger so a survived election is auditable *)
  detection : detection;
}

type report = {
  attempts : attempt list;  (** chronological; at least one *)
  leader : int option;  (** from the last attempt, when it elected *)
  total_rounds : int;  (** summed over attempts: the price of resilience *)
  reseeds : int;  (** tag re-seedings performed *)
}

val supervise :
  ?seed:int ->
  ?max_attempts:int ->
  ?base_timeout:int ->
  ?max_timeout:int ->
  plan:Radio_sim.Fault_plan.t ->
  Radio_config.Config.t ->
  report
(** [supervise ~plan config] retries up to [max_attempts] (default 5)
    times.  [base_timeout] defaults to twice the dedicated schedule length
    of the first attempt plus the span — ample for a fault-free run — and
    doubles on every retry; [max_timeout] (default unbounded) caps the
    doubled value, so long supervision under churn cannot run away.
    [seed] (default [0xFA17]) drives the jitter re-seeding only; with an
    empty plan and a feasible configuration the first attempt elects and
    no randomness is consulted. *)

val pp : Format.formatter -> report -> unit
