(** The synchronous radio-network engine.

    Executes one anonymous protocol on a configuration, implementing the
    model of Miller–Pelc–Yadav Section 1.1/2.1 verbatim:

    - time is divided into global rounds [0, 1, 2, ...];
    - a sleeping node wakes in round [r]: {e forced} if exactly one of its
      neighbours transmits in [r] (its history starts with that message), or
      {e spontaneously} if [r] equals its wake-up tag (history starts with
      [Silence]); simultaneous transmissions by [>= 2] neighbours do not wake
      it (DESIGN.md §3);
    - an awake node at local round [i >= 1] (local round 0 is the wake-up
      round) either transmits to all neighbours, listens, or terminates;
    - a listening node hears the message if exactly one neighbour transmits,
      noise ([Collision]) if more than one does, and silence otherwise; a
      transmitting node hears nothing ([Silence]);
    - terminated nodes are permanently silent and deaf.

    The engine is deterministic given a deterministic protocol; randomized
    protocols own their random state.

    There is one round loop, {!run_plan}, which also executes the
    deviations of a {!Fault_plan}.  The fault-free run is its empty-plan
    run: [run proto config] is [(run_plan Fault_plan.empty proto config).base].
    An empty plan costs only a few per-round tests of the compiled plan
    (crash, drop, noise, topology) that skip every fault phase.

    A round costs work only for the nodes with something to do: those due
    to decide (a node that answered {!Radio_drip.Protocol.Quiet} is not
    asked again until its horizon ends), those a transmission or noise
    reached, and, while any node sleeps, a scan for wake-ups.  A quiet
    node's silent rounds reach its instance as one [skip].  Quiet nodes
    wait in one min-heap of packed int keys, [(round lsl b) lor node] with
    [b] the bits of the largest node index, popped in (round, node) order:
    [O(log h)] inline int compares per decision for [h] waiting nodes.  A
    key holds rounds below [2^(62 - b)]; a horizon at or past that bound,
    which only a [max_rounds] above it allows and no run that iterates
    rounds one at a time ever reaches, is treated like one at
    [max_rounds] (the node is not asked again).  A node's
    history gathers only its events, the entries other than [Silence], as
    they happen, so an election's memory follows the messages and noise
    perceived rather than [n] times the rounds. *)

type outcome = {
  config : Radio_config.Config.t;
  histories : Radio_drip.History.t array;
      (** per node, held as its events ({!Radio_drip.History}); index 0 is
          the wake-up entry; length = [done] local round (the terminate
          decision consumes no entry) *)
  wake_round : int array;  (** global wake-up round of each node *)
  forced : bool array;  (** whether the wake-up was forced by a message *)
  done_local : int array;
      (** the paper's [done_v]: first local round whose decision was
          [Terminate]; [-1] if the node was still running at the cutoff *)
  all_terminated : bool;
  rounds : int;  (** number of global rounds simulated *)
  first_transmission : (int * int list) option;
      (** earliest global round in which anyone transmitted, with the sorted
          transmitting nodes *)
  transmissions_by_node : int array;
      (** per-node transmission counts — the energy ledger; transmission is
          the dominant energy cost in real radios *)
  metrics : Metrics.t;
  trace : Trace.t;  (** empty unless [record_trace] *)
}

val run :
  ?max_rounds:int ->
  ?record_trace:bool ->
  Radio_drip.Protocol.t ->
  Radio_config.Config.t ->
  outcome
(** Runs until every node has terminated or [max_rounds] (default 100_000)
    global rounds have elapsed; inspect [all_terminated] to tell which. *)

val global_done_round : outcome -> int -> int
(** [global_done_round o v] is the global round in which node [v] terminated
    ([wake_round + done_local]); raises [Invalid_argument] if [v] had not
    terminated. *)

val completion_round : outcome -> int
(** Largest {!global_done_round} over all nodes — the election time measured
    on the global clock.  Raises if some node had not terminated. *)

(** {1 Runs under a fault plan}

    Fault semantics per global round [r] (in order):

    + {b crash}: a node whose crash round is [r] dies before acting — it
      neither decides, transmits, observes, wakes nor terminates from round
      [r] on.  Its history simply stops.  A crash scheduled after the node
      already terminated is a no-op and does not fire.
    + {b decisions}: as in the fault-free model, for live running nodes.
    + {b drops}: a dropped directed copy [src -> dst] is removed from the
      air before anyone counts transmissions — [dst] neither hears it nor
      counts it towards a collision or a forced wake-up.
    + {b noise}: after drops, a noisy listening node hears [Collision]
      whatever remains in the air, and a noisy sleeping node cannot be
      woken this round (collisions do not wake; its tag may still wake it
      spontaneously).

    {b Topology events} ({!Fault_plan.has_topology}) precede even the
    crashes of their round, applied in normalized order:

    - [Link_down]/[Link_up] toggle an undirected link in the air; a toggle
      to the state the link is already in is inert.  Links may come up
      that the base graph never had.
    - [Leave] removes a present, non-crashed node: its history stops, its
      [done_local] stays [-1] unless it had already terminated, and
      [departed_at] records the round.
    - [Join] revives an absent (left, never crashed) node as a {e fresh}
      protocol instance with an {e empty history} — the incarnation before
      departure is discarded from [base.histories].  The new alarm is
      global round [max tag r].  Joins scheduled after every other node
      terminated never execute: the run ends when no running node remains.
    - [Retag] moves a still-sleeping node's alarm to [max tag r]; awake,
      terminated, crashed or absent nodes are unaffected.

    Without topology events the loop reads the static graph; a dynamic
    adjacency matrix is built only for plans that have them.

    The {b ledger} records every fault that actually fired — changed some
    node's execution or the network state — with the global round and the
    nodes that perceived a difference.  Faults that were scheduled but
    changed nothing (a drop on a silent round, noise at a terminated node,
    a crash after termination, a link flap to the current state, a retag
    of an awake node) do not fire and are absent from the ledger. *)

type fired = {
  round : int;  (** global round in which the fault took effect *)
  fault : Fault_plan.fault;
  observed_by : int list;
      (** nodes whose perception the fault altered, ascending; empty when
          the deviation is invisible (e.g. a crash, or a drop towards a
          sleeping node that its tag would not have woken) *)
}

type plan_outcome = {
  base : outcome;
      (** [base.config] is the {e effective} (jitter-applied) configuration
          the run actually executed, and [base.all_terminated] means
          {e every non-crashed node} terminated.  Crashed nodes keep
          [done_local = -1]. *)
  original : Radio_config.Config.t;  (** the configuration before jitter *)
  plan : Fault_plan.t;
  crashed_at : int array;
      (** per node: the global round it crash-stopped, [-1] if it never
          crashed (including crashes scheduled after termination) *)
  departed_at : int array;
      (** per node: the global round of its last un-rejoined [Leave],
          [-1] if present at the end of the run *)
  ledger : fired list;  (** chronological *)
}

val run_plan :
  ?max_rounds:int ->
  ?record_trace:bool ->
  Fault_plan.t ->
  Radio_drip.Protocol.t ->
  Radio_config.Config.t ->
  plan_outcome
(** Same defaults as {!run} (100_000 rounds, no trace). *)

val surviving_winners :
  (Radio_drip.History.t -> bool) -> plan_outcome -> int list
(** Terminated (hence complete-history) nodes whose final history satisfies
    the decision function.  Crashed and still-running nodes never qualify:
    their histories are prefixes the decision function may not accept. *)

val elected : (Radio_drip.History.t -> bool) -> plan_outcome -> int option
(** [Some v] iff every surviving node terminated and [v] is the unique
    surviving winner. *)

val outcome_equal : outcome -> outcome -> bool
(** Field-by-field equality of engine outcomes (configurations compared
    with {!Radio_config.Config.equal}) — the predicate behind the
    replay-determinism property tests. *)

val pp_fired : Format.formatter -> fired -> unit

val pp_ledger : Format.formatter -> fired list -> unit
