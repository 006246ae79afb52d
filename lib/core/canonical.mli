(** The canonical DRIP [D_G] (Section 3.3.1).

    A {!plan} packages everything that the paper hard-codes into the
    identical algorithm installed at every (anonymous) node: the span [σ],
    the class tables [L_1 .. L_T] extracted from a classifier run, and — for
    the decision function — the final class table together with the index of
    the singleton class when the configuration is feasible.

    Execution at a node (all rounds local, round 0 = wake-up):

    - phase [P_j] ([1 <= j <= T]) spans rounds [r_{j-1} + 1 .. r_j] with
      [r_0 = 0] and [r_j = r_{j-1} + B_j (2σ + 1) + σ], where
      [B_j = length of L_j] is the number of transmission blocks;
    - entering phase [P_j], the node matches its block number and
      observations from phase [P_{j-1}] against the entries of [L_j] to find
      its transmission block [tBlock]; in phase [P_1] it always transmits in
      block 1;
    - it transmits ["1"] in round [σ + 1] of block [tBlock] and listens in
      every other round of the phase;
    - after phase [P_T] it terminates, in local round [r_T + 1].

    When the plan is executed on the very configuration it was compiled
    from, Lemma 3.8 guarantees the matching never fails.  Executed elsewhere
    (the universality experiments of Section 4 do exactly this), a node whose
    observations match no entry goes {e lost}: it stays silent for the rest
    of the schedule and terminates on time (DESIGN.md §3). *)

type entry = {
  prev_class : int;  (** the paper's [oldClass_k] *)
  label : Label.t;  (** the paper's [label_k] *)
}

type plan = {
  sigma : int;
  tables : entry array array;
      (** [tables.(j - 1)] is [L_j]; [tables.(0)] is always
          [[|{prev_class = 1; label = []}|]] *)
  final_table : entry array;
      (** the class table of the final partition [P_T], used by the decision
          function to recompute a node's final class locally *)
  singleton_class : int option;  (** [m̂] when the configuration is feasible *)
}

val plan_of_run : Classifier.run -> plan
(** Compiles a classifier run (feasible or not) into a plan. *)

val entry_lookup :
  entry array -> prev_block:int option -> obs_label:Label.t -> int option
(** [entry_lookup table] indexes [table] once by its entries'
    [(prev_class, label)] hash ({!Label.hash_key}); the function returned
    gives the 1-based index of the first entry whose key is
    [(pb, obs_label)] for [prev_block = Some pb], and [None] when no entry
    matches or [prev_block] is [None] (a lost node stays lost).  This is
    how {!protocol}, {!final_class} and {!decision} read a class table,
    each indexing a plan's tables once when applied to the plan;
    {!pure_drip} keeps the literal linear scan. *)

val num_phases : plan -> int
(** [T]. *)

val phase_bounds : plan -> int array
(** [[| r_0; r_1; ...; r_T |]] — phase [P_j] spans local rounds
    [bounds.(j-1) + 1 .. bounds.(j)]. *)

val local_termination_round : plan -> int
(** [r_T + 1]: the local round in which every node terminates
    (the paper's [done_v], identical at all nodes). *)

val protocol : plan -> Radio_drip.Protocol.t
(** The canonical DRIP as an executable protocol. *)

val pure_drip : plan -> Radio_drip.History.t -> Radio_drip.Protocol.action
(** The canonical DRIP in the paper's literal form: a function from a
    history prefix [H[0 .. i-1]] to the action of local round [i]
    (Section 2.2).  [O(i)] work per call, so executing a node costs
    [O(rounds^2)] overall — the stateful {!protocol} is the efficient
    equivalent, and the test suite checks the two produce identical
    executions. *)

val pure_protocol : plan -> Radio_drip.Protocol.t
(** {!pure_drip} wrapped as a runnable protocol via
    {!Radio_drip.Protocol.of_pure}. *)

val block_trace : plan -> Radio_drip.History.t -> int option array
(** [block_trace plan h] replays history [h] through the plan and returns,
    for each phase [P_j] (index [j - 1]), the transmission block the node
    used, or [None] from the phase where it went lost onwards.  Raises
    [Invalid_argument] if [h] is shorter than the full schedule.  Like
    {!final_class} and {!decision}, it indexes the plan's tables when
    applied to the plan: apply it once and reuse the function over many
    histories. *)

val final_class : plan -> Radio_drip.History.t -> int option
(** The node's class in the final partition, recomputed from its history
    alone (the local analogue of line 5 of Algorithm 4). *)

val decision : plan -> Radio_drip.History.t -> bool
(** True iff {!final_class} equals the plan's singleton class.  Always false
    for plans of infeasible runs. *)

val election : plan -> Radio_sim.Runner.election
(** [{protocol; decision}] bundled for {!Radio_sim.Runner.run}, sharing
    one indexing of the plan's tables. *)

val upper_bound_rounds : n:int -> sigma:int -> int
(** The paper's [O(n^2 σ)] bound instantiated with explicit constants:
    [⌈n/2⌉ · (n (2σ + 1) + σ) + 1], an upper bound on
    {!local_termination_round} for any plan compiled from an [n]-node,
    span-[σ] configuration.  Tests assert the bound. *)

(** {1 Configuration cache keys}

    Plumbing for result caches keyed by configuration (the [anorad serve]
    daemon's memoization, docs/SERVE.md): a compact, unambiguous textual
    key per configuration, canonicalized under tag-preserving graph
    isomorphism for small instances so isomorphic requests share cache
    entries. *)

val iso_cache_bound : int
(** Largest [n] (8) for which {!canonical_form} searches for a canonical
    labelling; beyond it the identity labelling is used, so only
    literally-equal configurations share a key.  The search is
    {!Radio_graph.Props.canonical_labelling} with the tags as colours (the
    same search deduplicates the census universe): a branch and bound over
    tag-preserving relabellings — worst case [n!] assignments — which is
    microseconds at [n <= 8] and unbounded-ish beyond, hence the
    cutoff. *)

val canonical_form : Radio_config.Config.t -> Radio_config.Config.t * int array
(** [canonical_form c] is [(rep, perm)] with [rep = Config.relabel c perm]
    the canonical representative of [c]'s tag-preserving isomorphism class
    ([n <= iso_cache_bound]; [(c, identity)] beyond): vertices sorted by
    tag, ties broken by the lexicographically smallest adjacency encoding.
    Isomorphic configurations map to the {e same} representative, so
    analyses computed on [rep] can be shared across the class; [perm]
    carries node-indexed answers back ([perm.(v)] is [v]'s label in
    [rep]). *)

val raw_key : Radio_config.Config.t -> string
(** ["n|t0 t1 ..|u-v u-v .."] — an exact serialization of the
    configuration (no canonicalization); injective on configurations. *)

val cache_key : Radio_config.Config.t -> string
(** [raw_key (fst (canonical_form c))]: equal for isomorphic
    configurations at [n <= iso_cache_bound], equal only for identical
    configurations beyond. *)
