(** Incremental re-classification under graph edits.

    The classifier's refinement trajectory is a pure function of the
    configuration, but a single local edit (an edge flap, a retagged node)
    leaves most per-iteration labels unchanged.  This module keeps the
    whole trajectory — the last {!Classifier.run} — and, after an edit,
    reclassifies with {!Fast_classifier.kernel}, passing that run as the
    memo:

    - {e structurally dirty} nodes (the edit's endpoints; a retagged node
      and its neighbours) never reuse the memo — their label inputs changed
      directly;
    - a node whose class, or a neighbour's class, differs at iteration
      [k-1] from the memoized run's cannot reuse the memo at iteration
      [k] — this difference spreads outward one hop per iteration, exactly
      as fast as the refinement itself can diverge;
    - any node whose inputs did not move since iteration [k-1] shares its
      previous label, memo or not.

    The resulting run is {e bit-for-bit} the run [Fast_classifier.classify]
    would produce on the edited configuration — by construction, and
    checked by {!Oracle} on randomized edit sequences.

    Note that restarting refinement from the {e previous stable partition}
    would be unsound: refinement never merges classes, so an edit that makes
    two previously-distinguished nodes symmetric again would leave them
    over-split and could turn an infeasible configuration "feasible".  The
    kernel starts from the trivial partition like any run and is immune to
    this.

    Membership edits ({!Leave}, {!Join}) change the induced index space:
    the induced configuration is rebuilt, and the kernel reads the memo
    through a remap from new induced indices to previous ones, with the
    joined node, and the present neighbours of the node that left or
    joined, structurally dirty.  They are counted in {!stats} as
    [full_rebuilds].  An edit that changes the induced span [σ], which
    appears in every label slot, gets no reuse from the memo. *)

type edit =
  | Add_edge of int * int  (** add edge [{u, v}] to the universe graph *)
  | Remove_edge of int * int  (** remove edge [{u, v}] *)
  | Set_tag of int * int  (** [Set_tag (v, t)]: set [v]'s raw wake-up tag *)
  | Leave of int  (** node leaves: excluded from the induced configuration *)
  | Join of int * int  (** [Join (v, t)]: an absent node returns with tag [t] *)

val pp_edit : Format.formatter -> edit -> unit

(** Label counts are the kernel's real work, rebuilds included: a label is
    either computed or reused (shared from the memo or from the previous
    iteration), so [labels_computed + labels_reused] is the induced size
    times the number of iterations of the new run. *)
type delta = {
  labels_computed : int;  (** labels built by the last edit *)
  labels_reused : int;  (** labels the last edit shared instead *)
  rebuilt : bool;
      (** the last edit was a membership edit, which rebuilds the induced
          configuration (its labels still reuse the memo) *)
}

type stats = {
  edits : int;  (** edits applied since {!init} *)
  computed : int;  (** cumulative labels built *)
  reused : int;  (** cumulative labels shared *)
  full_rebuilds : int;
      (** membership edits, which rebuild the induced configuration *)
}

type state
(** Immutable: {!apply} returns a new state, the argument stays valid. *)

val init : Radio_config.Config.t -> state
(** Classifies the configuration from scratch and memoizes the trajectory.
    All nodes start present; the initial classification is not counted in
    {!stats}. *)

val apply : state -> edit -> state
(** Applies one edit and re-classifies incrementally.  Raises
    [Invalid_argument] on an invalid edit: out-of-range node, self-loop,
    adding an existing edge, removing a missing one, a negative tag,
    [Leave] of an absent node or [Join] of a present one. *)

val live : state -> int
(** Number of present nodes. *)

val present : state -> int -> bool

val tag : state -> int -> int
(** Raw (universe) wake-up tag of a node — meaningful for absent nodes
    too.  The induced configuration of {!current} normalizes these, so
    [Config.tag (current st) i] and [tag st (node_of_current st i)] differ
    by the normalization shift. *)

val current : state -> Radio_config.Config.t option
(** The induced (normalized) configuration on present nodes; [None] when
    every node has left. *)

val node_of_current : state -> int -> int
(** Maps an induced index (as used by {!run}'s class arrays) back to the
    universe node id. *)

val run : state -> Classifier.run option
(** The memoized run — equal, bit for bit, to
    [Fast_classifier.classify (current state)]. *)

val feasible : state -> bool
(** [false] when empty. *)

val leader : state -> int option
(** Canonical leader as a {e universe} node id, when feasible. *)

val stats : state -> stats

val last : state -> delta
(** Cost of the most recent {!apply} ({!init} reports a zero delta). *)

val runs_equal : Classifier.run -> Classifier.run -> bool
(** Structural equality of two classifier runs: same verdict and, per
    iteration, same class arrays, labels, class counts and representatives.
    Used by {!Oracle} and the test suite. *)

(** Differential oracle: random edit sequences, each step checked
    bit-for-bit against [Fast_classifier.classify] of the edited
    configuration.  Sequences are independent tasks and parallelize over
    {!Radio_exec.Pool} under the byte-identical-at-every-jobs contract. *)
module Oracle : sig
  type mismatch = {
    family : string;
    sequence : int;
    step : int;
    edit : edit;
  }

  type report = {
    sequences : int;  (** edit sequences run *)
    edits : int;  (** total edits applied and checked *)
    mismatches : mismatch list;  (** empty iff the oracle agrees *)
    verdict_flips : int;  (** steps where feasibility changed *)
    flips_to_feasible : int;
    flips_to_infeasible : int;
    computed : int;  (** labels recomputed across all sequences *)
    reused : int;  (** labels reused across all sequences *)
    full_rebuilds : int;
  }

  val run :
    ?pool:Radio_exec.Pool.t ->
    ?sequences:int ->
    ?edits_per_sequence:int ->
    ?max_size:int ->
    seed:int ->
    unit ->
    report
  (** [run ~seed ()] drives [sequences] (default 24) independent edit
      sequences of [edits_per_sequence] (default 60) edits each, rotating
      the starting configuration over path / cycle / clique / double-path
      families of sizes up to [max_size] (default 16, min 4).  Every step
      compares the incremental run against a from-scratch
      [Fast_classifier.classify].  Determinism: the report depends only on
      the parameters, never on [pool] size. *)

  val ok : report -> bool

  val pp : Format.formatter -> report -> unit
end
