(** Hash-based classifier with dirty-set refinement — an answer to the
    paper's first open problem ("can the [O(n^3 Δ)] complexity of
    [Classifier] be improved?").

    Two costs of the literal implementation go.  [Refine] assigns a class
    to a node by scanning up to [n] representatives, each comparison
    costing [O(Δ)]; here a hash table keyed by [(old class, label)],
    pre-seeded with the previous representatives, does it in expected
    [O(Δ)], and numbers surviving and new classes {e exactly} as the
    paper's [Refine] does.  And [Partitioner] builds every node's label at
    every iteration; here a node's label at iteration [k] is rebuilt only
    when its own input class, or a neighbour's, moved at iteration [k - 1]
    (the {e dirty set}); every other node shares the label value it already
    has.  A label costs [O(Δ log Δ)] ({!Radio_config.Config.span} is
    [O(1)]), so the whole run costs [O(n^2 Δ log Δ)] in the worst case
    against the paper's [O(n^3 Δ)]: the ⌈n/2⌉ iteration bound stays, and
    each iteration still refines and records all [n] nodes.  On the paper's
    [G_m] (n = 4m + 1, m iterations) the kernel builds exactly [16m − 15]
    labels instead of [n·m].

    The output is bit-identical to {!Classifier.classify} — same iterations,
    class arrays, labels, representatives and verdict — which the property
    test suite asserts on thousands of random configurations. *)

type memo = {
  previous : Classifier.run;
      (** a run on a configuration over the same nodes, typically before
          an edit *)
  dirty : int list;
      (** the {e structurally dirty} nodes: those whose own tag, a
          neighbour's tag, or whose neighbour set differs between
          [previous.config] and the configuration being classified
          (a node with no previous index among them) *)
  remap : int array;
      (** each node's index in [previous.config], [-1] for a node it
          does not hold (the identity when the nodes are the same) *)
}

type cost = {
  computed : int;  (** labels built *)
  reused : int;
      (** labels shared from the previous iteration or from the memo;
          [computed + reused] is [n] times the number of iterations *)
}

val kernel : ?memo:memo -> Radio_config.Config.t -> Classifier.run * cost
(** The one refinement kernel behind {!classify} and {!Incremental}.  With
    a [memo], a node's label at iteration [k] is also taken from the memo's
    iteration [k] when the node is not structurally dirty and its own and
    its neighbours' input classes equal the memo's, read through
    [remap].  A memo of a different span [σ] (σ appears in every label
    slot), or whose [remap] length is not the configuration's node count,
    is ignored.  The run does not depend on the memo; only the cost
    does. *)

val classify : Radio_config.Config.t -> Classifier.run
(** [kernel] with no memo. *)

val refine_with_table :
  old_class:int array ->
  labels:Label.t array ->
  num_classes:int ->
  reps:int array ->
  int array * int * int array
(** The hash-based refinement step, exposed for unit tests:
    returns [(new_class, new_num_classes, new_reps)] exactly like the
    literal [Refine].  The kernel runs the same step, except that the
    members of a class in which no label changed since the previous
    iteration keep their class without a table lookup. *)
