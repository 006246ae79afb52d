(** Shared machinery of the two classifier implementations: the label
    computation of [Partitioner] (Algorithm 3, lines 1–22) and small helpers
    on class assignments.

    A class assignment is an [int array] mapping each node to a class number
    in [1 .. num_classes]; class numbers follow the paper's convention
    (classes survive refinement keeping their number, new classes are
    appended). *)

val compute_label :
  Radio_config.Config.t -> class_of:int array -> int -> Label.t
(** [compute_label config ~class_of v] is the label node [v] acquires during
    the current phase — the per-node body of {!compute_labels}, exposed so
    that the refinement kernel ({!Fast_classifier.kernel}) can rebuild the
    labels of dirty nodes only.  [O(Δ log Δ)]. *)

val compute_labels :
  Radio_config.Config.t -> class_of:int array -> Label.t array
(** [compute_labels config ~class_of] is the label each node acquires during
    the phase in which each node of class [k] transmits in local round
    [σ + 1] of transmission block [k]: node [v]'s label contains a triple
    [(class_of w, σ + 1 + t_w - t_v, mark)] for each relevant neighbour [w]
    (skipping neighbours with [class_of w = class_of v] and [t_w = t_v],
    which transmit simultaneously with [v]). *)

val singleton_class : num_classes:int -> int array -> int option
(** Smallest class number containing exactly one node, if any — the paper's
    [m̂] (line 5 of Algorithm 4 / Lemma 3.11). *)

val member_of_class : int array -> int -> int
(** [member_of_class class_of k] is the least node in class [k]; raises
    [Not_found] if the class is empty. *)

val assignments_equal : int array -> int array -> bool
