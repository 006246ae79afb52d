(** Configurations (Miller–Pelc–Yadav, Section 2.1).

    A configuration is an undirected graph whose every node [v] carries a
    non-negative integer wake-up tag [t_v]: the global round in which [v]
    wakes up spontaneously unless a received message wakes it earlier.

    Because nodes have no access to the global clock, a configuration is
    equivalent to its {e normalization} in which the smallest tag is 0; the
    {e span} [σ] of a normalized configuration is its largest tag.  All
    algorithms in this library operate on normalized configurations;
    {!create} normalizes unless asked not to. *)

type t

exception Invalid_configuration of string

(** {1 Construction} *)

val create : ?normalize:bool -> Radio_graph.Graph.t -> int array -> t
(** [create g tags] pairs graph [g] with wake-up tags [tags] (one per vertex,
    each [>= 0]).  With [~normalize:true] (the default) the minimum tag is
    shifted to 0, which changes nothing observable (Section 2.1).  Raises
    {!Invalid_configuration} on a length mismatch or a negative tag.
    Disconnected graphs are accepted here — {!is_connected} and the election
    API flag them — so that tests can probe edge cases. *)

val uniform : Radio_graph.Graph.t -> int -> t
(** [uniform g tag] gives every node the same tag (normalizes to all-zero:
    the classic infeasible fully-symmetric start). *)

(** {1 Observation} *)

val graph : t -> Radio_graph.Graph.t

val size : t -> int
(** Number of nodes [n]. *)

val tag : t -> Radio_graph.Graph.vertex -> int

val tags : t -> int array
(** A fresh copy of the tag vector. *)

val span : t -> int
(** [σ]: difference between the largest and smallest tag.  O(1): the
    extreme tags are computed once, in {!create}. *)

val min_tag : t -> int
(** 0 for normalized configurations.  O(1). *)

val max_tag : t -> int
(** O(1). *)

val is_normalized : t -> bool
(** O(1). *)

val is_connected : t -> bool

val max_degree : t -> int

(** {1 Comparison and printing} *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** {1 Derived configurations} *)

val shift_tags : t -> int -> t
(** [shift_tags c k] adds [k] to every tag (then normalizes); by
    definition 2.1 this yields an indistinguishable configuration.  [k] may
    be negative as long as no tag goes below zero. *)

val relabel : t -> int array -> t
(** [relabel c perm] renames vertex [v] to [perm.(v)] (a permutation),
    carrying edges and tags along.  Algorithm outcomes must be invariant
    under relabelling up to the same renaming — tests rely on this. *)
