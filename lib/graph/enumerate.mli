(** Exhaustive enumeration of small graphs — the substrate of the census
    experiment (E11), which validates the classifier on the {e entire}
    universe of small configurations rather than a random sample.

    Sizes are intentionally tiny: there are [2^(n(n-1)/2)] labelled graphs
    on [n] vertices, so the limit is [n <= 6] (26,704 connected labelled
    graphs, deduplicated in about a second).  Isomorphism classes come from
    {!Props.canonical_labelling}, the same search that keys the serve
    cache. *)

val all_labelled : int -> Graph.t list
(** Every labelled simple graph on [n] vertices ([2^(n(n-1)/2)] of them).
    Raises [Invalid_argument] for [n < 0] or [n > 6]. *)

val all_connected_labelled : int -> Graph.t list
(** The connected ones among {!all_labelled}. *)

val connected_up_to_iso : int -> Graph.t list
(** One representative per isomorphism class of connected graphs on [n]
    vertices (e.g. 1, 1, 2, 6, 21, 112 representatives for n = 1..6): the
    first graph of each class in {!all_connected_labelled} order. *)

val count_up_to_iso : int -> int
(** [List.length (connected_up_to_iso n)], exposed for tests. *)
