(** Simple undirected graphs on vertices [0 .. n-1].

    This is the graph substrate underlying radio-network configurations
    (Miller–Pelc–Yadav, SPAA 2020, Section 2.1).  Graphs are immutable once
    built; construction goes through {!Builder} or the convenience
    constructors.  Self-loops and parallel edges are rejected: the paper's
    model is a simple undirected connected graph. *)

type vertex = int

type t
(** An immutable simple undirected graph. *)

exception Invalid_edge of string
(** Raised on self-loops, out-of-range endpoints or duplicate edges. *)

(** {1 Construction} *)

val empty : int -> t
(** [empty n] is the edgeless graph on [n] vertices. [n >= 0]. *)

val of_edges : int -> (vertex * vertex) list -> t
(** [of_edges n edges] builds a graph on [n] vertices with the given edge
    list.  Edges are unordered pairs; [(u, v)] and [(v, u)] denote the same
    edge and listing both raises {!Invalid_edge}, as do self-loops and
    endpoints outside [0 .. n-1]. *)

val of_edge_array : int -> int array -> int -> (t, int * string) result
(** [of_edge_array n ends m] is [of_edges n] of the [m] edges
    [(ends.(2i), ends.(2i+1))], [i < m] ([ends] has at least [2m]
    entries), in O(n + m log Δ) and without per-edge allocation.  A refused list gives [Error (i, msg)]: [i] is
    the first edge that is out of range, a self-loop or a repeat of an
    earlier edge, and [msg] is {!Invalid_edge}'s message for it.  Raises
    {!Invalid_edge} only when [n < 0]. *)

val add_edge : t -> vertex -> vertex -> t
(** [add_edge g u v] is [g] plus edge [{u, v}].  Raises {!Invalid_edge} on a
    self-loop, an out-of-range endpoint, or an existing edge. *)

val remove_edge : t -> vertex -> vertex -> t
(** [remove_edge g u v] is [g] minus edge [{u, v}]; raises {!Invalid_edge} if
    the edge is absent. *)

(** Imperative construction helper for generators that add many edges. *)
module Builder : sig
  type graph := t
  type t

  val create : int -> t
  (** [create n] starts a builder for a graph on [n] vertices. *)

  val add_edge : t -> vertex -> vertex -> unit
  (** Adds an edge; raises {!Invalid_edge} on invalid or duplicate edges. *)

  val mem_edge : t -> vertex -> vertex -> bool

  val finish : t -> graph
  (** Freezes the builder.  The builder must not be reused afterwards. *)
end

(** {1 Observation} *)

val size : t -> int
(** Number of vertices. *)

val num_edges : t -> int

val mem_edge : t -> vertex -> vertex -> bool

val neighbours : t -> vertex -> vertex list
(** Neighbours of a vertex, in increasing order. *)

val degree : t -> vertex -> int

val max_degree : t -> int
(** Maximum degree [Δ].  0 for the empty and one-vertex graphs. *)

val edges : t -> (vertex * vertex) list
(** All edges as pairs [(u, v)] with [u < v], lexicographically sorted. *)

val iter_edges : t -> f:(vertex -> vertex -> unit) -> unit
(** [f u v] on every edge, in {!edges} order, allocating nothing. *)

val vertices : t -> vertex list

val fold_neighbours : t -> vertex -> init:'a -> f:('a -> vertex -> 'a) -> 'a

val iter_neighbours : t -> vertex -> f:(vertex -> unit) -> unit

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
(** Structural equality: same vertex count and same edge set. *)

val pp : Format.formatter -> t -> unit
(** Prints as [graph(n=..; m=..; edges=[..])]. *)
