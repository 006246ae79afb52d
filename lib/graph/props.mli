(** Structural graph properties: traversal, connectivity, distances.

    These are used to validate configurations (the paper requires connected
    graphs) and by the analysis harness (diameters of generated workloads). *)

val bfs_distances : Graph.t -> Graph.vertex -> int array
(** [bfs_distances g src] is the array of hop distances from [src]; [-1] for
    unreachable vertices. *)

val connected : Graph.t -> bool
(** Whether the graph is connected.  The empty graph and one-vertex graph are
    connected. *)

val components : Graph.t -> int array * int
(** [components g] is [(comp, k)] where [comp.(v)] is the component index of
    [v] (indices [0 .. k-1] in order of smallest member). *)

val eccentricity : Graph.t -> Graph.vertex -> int
(** Maximum distance from the vertex to any other vertex.  Raises
    [Invalid_argument] if the graph is disconnected. *)

val diameter : Graph.t -> int
(** Maximum eccentricity.  0 for graphs with [<= 1] vertex; raises
    [Invalid_argument] if disconnected. *)

val distance_matrix : Graph.t -> int array array
(** All-pairs hop distances by repeated BFS; [-1] for unreachable pairs. *)

val degree_histogram : Graph.t -> (int * int) list
(** [(degree, how many vertices have it)] pairs, sorted by degree. *)

val is_regular : Graph.t -> bool
(** Whether all vertices have equal degree (vacuously true for [n <= 1]). *)

val is_vertex_transitive_candidate : Graph.t -> bool
(** Cheap necessary condition for vertex transitivity (regular and every
    vertex has the same sorted multiset of neighbour degrees).  Used by tests
    that pick highly symmetric graphs for infeasibility checks. *)

val canonical_labelling : colours:int array -> Graph.t -> int array
(** [canonical_labelling ~colours g] is a colour-preserving relabelling
    [perm] ([perm.(v)] is [v]'s new label) that puts a vertex of the
    [i]-th smallest colour at new label [i] and, among those, makes the
    adjacency rows (new label [i]'s edges back to labels [0 .. i-1]) the
    lexicographically smallest.  Two coloured graphs relabelled by it
    coincide iff they are isomorphic by a colour-preserving map.  [colours] has one
    entry per vertex.  A branch and bound with worst case [n!]
    assignments and rows held as int bitmasks, so [n] must stay small
    (the callers stop at 8). *)
