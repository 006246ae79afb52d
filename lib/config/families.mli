(** The configuration families used by the paper's Section 4, plus
    convenience constructors used throughout tests, examples and benches. *)

val g_family : int -> Config.t
(** [g_family m] is the paper's [G_m] (Proposition 4.1): the path
    [a_1 .. a_m, b_1 .. b_{2m+1}, c_m .. c_1] (so [n = 4m + 1] nodes) where
    every [a_i] and [c_i] has tag 0 and every [b_i] has tag 1.  Feasible with
    span 1, yet every dedicated leader election algorithm needs [Ω(n)]
    rounds; the canonical leader is the central node [b_{m+1}].
    Requires [m >= 2]. *)

val g_family_center : int -> Radio_graph.Graph.vertex
(** The vertex index of [b_{m+1}], the unique-history centre of [G_m]. *)

val h_family : int -> Config.t
(** [h_family m] is the paper's [H_m] (Lemma 4.2): the 4-node path
    [a - b - c - d] with tags [t_a = m], [t_b = t_c = 0], [t_d = m + 1].
    Feasible for every [m >= 1]; every leader election algorithm for it needs
    at least [m] rounds (Proposition 4.3: [Ω(σ)] at constant size). *)

val s_family : int -> Config.t
(** [s_family m] is the paper's [S_m] (Proposition 4.5): the 4-node path
    [a - b - c - d] with tags [t_a = t_d = m], [t_b = t_c = 0].  Infeasible
    for every [m >= 1] (perfectly symmetric), yet indistinguishable from
    [H_{t+1}] by any algorithm whose tag-0 nodes first transmit in round
    [t >= m - 1] — the crux of the no-distributed-decision proof. *)

val tagged_path : int array -> Config.t
(** Path on [Array.length tags] vertices with the given tags. *)

val tagged_cycle : int array -> Config.t
(** Cycle with the given tags ([>= 3] of them). *)

val staircase_clique : int -> Config.t
(** [staircase_clique n]: complete graph where node [i] has tag [i] — every
    wake-up round distinct; the easiest feasible single-hop instance. *)

val two_cells : unit -> Config.t
(** The smallest interesting feasible configuration: a single edge with tags
    [[|0; 1|]]. *)

val symmetric_pair : unit -> Config.t
(** The smallest infeasible configuration with an edge: a single edge with
    tags [[|0; 0|]]. *)
