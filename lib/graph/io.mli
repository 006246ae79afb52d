(** DOT export of graphs for visual inspection. *)

val to_dot : ?name:string -> ?label:(Graph.vertex -> string) -> Graph.t -> string
(** GraphViz export.  [label] defaults to the vertex number. *)
