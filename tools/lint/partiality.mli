(** Partiality analysis: which exceptions can escape each function, a
    Backward {!Dataflow} instance over sets of exception constructor
    names, reported at CLI entries in [bin/] and [Pool] task closures.
    Sources, handler subtraction and the [radiolint: allow partiality]
    barrier are described in the implementation. *)

val rules : (string * string) list
(** [(rule_id, description)] for the driver's rule table. *)

type finding = {
  path : string;
  line : int;
  func : string;  (** display name of the entry / submitting binding *)
  kind : [ `Entry | `Task ];
  exns : string list;  (** sorted exception constructor names *)
  message : string;
  chain : Dataflow.hop list;
      (** witness: the call path from the boundary down to the raising
          primitive, exported to SARIF [relatedLocations] *)
}

type result

val analyze :
  Callgraph.t -> asts:(string * Parsetree.structure) list -> result
(** Solve the escape fixpoint over the call graph; [asts] supplies raise
    constructors and [try] extents (files without an AST contribute
    ["unknown"] raises and no handlers). *)

val findings : result -> finding list
(** Boundary findings, sorted by [(path, line, func)]. *)
