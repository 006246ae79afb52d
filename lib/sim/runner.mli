(** Leader-election execution helpers on top of {!Engine}.

    A leader election algorithm is a protocol together with a decision
    function on final histories (Section 2.3): after every node terminates,
    the decision function must map exactly one node's history to [true]. *)

type election = {
  protocol : Radio_drip.Protocol.t;
  decision : Radio_drip.History.t -> bool;
}

type result = {
  outcome : Engine.outcome;
  winners : int list;  (** nodes whose final history satisfies the decision *)
  leader : int option;
      (** [Some v] iff all nodes terminated and [winners = [v]] *)
  rounds_to_elect : int option;
      (** global round of the last termination, when a leader was elected *)
}

val run :
  ?max_rounds:int ->
  ?record_trace:bool ->
  election ->
  Radio_config.Config.t ->
  result

val elects_unique_leader : result -> bool

val history_classes : Engine.outcome -> int array
(** Partition of nodes by equality of their {e full} final histories:
    [classes.(v)] is the class index of node [v], classes numbered from 1 in
    order of first occurrence.  Lemma 3.9 says this must coincide with the
    classifier's partition when running the canonical DRIP — tests rely on
    this function for the cross-validation. *)

val class_summary : int array -> int list * int list
(** [(sizes, unique)] of a partition of nodes [0 .. n-1] given as
    [classes.(v)], a class index in [0 .. n]: [sizes] the sorted class
    sizes, [unique] the nodes alone in their class, ascending. *)

val history_summary : Engine.outcome -> int list * int list
(** [class_summary (history_classes o)]: the sorted sizes of the history
    classes and {!unique_history_nodes}. *)

val unique_history_nodes : Engine.outcome -> int list
(** Nodes whose final history is shared by no other node — the nodes any
    decision function could elect. *)
