(** State vectors of the election transition system.

    The model checker never materializes per-node history arrays while
    exploring: a node's state is a single [int],

    - [0] — asleep (the shared empty history [⊥]);
    - [+k] — awake and running, with interned history key [k];
    - [-k] — terminated, with final history key [k];

    and a configuration state is one such int per node.  History keys are
    the ids of one {!Radio_exec.Intern} per run (checker.ml): every key
    [> 0] denotes [(parent key, this round's event)], packed into one int,
    with parent [0] marking the wake-up entry (never [Collision] — a
    forced wake-up carries the lone neighbour's message, a spontaneous one
    hears silence; engine.mli §2.1).

    Keys are {e content-pure}: they encode history contents only, never node
    identities, so permuting a state vector by a tag-preserving graph
    automorphism yields a state of the {e same} transition system with
    identical future behaviour.  That is what makes the explorer's
    symmetry quotient sound. *)

type t = int array
(** One slot per node: [0] asleep, [+k] awake, [-k] terminated. *)

val initial : int -> t
(** All nodes asleep. *)

val all_terminated : t -> bool
(** Every node terminated: the run is over. *)

(** Bit-packed state codes: the compact key format of the explorer's
    visited set ({!Visited}).  A code is a run of LEB128 varints — round
    class, crash budget spent, then one zigzag-mapped varint per slot — so
    two states pack to equal codes exactly when [round_class], [spent] and
    every slot agree.  [write_sub] emits straight into a caller-supplied
    buffer, making the visited set's hot path allocation-free. *)
module Packed : sig
  val max_bytes : n:int -> int
  (** Upper bound on the code length of any [n]-slot state. *)

  val write_sub :
    Bytes.t ->
    pos:int ->
    round_class:int ->
    spent:int ->
    int array ->
    off:int ->
    n:int ->
    int
  (** [write_sub buf ~pos ~round_class ~spent src ~off ~n] writes the code
      of the [n]-slot state held in [src] from index [off] on at [pos] and
      returns the end position.  The buffer must have at least
      [max_bytes ~n] bytes of room after [pos]. *)

  val read_into : Bytes.t -> pos:int -> t -> int
  (** [read_into buf ~pos s] decodes the code at [pos] for a state of
      [Array.length s] slots, writes the slots into [s] and returns
      [spent] (the round class is skipped).  Allocates nothing. *)

  val zigzag : int -> int
  val unzigzag : int -> int
  (** The slot mapping ([0, -1, 1, -2, ...] to [0, 1, 2, 3, ...]): signed
      slots (terminated nodes are negative) to small unsigned varints. *)
end

val classes : t -> int list list
(** Partition of nodes by equal slot value (asleep nodes together, awake or
    terminated nodes by history key), classes ordered by smallest member,
    members ascending. *)
