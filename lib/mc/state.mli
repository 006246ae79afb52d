(** Interned state vectors of the election transition system.

    The model checker never materializes per-node history arrays while
    exploring: a node's state is a single [int],

    - [0] — asleep (the shared empty history [⊥]);
    - [+k] — awake and running, with interned history key [k];
    - [-k] — terminated, with final history key [k];

    and a configuration state is one such int per node.  History keys are
    hash-consed in an {!Intern} table: every key [> 0] denotes
    [(parent key, this round's event)], with parent [0] marking the wake-up
    entry (never [Collision] — a forced wake-up carries the lone
    neighbour's message, a spontaneous one hears silence; engine.mli §2.1).

    Keys are {e content-pure}: they encode history contents only, never node
    identities, so permuting a state vector by a tag-preserving graph
    automorphism yields a state of the {e same} transition system with
    identical future behaviour.  That is what makes the {!canonicalize}
    quotient sound. *)

(** Hash-consed history keys. *)
module Intern : sig
  type key = int

  type t

  val create : unit -> t

  val get : t -> int -> Radio_drip.History.entry -> key
  (** [get t parent event] interns the history [history parent @ [event]];
      parent [0] is the empty history. Returns the same key for the same
      pair, a fresh positive key otherwise. *)

  val size : t -> int
  (** Number of distinct keys interned so far. *)

  val parent : t -> key -> int
  val event : t -> key -> Radio_drip.History.entry

  val depth : t -> key -> int
  (** Length of the denoted history. *)

  val history : t -> key -> Radio_drip.History.t
  (** Materializes the concrete history; entry [0] is the wake-up entry. *)
end

type t = int array
(** One slot per node: [0] asleep, [+k] awake, [-k] terminated. *)

val initial : int -> t
(** All nodes asleep. *)

val equal : t -> t -> bool
(** Slot-for-slot equality (explicit — no polymorphic compare). *)

val all_terminated : t -> bool
(** Every node terminated: the run is over. *)

val encode : round_class:int -> t -> string
(** Deterministic string encoding for the hash-consed visited set.  The
    [round_class] must capture the round-dependence of the transition
    relation: two states with the same encoding are only merged when their
    futures coincide (checker.ml caps the class at [max tag + 1], after
    which spontaneous wake-ups are spent and the relation is
    round-invariant). *)

val permute : int array -> t -> t
(** [permute phi s]: the state in which node [phi.(v)] carries [s.(v)]. *)

val canonicalize : int array list -> t -> t
(** Lexicographically smallest node-permuted variant over a set of
    tag-preserving automorphisms ({!Symmetry.automorphisms}).  Keys need no
    renaming because they are content-pure. *)

(** Bit-packed state codes: the compact key format of the explorer's
    visited set ({!Visited}).  A code is a run of LEB128 varints — round
    class, crash budget spent, then one zigzag-mapped varint per slot — so
    two states pack to equal codes exactly when [round_class], [spent] and
    every slot agree, the same separation the legacy {!encode} string
    drew.  [write] emits straight into a caller-supplied buffer, making
    the visited set's hot path allocation-free. *)
module Packed : sig
  val max_bytes : n:int -> int
  (** Upper bound on the code length of any [n]-slot state. *)

  val write : Bytes.t -> pos:int -> round_class:int -> spent:int -> t -> int
  (** [write buf ~pos ~round_class ~spent s] writes the code at [pos] and
      returns the end position.  The buffer must have at least
      [max_bytes ~n] bytes of room after [pos]. *)

  val write_sub :
    Bytes.t ->
    pos:int ->
    round_class:int ->
    spent:int ->
    int array ->
    off:int ->
    n:int ->
    int
  (** [write_sub buf ~pos ~round_class ~spent src ~off ~n] is {!write} of
      the [n]-slot state held in [src] from index [off] on: the same
      bytes, read from a slice of a larger flat buffer. *)

  val read_into : Bytes.t -> pos:int -> t -> int
  (** [read_into buf ~pos s] decodes the code at [pos] for a state of
      [Array.length s] slots, writes the slots into [s] and returns
      [spent] (the round class is skipped).  Allocates nothing. *)

  val pack : round_class:int -> spent:int -> t -> Bytes.t
  (** Fresh exactly-sized code (the allocating convenience form). *)

  val unpack : n:int -> Bytes.t -> int * int * t
  (** [(round_class, spent, state)] back out of a code produced for an
      [n]-slot state: the roundtrip inverse of {!pack}. *)

  val zigzag : int -> int
  val unzigzag : int -> int
  (** The slot mapping ([0, -1, 1, -2, ...] to [0, 1, 2, 3, ...]): signed
      slots (terminated nodes are negative) to small unsigned varints. *)
end

val classes : t -> int list list
(** Partition of nodes by equal slot value (asleep nodes together, awake or
    terminated nodes by history key), classes ordered by smallest member,
    members ascending. *)
