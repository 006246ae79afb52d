(** Node labels of the [Partitioner] procedure (Algorithm 3).

    A label is the sorted list of triples [(a, b, c)] recording every
    non-silent round a node would perceive during a phase of the canonical
    DRIP: [a] is the transmission block (the equivalence class of the
    transmitting neighbour), [b ∈ 1 .. 2σ+1] is the local round within the
    block ([σ + 1 + t_w - t_v]), and [c] says whether exactly one ([One]) or
    several ([Many]) neighbours transmit there — i.e. whether the node hears
    the message or noise.  Triples are kept sorted by the paper's [≺hist]
    order (Definition 3.1). *)

type mark =
  | One  (** exactly one transmitter: the message is heard *)
  | Many  (** [>= 2] transmitters: noise *)

type triple = {
  block : int;  (** the paper's [a] *)
  slot : int;  (** the paper's [b] *)
  mark : mark;  (** the paper's [c] *)
}

type t = triple list
(** Sorted by {!compare_triple}; [(block, slot)] pairs are pairwise
    distinct.  The empty list is the paper's [null] label. *)

val compare_triple : triple -> triple -> int
(** Definition 3.1's [≺hist]: by [block], then [slot], then [One < Many]. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int
(** A non-negative hash over every field of every triple, [mark]
    included: equal labels hash equally. *)

val hash_key : int -> t -> int
(** [hash_key c l] hashes the key [(c, l)] of a previous class and a
    label, as {!hash} does [l] ([hash = hash_key 0]): the key of the
    classifier's [Refine] table and of the DRIP's class-table lookups. *)

val of_observations : (int * int * mark) list -> t
(** Sorts raw [(block, slot, mark)] observations into a label.  Raises
    [Invalid_argument] if two observations share a [(block, slot)] pair
    (a node perceives exactly one thing per round).  Observations listed
    latest first, so in strictly descending [(block, slot)] order, take
    one reversal and no sort. *)

val of_neighbour_slots : (int * int) list -> t
(** Builds a label from the multiset of [(block, slot)] transmission slots
    of a node's relevant neighbours, merging duplicates into [Many] — the
    loop at lines 3–16 of Algorithm 3. *)

val mem : block:int -> slot:int -> t -> mark option

val pp : Format.formatter -> t -> unit

val to_string : t -> string
