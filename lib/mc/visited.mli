(** Compact visited set over bit-packed state codes.

    An open-addressing hash table whose keys are plain [int] offsets into
    a growable byte arena of {!State.Packed} codes: linear probing,
    power-of-two capacity, in-place doubling, load factor 1/2.  Both the
    table and the arena are unboxed, so the structure is invisible to the
    GC regardless of how many states it holds — the property that lets
    the explorer's state cap rise from 10^5 to 10^7 (docs/MODELCHECK.md).

    [add] is a single find-or-insert probe: the candidate code is written
    once into the arena tail and either published (fresh) or rolled back
    (duplicate), so membership testing allocates nothing. *)

type t

val create : ?bits:int -> slots:int -> unit -> t
(** [create ~slots ()] is an empty set for states of [slots] nodes;
    [bits] sizes the initial table at [2^bits] slots (default 12). *)

val add : t -> round_class:int -> spent:int -> State.t -> bool
(** [add t ~round_class ~spent s] inserts the packed code of [s] and
    returns [true], or returns [false] if it was already present. *)

val mem : t -> round_class:int -> spent:int -> State.t -> bool
(** Membership without insertion. *)

val size : t -> int
(** Number of states held. *)

val memory_bytes : t -> int
(** Current footprint of the table plus the arena, in bytes — monotone,
    so the final value is also the peak. *)

(** {1 Reading entries back}

    Entries sit in the arena in insertion order at stable byte offsets
    (growth copies the arena but keeps every offset), so the entries
    published between two {!cursor} readings form a contiguous run that
    can be walked with {!next} and decoded in place with {!decode}.  The
    explorer reads each BFS level's frontier this way: level [r + 1] is
    exactly the run [add] published while level [r] was expanded.
    Reading is safe from many domains at once while nothing is added. *)

val cursor : t -> int
(** Offset at which the next fresh entry will be published. *)

val next : t -> int -> int
(** [next t off] is the offset of the entry after the one at [off]. *)

val decode : t -> int -> State.t -> int
(** [decode t off s] writes the slots of the entry at [off] into [s]
    (which must have the set's slot count) and returns the entry's
    [spent].  Allocates nothing. *)

val iter :
  t ->
  slots:int ->
  f:(round_class:int -> spent:int -> State.t -> unit) ->
  unit
(** Visit every entry in insertion order (test / debugging aid; unpacks
    each code). *)
