(** Compact visited set over bit-packed state codes.

    An open-addressing hash table whose slots pack a hash fragment above
    a plain [int] offset into a growable byte arena of {!State.Packed}
    codes: linear probing, power-of-two capacity, in-place doubling, load
    factor 1/2.  Both the table and the arena are unboxed, so the
    structure is invisible to the GC regardless of how many states it
    holds — the property that lets the explorer's state cap rise from
    10^5 to 10^7 (docs/MODELCHECK.md).

    A state's hash is {!hash}, a word mixer over its ints that needs no
    set, so callers may compute it elsewhere — on pool workers, say —
    and insert with {!add_hashed}.  An insert is a single find-or-insert
    probe: the candidate code is written once into the arena tail and
    either published (fresh) or rolled back (duplicate), arena bytes are
    compared only where the stored fragment matches, and growth
    re-places slots from their fragments without reading the arena.  An
    insert allocates nothing beyond amortized growth, and its result is
    the set's only membership answer.  The fragment is 30 bits and the
    offset 32, so a set holds at most 2^29 entries in at most 4 GiB of
    codes; past either bound an insert raises [Invalid_argument]. *)

type t

val create : ?bits:int -> slots:int -> unit -> t
(** [create ~slots ()] is an empty set for states of [slots] nodes;
    [bits] sizes the initial table at [2^bits] slots (default 12,
    clamped to 3..30). *)

val hash :
  round_class:int -> spent:int -> int array -> pos:int -> len:int -> int
(** [hash ~round_class ~spent src ~pos ~len] hashes the state held in
    [src.(pos) .. src.(pos + len - 1)] together with its round class and
    crash budget spent.  Pure; equal inputs give equal hashes. *)

val add_hashed :
  t -> hash:int -> round_class:int -> spent:int -> int array -> pos:int -> bool
(** [add_hashed t ~hash ~round_class ~spent src ~pos] inserts the state of
    the set's slot count held in [src] from [pos] on and returns [true],
    or returns [false] if it was already present.  [hash] must be the same
    function of the state for every entry of the set — {!hash} in the
    explorer; any constant is correct, only slower. *)

val prefetch : t -> hash:int -> unit
(** [prefetch t ~hash] loads the table slot where a probe for [hash]
    starts, so that a later {!add_hashed} finds it in cache.  A hint
    only: the set is unchanged.  Issue a batch of them before the inserts
    they serve, so their cache misses overlap. *)

val add : t -> round_class:int -> spent:int -> State.t -> bool
(** [add t ~round_class ~spent s] is {!add_hashed} with [s]'s {!hash}. *)

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
    exactly the run the inserts published while level [r] was expanded.
    Reading is safe from many domains at once while nothing is added. *)

val cursor : t -> int
(** Offset at which the next fresh entry will be published. *)

val next : t -> int -> int
(** [next t off] is the offset of the entry after the one at [off]. *)

val decode : t -> int -> State.t -> int
(** [decode t off s] writes the slots of the entry at [off] into [s]
    (which must have the set's slot count) and returns the entry's
    [spent].  Allocates nothing. *)
