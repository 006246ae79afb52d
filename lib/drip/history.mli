(** Node histories (Miller–Pelc–Yadav, Section 2.2).

    The history of a node [v] at local round [i] records what [v] perceived:

    - [Silence]   — [v] transmitted, or listened and heard nothing
      (the paper's [(∅)]);
    - [Message m] — [v] listened and exactly one neighbour transmitted [m]
      (the paper's [(M)]); at index 0 it means [v] was {e woken} by [m];
    - [Collision] — [v] listened and [>= 2] neighbours transmitted
      (the paper's (∗), audible thanks to collision detection).

    Index 0 is the wake-up round: [Silence] for a spontaneous wake-up,
    [Message m] for a forced one.  [Collision] never appears at index 0
    (collisions do not wake sleeping nodes; see DESIGN.md §3).

    Almost every entry of a history is [Silence], so a history is held as
    its length and its {e events}, the non-silent entries with their
    indices; silence is implicit.  Its memory follows the messages and
    noise the node perceived, not the rounds it ran. *)

type entry =
  | Silence
  | Message of string
  | Collision

type t
(** A complete or prefix history, index 0 = wake-up round. *)

val length : t -> int

val get : t -> int -> entry
(** [get h i] is entry [i] ([O(log events)]); [Silence] outside
    [0 .. length h - 1], where the node perceived nothing. *)

val fold : ('a -> int -> entry -> 'a) -> 'a -> t -> 'a
(** [fold f init h] folds [f acc i e] over the events of [h] (its entries
    other than [Silence]) in ascending index order. *)

val sub : t -> int -> int -> t
(** [sub h pos len] is entries [pos .. pos + len - 1] of [h], reindexed
    from 0 (a prefix when [pos = 0]); the part of the range outside [h] is
    dropped. *)

val equal_entry : entry -> entry -> bool

val equal : t -> t -> bool

val hash : t -> int
(** Agrees with {!equal}; every event and its index contribute. *)

val pp_entry : Format.formatter -> entry -> unit
(** [∅], [(m)] or [*]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Compact rendering of every entry, e.g. ["∅.∅.(1).*.∅"]. *)

(** The one way to make a history: events added in ascending index order,
    then the length. *)
module Builder : sig
  type history := t
  type t

  val create : unit -> t

  val add : t -> int -> entry -> unit
  (** [add b i e] records entry [e] at index [i] when [i >= 0] exceeds
      every index recorded before; [Silence], or any other index, records
      nothing. *)

  val build : t -> length:int -> history
  (** The history of [length] entries: the events recorded so far below
      [length].  Later events extend later builds. *)
end

val of_array : entry array -> t

val to_array : t -> entry array
(** The dense view, one entry per index: for printing and tests. *)
