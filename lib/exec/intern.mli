(** Deterministic, mergeable interning of int keys for parallel searches.

    A global interner maps keys to dense positive ids in first-seen
    order, exactly like a hash table plus a counter.  To use one from pool
    tasks without sharing the table, each task interns into a private
    {!local} view: keys already global resolve immediately, genuinely new
    keys get provisional negative ids and are recorded in creation order.
    At the barrier the caller replays each task's log against the global
    table — in submission order — via {!commit}, which returns a resolver
    mapping that task's provisional ids to their final global ids.

    Because the logs are replayed in submission order, the ids assigned
    are bit-identical to those a sequential left-to-right traversal would
    have produced.  Keys must not embed provisional ids: a task packs
    only ids that were already global when its view was made (the
    explorer's frontier ids, say), so a log replays verbatim.

    Keys are plain [int]s: callers pack structured keys (a parent id and
    an event, say) into one int.  Both the global table and the views are
    open-addressing tables over unboxed int arrays, so neither a lookup
    nor an insertion allocates beyond amortized table growth, and the GC
    never traces the tables. *)

type t

val create : unit -> t
(** Fresh interner.  Ids count up from 1: id 0 is left to the caller (the
    explorer's shared empty history). *)

val size : t -> int
(** Number of interned keys. *)

val next_id : t -> int
(** The id the next fresh key would receive. *)

val get : t -> int -> int
(** Sequential find-or-add against the global table.  Must not be called
    concurrently with itself or with {!local} tasks in flight. *)

val key : t -> int -> int
(** [key t id] is the key that received global id [id]. *)

val find : t -> int -> int option
(** Read-only lookup.  Safe to call from many domains concurrently as
    long as no [get]/[commit] mutates the table at the same time (the
    pool's batch barrier provides exactly that window). *)

(** {1 Task-local views} *)

type local

val local : t -> local
(** A private view for one task.  Cheap (a 16-bucket table that grows on
    demand); allocate one per task. *)

val get_local : local -> int -> int
(** Find-or-add in the local view: global hits return the global id,
    local hits return the provisional (negative) id, fresh keys are
    logged and assigned the next provisional id. *)

val commit : t -> local -> int -> int
(** [commit t l] replays [l]'s creation log against the global table and
    returns the resolver: non-negative ids map to themselves, provisional
    ids to the global id their key received.  Call from the orchestrating
    domain only, in submission order. *)
