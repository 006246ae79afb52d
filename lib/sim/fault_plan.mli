(** Deterministic fault plans: pure data describing every deviation from the
    paper's pristine model that a run will suffer.

    The paper (and [lib/sim/engine.ml]) assume crash-free nodes, loss-free
    links, perfect collision detection and exact wake-up tags.  A fault plan
    relaxes each assumption with one fault kind:

    - {b Crash} [v] at global round [r]: crash-stop — from round [r] onwards
      the node neither transmits, listens, wakes nor terminates;
    - {b Drop} [src -> dst] at round [r]: the directed copy of [src]'s
      round-[r] transmission addressed to [dst] is lost in the air
      ([dst] neither hears it nor counts it towards a collision);
    - {b Noise} at [v] in round [r]: spurious interference corrupts [v]'s
      collision detection — a listening [v] hears [Collision] whatever its
      neighbours did, and a sleeping [v] cannot be woken that round
      (collisions do not wake);
    - {b Jitter} [v] by [delta]: the wake-up tag of [v] slips by [delta]
      (clamped at 0) before the run starts — the clock-drift fault that
      {!Election.Fragility} quantifies statically.

    {b Topology events} relax the static-graph assumption itself.  They
    take effect at the top of their round, before crashes and decisions,
    in the deterministic order of {!normalize} (within a round: link-down,
    link-up, leave, join, retag, then by node):

    - {b Link_down}/{b Link_up} [u-v] at round [r]: the undirected link
      disappears from / appears in the air.  A link may come up that the
      base graph never had;
    - {b Leave} [v] at round [r]: the node vanishes — like a crash, except
      departure is not necessarily forever;
    - {b Join} [v] at round [r] with tag [t]: an absent (left, never
      crashed) node returns as a {e fresh} protocol instance, asleep, with
      its alarm set to global round [max t r] (an alarm already in the past
      fires immediately);
    - {b Retag} [v] at round [r] to tag [t]: a still-sleeping node's alarm
      is moved to global round [max t r].  Awake or terminated nodes are
      unaffected.

    Plans are pure data: constructing one performs no I/O and consults no
    clock or ambient randomness ([radiolint]'s [fault-purity] rule enforces
    this at the source level).  {!sample} derives plans from an explicit
    integer seed through a local splitmix-style generator, so every plan is
    reproducible from [(seed, shape)] alone. *)

type fault =
  | Crash of { node : int; round : int }
  | Drop of { src : int; dst : int; round : int }
  | Noise of { node : int; round : int }
  | Jitter of { node : int; delta : int }
  | Link_down of { u : int; v : int; round : int }
  | Link_up of { u : int; v : int; round : int }
  | Leave of { node : int; round : int }
  | Join of { node : int; round : int; tag : int }
  | Retag of { node : int; round : int; tag : int }

type t = fault list
(** A plan is an unordered bag of faults; {!normalize} sorts and dedups. *)

val empty : t

val is_empty : t -> bool

val normalize : t -> t
(** Sorted, duplicate-free representation ({!to_string} emits it).  Link
    event endpoints are canonicalized to [u < v], and conflicting [Join] /
    [Retag] entries — same node and round, different tags — collapse to
    the smallest tag, so a normalized plan always survives {!of_string}. *)

val has_topology : t -> bool
(** Whether the plan contains any topology event (link flap, leave, join
    or retag).  Gates the engine's dynamic-adjacency path and reduces the
    conformance check set to the fault ledger
    ({!Radio_lint.Invariants.validate_faulty}'s one trace pass recomputes
    semantics against a static graph). *)

val validate : Radio_config.Config.t -> t -> (unit, string) result
(** Checks every fault names nodes inside the configuration, rounds are
    non-negative, and every [Drop] follows an existing edge. *)

(** {1 Lookups} (used by the engine and the conformance checker) *)

val crash_round : t -> int -> int option
(** Earliest crash round of a node, if any. *)

val dropped : t -> src:int -> dst:int -> round:int -> bool

val noisy : t -> node:int -> round:int -> bool

val jitter_of : t -> int -> int
(** Total tag slip of a node (sum over its [Jitter] faults; 0 if none). *)

val apply_jitter : t -> Radio_config.Config.t -> Radio_config.Config.t
(** The effective configuration: every tag shifted by its jitter, clamped at
    0, {e not} re-normalized (a slipped clock moves one alarm, not the global
    round numbering). *)

(** {1 Seeded sampling} *)

(** The one seeded generator (splitmix64) behind every sampled schedule
    here and the edit streams of {!Election.Incremental.Oracle}: a stream
    is determined by its seed alone. *)
module Prng : sig
  type t

  val create : int -> t

  val int : t -> int -> int
  (** [int t bound] is uniform in [0 .. bound - 1]; [bound >= 1]. *)
end

val sample :
  seed:int ->
  ?crashes:int ->
  ?drops:int ->
  ?noise:int ->
  ?jitters:int ->
  ?max_jitter:int ->
  ?link_flaps:int ->
  ?node_flaps:int ->
  ?retags:int ->
  horizon:int ->
  Radio_config.Config.t ->
  t
(** [sample ~seed ~horizon config] draws the requested number of faults of
    each kind (default 0) with rounds uniform in [0 .. horizon - 1], edges
    and nodes uniform over the configuration, and jitter deltas in
    [-max_jitter .. max_jitter] (default [span + 1], never 0).  Each
    [link_flap] is a paired [Link_down]/[Link_up] on a base-graph edge
    (down before up, both inside the horizon); each [node_flap] a paired
    [Leave]/[Join] with a fresh tag in [0 .. span]; each [retag] moves one
    node's alarm to a tag in [0 .. span + 1].  Entirely determined by the
    arguments — no global state. *)

val crash_schedule : seed:int -> horizon:int -> Radio_config.Config.t -> (int * int) list
(** A full random crash order: a seed-determined permutation of all nodes
    paired with crash rounds in [0 .. horizon - 1].  Taking the first [k]
    pairs yields the nested plans that {!Resilience} sweeps, so intensities
    [k] and [k + 1] differ by exactly one crash. *)

(** {1 Serialization}

    Line format (comments with ['#'], blank lines ignored):
    {v
    faults
    crash <node> <round>
    drop <src> <dst> <round>
    noise <node> <round>
    jitter <node> <delta>
    link-down <u> <v> <round>
    link-up <u> <v> <round>
    leave <node> <round>
    join <node> <round> <tag>
    retag <node> <round> <tag>
    v} *)

val to_string : t -> string

val of_string : string -> t
(** Raises [Failure] on malformed input, always naming the offending
    (1-based) line: unknown kinds, bad integers, wrong field counts, and
    {e duplicate entries} — two identical faults, or two [join]/[retag]
    lines racing to set the same node's tag in the same round — are all
    positioned errors instead of silent dedup. *)

val read_file : string -> t

val pp_fault : Format.formatter -> fault -> unit

val pp : Format.formatter -> t -> unit
