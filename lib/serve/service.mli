(** The per-wave request pipeline: canonicalize → cache → analyze misses in
    parallel → render responses in parallel → emit in request order.

    Determinism contract (the headline invariant of docs/SERVE.md): every
    response is a pure function of its request line.  The pipeline always
    routes through the {e canonical representative} — cold or warm, cache
    enabled or disabled, it computes (or fetches) the analysis of
    [Election.Canonical.canonical_form config] and derives the response
    from that analysis plus the request's own configuration.  A cache hit
    therefore returns the exact bytes a cold run would, isomorphic
    requests share one entry, and wave boundaries affect only telemetry
    (LRU recency, hit/miss counters), never response bytes.

    Thread discipline: task closures handed to the pool are pure up to
    local mutation ([<= LocalMut]); the cache and all counters are
    touched by the orchestrating domain only. *)

type t

val create : cache_entries:int -> t

type telemetry = {
  requests : int;  (** lines answered, errors included *)
  errors : int;
  by_kind : (string * int) list;  (** in {!Protocol.known_kinds} order *)
  cache_hits : int;
      (** canonical-key resolutions served from the cache or from an
          earlier request of the same wave *)
  cache_misses : int;  (** resolutions that ran the classifier *)
  cache_entries : int;
  cache_capacity : int;
  cache_evictions : int;
}

val telemetry : t -> telemetry

val hit_rate : telemetry -> float
(** [hits / (hits + misses)]; [0.] before any resolution. *)

val process_wave :
  t -> pool:Radio_exec.Pool.t -> Protocol.parsed array -> string array
(** Responses for one wave, index-aligned with the input.  Every request's
    canonical form and key are computed in one parallel batch; counting,
    cache lookups and inserts stay on the caller, in request order.
    Distinct missing canonical keys are analyzed in parallel
    (first-occurrence order), then
    every request's heavy work (model checking, an engine run when
    [max_rounds] cuts an [elect] or [simulate] run off, rendering)
    runs as one parallel batch; both stages commit deterministically.

    A [Stats] request reports counters that include every request of its
    own wave; the server keeps this equal to the exact stream prefix by
    cutting each wave at the first [Stats] line. *)
