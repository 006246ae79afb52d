(** Transport frontends for the serve protocol: newline-delimited JSON over
    stdin/stdout or a Unix-domain socket (docs/SERVE.md).

    The server blocks for one line, drains whatever further input is
    already available — without blocking — up to [max_batch] lines,
    decodes them ({!Protocol.parse}) in one parallel batch into a
    lookahead queue of at most [max_batch] requests, cuts a wave off the
    queue, runs it through {!Service.process_wave} on one process-lifetime
    {!Radio_exec.Pool} (the one-pool-per-process pattern of
    docs/PARALLEL.md), and writes the responses in request order.  Wave
    boundaries are a latency/throughput trade-off only: they can never
    change response bytes (see {!Service}).

    A [stats] request always terminates its wave (requests decoded after
    it wait in the queue for the next wave), so its counters equal the
    exact stream prefix up to and including itself.  Blank request
    lines are skipped without a response.  All telemetry — per-wave
    latency, queue depth, cache hit rate, pool stats — goes to stderr,
    keeping stdout byte-comparable across runs. *)

type options = {
  jobs : int option;  (** pool size; [None] defers to [Pool.create] *)
  cache_entries : int;  (** LRU capacity; [0] disables the cache *)
  max_batch : int;  (** wave size cap (clamped to [>= 1]) *)
  stats_every : int;
      (** print a telemetry line to stderr every this many requests;
          [0] prints only on [stats] requests *)
}

val default_options : options
(** [jobs = None; cache_entries = 256; max_batch = 64; stats_every = 0]. *)

val serve_fd :
  options ->
  service:Service.t ->
  pool:Radio_exec.Pool.t ->
  Unix.file_descr ->
  Unix.file_descr ->
  unit
(** [serve_fd opts ~service ~pool in_fd out_fd] runs the wave loop until
    end-of-input.  Returns normally when the peer closes the write side
    mid-line (the final unterminated line is still answered) or when the
    output fd breaks ([EPIPE]). *)

val serve_stdio : options -> unit
(** One service + one pool for the whole process, over stdin/stdout. *)

val serve_socket : ?max_accepts:int -> options -> path:string -> unit
(** Listens on a Unix-domain socket at [path] (unlinking a stale socket
    file first) and serves connections sequentially — service and pool
    are shared, so the cache stays warm across connections.
    [max_accepts] bounds the number of connections served ([0], the
    default, means serve forever); the socket file is removed on exit. *)

val run_string :
  ?service:Service.t -> ?pool:Radio_exec.Pool.t -> options -> string -> string
(** [run_string opts input] feeds [input] through the wave loop and
    returns the full response stream — the harness behind the bench (E22)
    and the determinism tests.  Pass [service] to keep a cache warm
    across calls, [pool] to amortize one pool across calls; each defaults
    to a fresh instance torn down before returning. *)
