(** Request/response grammar of the serve protocol (docs/SERVE.md).

    One request per line, one response per line, both JSON objects printed
    by {!Json.to_string} (compact, fixed key order) so response streams
    can be compared byte for byte.  Parsing is total: every malformed
    line becomes an [Error] carried inside {!parsed}, later rendered as a
    structured error response with a positioned diagnostic — the daemon
    never crashes on bad input (mirrors {!Radio_faults.Fault_plan}'s
    parse-error style). *)

type error = {
  message : string;
  column : int option;  (** 1-based byte offset within the request line *)
}

type request =
  | Classify of { config : Radio_config.Config.t }
  | Elect of { config : Radio_config.Config.t; max_rounds : int }
  | Simulate of { config : Radio_config.Config.t; max_rounds : int }
  | Mc_check of {
      config : Radio_config.Config.t;
      protocol : string;
      depth : int option;
      states : int option;
    }
  | Stats

type parsed = {
  id : Json.t;
      (** the request's ["id"] field echoed verbatim into the response
          ([Null] when absent or unrecoverable) *)
  request : (request, error) result;
}

val max_config_bytes : int
(** Upper bound on the ["config"] field (1 MiB); longer strings are
    rejected before parsing. *)

val max_config_nodes : int
(** Upper bound on configuration size accepted by the daemon ([4096]). *)

val default_max_rounds : int
(** Default [max_rounds] for [elect] / [simulate] ([100_000], matching
    {!Radio_sim.Engine.run}). *)

val max_mc_states : int
(** Upper bound on an [mc-check] request's explicit ["states"]
    ([2_000_000], the explorer's default cap); larger values are rejected
    with an error naming the field and the limit. *)

val max_mc_depth : int
(** Upper bound on an [mc-check] request's explicit ["depth"]
    ([100_000], the round budget [elect] and [simulate] default to);
    rejected like {!max_mc_states}. *)

val parse : string -> parsed
(** Never raises. *)

val known_kinds : string list

val oversized_line : limit:int -> parsed
(** The parsed form the server substitutes for a request line longer than
    [limit] bytes (the line itself is discarded unread). *)

(** {1 Response rendering} *)

val response_ok :
  id:Json.t ->
  kind:string ->
  ?cost:(string * Json.t) list ->
  (string * Json.t) list ->
  string
(** [{"id":…,"kind":…,"status":"ok","result":{…},"cost":{…}}]. *)

val response_error : id:Json.t -> error -> string
(** [{"id":…,"status":"error","error":{"message":…,"column":…}}]. *)
