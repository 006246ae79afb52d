(** A minimal JSON codec for the serve protocol (docs/SERVE.md).

    Deliberately tiny and dependency-free: the request grammar needs
    objects, arrays, strings, integers, booleans and null — nothing else —
    and the response side needs a {e deterministic} printer (fixed key
    order, no whitespace, stable escapes) because the daemon's headline
    invariant is byte-identical response streams.  Floating-point numbers
    are rejected on parse and absent from the constructors: nothing in the
    protocol is fractional, and keeping floats out removes the one classic
    source of cross-platform byte drift. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** insertion order is printing order *)

type error = {
  column : int;  (** 1-based byte offset of the offending character *)
  message : string;
}

val max_depth : int
(** Deepest nesting of arrays and objects {!parse} accepts ([64]; a
    request needs 2). *)

val parse : string -> (t, error) result
(** Parses one complete JSON value (surrounding whitespace allowed;
    trailing bytes are an error).  Accepts the full string/escape grammar
    including [\uXXXX] (encoded to UTF-8); rejects non-integer numbers,
    duplicate object keys, truncated input and nesting deeper than
    {!max_depth} (["nesting deeper than 64"], at the bracket that opens
    the 65th level) — each with a positioned {!error} whose message
    mirrors {!Radio_faults.Fault_plan}'s parse-error style.  Never
    raises. *)

val to_string : t -> string
(** Compact, deterministic rendering: no whitespace, object fields in
    insertion order, strings escaped minimally (quote, backslash, and
    control characters only — the latter as [\n]/[\r]/[\t]/[\b]/[\f] or
    [\u00XX]).  [parse] of the result round-trips. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on other constructors. *)

