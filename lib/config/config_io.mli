(** Configuration serialization.

    Textual format (comments with '#', blank lines ignored):
    {v
    config <n>
    tags <t_0> <t_1> ... <t_{n-1}>
    <u> <v>
    ...
    v} *)

val to_string : Config.t -> string

val of_string : string -> Config.t
(** Raises [Failure] on malformed input, and only [Failure]: a bad header,
    tags line, tag count or integer, a negative vertex count or tag, and a
    malformed, self-loop, repeated or out-of-range edge all name the
    offending (1-based) line. *)

val to_dot : ?name:string -> Config.t -> string
(** DOT export with nodes labelled ["v<i> (t=<tag>)"]. *)

val write_file : string -> Config.t -> unit

val read_file : string -> Config.t
