(** Source-level determinism lint for the radio-network codebase.

    The checks enforce repository rules that the type system cannot see (see
    docs/LINTING.md for the paper justification of each):

    - [random]: [Random.*] is confined to [lib/baselines/],
      [lib/graph/gen.ml] and [lib/config/random_config.ml]; deterministic
      paths must not consult a PRNG.
    - [obj-magic]: [Obj.magic] is banned outright.
    - [physical-equality]: [==]/[!=] on structural data compare identity,
      not value, and are banned in favour of [=]/[<>] or [equal] functions.
    - [fault-purity]: fault plans are pure data, so [lib/faults/] and
      [lib/sim/fault_plan.ml] must not
      consult ambient randomness ([Random.*], in particular
      [Random.self_init]) or wall-clock time ([Unix.gettimeofday],
      [Unix.time], [Unix.localtime], [Unix.gmtime], [Sys.time]); every plan
      is derived from an explicit integer seed.
    - [hashtbl-iteration]: [Hashtbl.iter]/[Hashtbl.fold] enumerate bindings
      in nondeterministic order and are banned in [lib/core/], [lib/drip/]
      and [lib/sim/].
    - [missing-mli]: every [lib/**/*.ml] needs a matching [.mli].

    Matching is comment- and string-literal-aware: occurrences inside
    comments or string literals never fire.  A finding on a line carrying
    [(* radiolint: allow <rule> [<rule> ...] *)] is suppressed, as is a
    finding on the line immediately below a comment-only line with that
    annotation. *)

type violation = {
  path : string;
  line : int;  (** 1-based *)
  rule : string;
  message : string;
}

val rule_names : string list
(** All rule identifiers, for documentation and [allow] validation. *)

val normalize : string -> string
(** Forward slashes, no leading [./] — every path predicate below expects
    normalized paths. *)

val under_lib : string -> bool
(** The path is (or is under) a [lib/] directory. *)

val random_allowed : string -> bool
(** Directories that legitimately own a (seeded) PRNG: [lib/baselines/],
    [lib/graph/gen.ml], [lib/config/random_config.ml].  These are also the
    modules the taint analysis treats as purity {e barriers}. *)

val deterministic_hot_path : string -> bool
(** [lib/core/], [lib/drip/], [lib/sim/]. *)

val in_faults : string -> bool
(** [lib/faults/] and [lib/sim/fault_plan.ml{,i}]. *)

val in_exec : string -> bool
(** [lib/exec/]: the only directory allowed to use the multicore runtime
    primitives (Domain/Atomic/Mutex/Condition) directly. *)

val packed_hot_path : string -> bool
(** [lib/mc/] and [lib/exec/]: the packed-state hot paths — the reporting
    scope of the value-range analysis ({!Ranges}). *)

val canonical_order_path : string -> bool
(** [lib/core/], [lib/mc/]: canonicalization-critical code where the
    AST-level [polymorphic-compare] rule bans bare [compare]/[=]/[min]/[max]
    on structured data (see {!Ast_lint}). *)

val deterministic_boundary : string -> bool
(** The declared purity boundary ([deterministic_hot_path] or [in_faults]):
    code here must stay a deterministic function of local history. *)

val lines_of : string -> string array
(** Split on newlines (for {!allowances}). *)

val allowances :
  raw_lines:string array ->
  stripped_lines:string array ->
  line:int ->
  rule:string ->
  bool
(** [allowances ~raw_lines ~stripped_lines] scans for
    [radiolint: allow <rule> ...] annotations and returns the suppression
    predicate: an annotation covers its own line, and, when the annotated
    lines hold no code, the first code line below. *)

val read_file : string -> string
(** Read a whole file (binary-safe). *)

val walk : string -> string list -> string list
(** [walk dir acc] prepends every [.ml] under [dir] (skipping [_build] and
    dot-directories) onto [acc]. *)

val strip : string -> string
(** [strip source] blanks out comments, string literals and character
    literals (preserving length and line structure) so that needle searches
    only see code. *)

val lint_source : path:string -> string -> violation list
(** Runs every content rule on [source], which lives at repo-relative
    [path] (forward slashes).  Does not touch the filesystem; the
    [missing-mli] rule is not applied here. *)

val missing_mli : string -> violation list
(** The [missing-mli] check alone (touches the filesystem). *)

val lint_file : string -> violation list
(** Reads the file and runs {!lint_source} plus the [missing-mli] check. *)

val lint_tree : string -> violation list
(** Recursively lints every [.ml] under the given root directory, skipping
    [_build] and dot-directories.  Violations are sorted by path and
    line. *)

val pp_violation : Format.formatter -> violation -> unit
(** [file:line: [rule] message] — one line, editor-clickable. *)
