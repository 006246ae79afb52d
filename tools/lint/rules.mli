(** Rule scopes, allow annotations and file helpers of the source lint.

    The per-file rules themselves live in {!Ast_lint}; this module holds
    what they share with the interprocedural analyses: the path predicates
    that scope each rule (see docs/LINTING.md for the paper justification
    of each), the [missing-mli] check, the
    [(* radiolint: allow <rule> [<rule> ...] *)] annotation predicate and
    the file readers.  An annotation suppresses a finding on its own line
    and, when the annotated lines hold no code, on the first code line
    below. *)

type violation = {
  path : string;
  line : int;  (** 1-based *)
  rule : string;
  message : string;
}

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
(** Read a whole file (binary-safe).  Raises [Sys_error "path: reason"],
    also for a directory. *)

val walk : string -> string list -> string list
(** [walk dir acc] prepends every [.ml] under [dir] (skipping [_build] and
    dot-directories) onto [acc]. *)

val strip : string -> string
(** [strip source] blanks out comments, string literals and character
    literals (preserving length and line structure), so {!allowances} can
    tell a comment-only line from a code line. *)

val missing_mli : string -> violation list
(** The [missing-mli] check: a [lib/**/*.ml] without a matching [.mli]
    (touches the filesystem). *)
