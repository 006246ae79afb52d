(** Orchestration behind [anorad lint].

    A scan reads and parses every [.ml] under the given roots exactly
    once and runs everything on every file: the AST rules ({!Ast_lint})
    and the [missing-mli] check, then — over one call graph of every
    parsed file — the taint analysis ({!Taint}), the effect-and-escape
    analysis ({!Effects}), the value-range analysis ({!Ranges}) and the
    exception-escape analysis ({!Partiality}).  A file that does not parse
    is a [parse-error] finding at the parser's line. *)

type finding = {
  rule : string;
  path : string;
  line : int;
  message : string;
  fingerprint : string;
      (** baseline key: [rule:path:line] for per-file rules (including
          [range-*] and [parse-error]), [taint:path:Function:sink] for taint,
          [effect:path:Function:class] for effect escapes,
          [partiality:path:Function:Exn1+Exn2] for partiality (line-free;
          a new escaping exception resurfaces) *)
  related : (string * int * string) list;
      (** witness chain as [(path, line, text)] — rendered as SARIF
          [relatedLocations]; empty for per-file rules *)
}

val version : string

val rule_descriptions : (string * string) list
(** Every rule the scan can report, with a one-line description — the
    one list of rule names (SARIF [tool.driver.rules]). *)

val scan : string list -> finding list
(** Every finding under the roots (directories or [.ml] files), sorted
    by path, line and rule.  Raises [Sys_error "path: reason"] on a file
    error, a missing root included. *)

val callgraph : string list -> (Callgraph.t, finding) result
(** The call graph of every [.ml] under the roots; [Error] is the
    [parse-error] finding of the first file that does not parse.  Raises
    [Sys_error] like {!scan}. *)

val load_baseline : string -> string list
(** Fingerprints from a baseline file; blank and [#] lines ignored. *)

val apply_baseline : baseline:string list -> finding list -> finding list * int
(** Drop baselined findings; returns the suppressed count. *)

val baseline_lines : finding list -> string list
(** Sorted, deduplicated fingerprints — the baseline file content. *)

val stale_baseline : baseline:string list -> finding list -> string list
(** Baseline entries that no finding of the (pre-{!apply_baseline}) scan
    matches. *)

val write_baseline : string -> finding list -> int * int
(** [write_baseline file findings] writes {!baseline_lines} to [file]
    under the leading ['#'] lines of the existing file (a one-line header
    for a new file) and returns the number of fingerprints written and of
    old entries pruned.  Raises [Sys_error] like {!scan}. *)

val to_sarif : finding list -> string
(** SARIF 2.1.0 document for a finding set. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line: [rule] message] — one line, editor-clickable. *)
