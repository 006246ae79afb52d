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
      (** SARIF [partialFingerprints] key: [rule:path:line] for per-file
          rules (including [range-*] and [parse-error]),
          [taint:path:Function:sink] for taint,
          [effect:path:Function:class] for effect escapes,
          [partiality:path:Function:Exn1+Exn2] for partiality (line-free;
          a new escaping exception is a new result) *)
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

val to_sarif : finding list -> string
(** SARIF 2.1.0 document for a finding set. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line: [rule] message] — one line, editor-clickable. *)
