(** AST-level determinism rules (compiler-libs pipeline): the only
    per-file rule engine.

    Rules match on parsed longidents and expressions, so comments, string
    literals and identifiers that merely contain a needle never fire, and
    aliased forms ([Stdlib.(==)], [Stdlib.Random.int], [module R = Random])
    do.  Scopes come from {!Rules}:

    - [random]: [Random.*] (or an alias of the module) outside
      {!Rules.random_allowed};
    - [obj-magic]: [Obj.magic] anywhere under [lib/];
    - [physical-equality]: [==] / [!=] anywhere under [lib/];
    - [hashtbl-iteration]: [Hashtbl.iter] / [Hashtbl.fold] in
      {!Rules.deterministic_hot_path};
    - [fault-purity]: ambient randomness or wall-clock reads in
      {!Rules.in_faults};
    - [domain-safety]: [Domain] / [Atomic] / [Mutex] / [Condition] under
      [lib/] outside {!Rules.in_exec};
    - [toplevel-mutable-state]: a module-level [let] binding [ref _] or
      [Hashtbl.create _] inside the deterministic boundary;
    - [catch-all-exception]: [try ... with _ ->] (or a variable pattern)
      inside the deterministic boundary;
    - [assert-false]: [assert false] on a protocol path (deterministic
      boundary);
    - [polymorphic-compare]: in canonicalization-critical code
      ({!Rules.canonical_order_path}: [lib/core/], [lib/mc/]), a bare
      [compare] reference, or [=] / [<>] / [min] / [max] applied to a
      syntactically structured argument (tuple, record, array, constructor
      or variant carrying a payload — nullary [None] / [[]] stay exempt).
      The rule is syntactic: it cannot see a local [let compare = ...]
      shadow, so such modules name their comparators ([compare_states],
      [compare_labels]) and alias [compare] only at the end.

    [radiolint: allow <rule>] annotations suppress findings
    ({!Rules.allowances}).  A source the parser rejects is one
    [parse-error] finding at the parser's line. *)

type parsed = Parsetree.structure

val parse : path:string -> string -> (parsed, Rules.violation) result
(** Parse an OCaml implementation.  [Error v] is the [parse-error]
    finding: the parser's line and its one-line diagnostic. *)

val lint_parsed :
  path:string ->
  source:string ->
  (parsed, Rules.violation) result ->
  Rules.violation list
(** Run every AST rule over a parse result of [source], with the allow
    annotations of [source] ({!Rules.allowances}); an [Error] yields its
    [parse-error] finding alone.  Does not touch the filesystem, so
    [missing-mli] is not applied here. *)

val lint_source : path:string -> string -> Rules.violation list
(** {!lint_parsed} of {!parse}. *)
