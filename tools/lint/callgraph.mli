(** Per-module call graph over parsed sources (substrate of the taint and
    effect analyses).

    Nodes are toplevel value bindings — bindings inside nested
    [module ... = struct] blocks are keyed under their top module, so a
    reference to [Trace.Acc.wake] meets the definition registered for
    [trace.ml].  Edges are the longidents each body references, with their
    call-site lines; references made under [let open M in ...] / [M.(...)]
    / a toplevel [open M] are additionally recorded with the opened module
    prefixed, so propagation does not drop edges through opened modules.
    Only parsed files go in: a file the parser rejects is a [parse-error]
    finding of the scan ({!Driver.scan}), not a node. *)

type reference = {
  target : string list;  (** flattened longident, [Stdlib.] dropped *)
  ref_line : int;
}

type task = {
  submit_line : int;  (** line of the [Pool.<submit>] application *)
  task_refs : reference list;
      (** every reference made inside the [~f] argument — the closure that
          runs on worker domains *)
}

type def = {
  key : string;  (** ["Module.name"] — top module + unqualified name *)
  display : string;  (** full dotted path, e.g. ["Trace.Acc.wake"] *)
  def_path : string;
  def_line : int;  (** the first definition's line *)
  mutable sites : (string * int) list;
      (** [(path, line)] of every definition merged into this node, in
          scan order: same-named bindings under one top module (in two
          submodules, say) share one node *)
  mutable refs : reference list;
  mutable setfield_lines : int list;
      (** lines holding a record-field mutation ([r.f <- v]) — the one
          mutation shape the parser does not desugar to an ident *)
  mutable tasks : task list;
      (** Pool task closures submitted from this binding's body:
          [run_batch]/[map]/[map_array]/[map_reduce]/[iter_batches] call
          sites with the references their [~f] argument makes *)
}

type t

val create : unit -> t

val add_parsed : t -> path:string -> source:string -> Parsetree.structure -> unit
(** Index one file from its source and its already-parsed AST (the
    driver's parse-once cache). *)

val of_sources : (string * string) list -> t
(** Build from in-memory [(path, source)] pairs (test fixtures).  Raises
    [Invalid_argument] on a source that does not parse. *)

val module_name_of_path : string -> string
val defs : t -> def list
val find : t -> string -> def option
val has_module : t -> string -> bool
(** Is this top module part of the scanned set? *)

val is_mutable : t -> string -> bool
(** Does this def key name a module-level mutable binding — a toplevel
    [let] bound to [ref ...], [Hashtbl.create ...], [Buffer.create ...],
    [Queue.create ...] or [Stack.create ...]?  Any reference to such a
    binding is shared-state access ({!Effects}). *)

val allowed : t -> path:string -> line:int -> rule:string -> bool
(** The [radiolint: allow] predicate of the file at [path]. *)

val allowed_def : t -> def -> rule:string -> bool
(** [rule] is allowed at every one of the definition's [sites]: the
    barrier test of the dataflow clients, so an annotation on one of two
    merged bindings covers neither. *)

val resolve : t -> top:string -> string list -> string option
(** Resolve a flattened reference made inside top module [top] to a
    call-graph key: [f] alone within the same module, [...; M; ...; f]
    through the first component naming a scanned module, after the
    file's module aliases.  The edge
    relation every dataflow client ({!Taint}, {!Effects}, {!Ranges},
    {!Partiality}) propagates over. *)

val flatten : Longident.t -> string list
(** Flatten a longident the way reference extraction does ([Stdlib.]
    dropped) — clients walking their own ASTs resolve through
    {!resolve} with the same spelling. *)

val exn_name :
  t -> top:string -> opens:string list list -> string list -> string
(** The one name of a constructor spelled [comps] in [top] under [opens]:
    ["Module.E"] for one a scanned module declares (through aliases, opens
    and rebindings), the alias-expanded path otherwise ([Not_found]). *)
