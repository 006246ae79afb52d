(* Orchestration behind `anorad lint`: expand paths, read and parse each
   file once, run the AST rules and missing-mli on every file and the
   four interprocedural analyses — taint, effects, value ranges and
   partiality — over one call graph of every parsed file, and render text
   or SARIF.  A file that does not parse is a parse-error finding. *)

type finding = {
  rule : string;
  path : string;
  line : int;
  message : string;
  fingerprint : string;
  related : (string * int * string) list;
      (* witness chain as (path, line, text) — SARIF relatedLocations *)
}

let version = "2.1.0"

let rule_descriptions =
  [
    ("random", "PRNG use outside the exempt modules");
    ("obj-magic", "Obj.magic defeats the type system");
    ("physical-equality", "== / != compare identity, not value");
    ("hashtbl-iteration", "Hashtbl iteration order is nondeterministic");
    ( "fault-purity",
      "ambient randomness or wall-clock time in lib/faults/ or \
       lib/sim/fault_plan.ml" );
    ( "toplevel-mutable-state",
      "module-level ref/Hashtbl.create in a deterministic library" );
    ("catch-all-exception", "try ... with _ -> swallows invariant violations");
    ("assert-false", "assert false on a protocol path");
    ( "polymorphic-compare",
      "bare compare/=/min/max on structured data in canonicalization code" );
    ( "domain-safety",
      "multicore primitives (Domain/Atomic/Mutex/Condition) outside \
       lib/exec/" );
    ("missing-mli", "lib module without an interface");
    ("parse-error", "the file does not parse, so no rule can check it");
    ("taint", "deterministic boundary transitively reaches an impure primitive");
    ( "effect",
      "a Pool task closure transitively reaches shared mutable state or \
       I/O (effect class above LocalMut)" );
  ]
  @ Ranges.rules @ Partiality.rules

let related_of_chain chain =
  List.map
    (fun (h : Dataflow.hop) ->
      (h.Dataflow.hop_path, h.Dataflow.hop_line, h.Dataflow.name))
    chain

(* The fingerprint is [rule:path:key]: [key] is the line for the per-file
   and range rules, and line-free for the interprocedural findings —
   [Function:sink], [Function:class], [Function:Exn1+Exn2] — so those
   survive unrelated edits, while a worse class or a new escaping
   exception is a new result. *)
let make ~rule ~path ~line ~message ~key chain =
  {
    rule;
    path;
    line;
    message;
    fingerprint = String.concat ":" [ rule; path; key ];
    related = related_of_chain chain;
  }

let of_violation (v : Rules.violation) =
  make ~rule:v.Rules.rule ~path:v.Rules.path ~line:v.Rules.line
    ~message:v.Rules.message ~key:(string_of_int v.Rules.line) []

let of_taint (f : Taint.finding) =
  let d = f.Taint.func in
  make ~rule:Taint.rule ~path:d.Callgraph.def_path ~line:d.Callgraph.def_line
    ~message:(Taint.message f)
    ~key:(d.Callgraph.display ^ ":" ^ f.Taint.sink)
    f.Taint.chain

(* Effect escapes anchor at the Pool submit site (the actionable line). *)
let of_effect (f : Effects.finding) =
  let d = f.Effects.func in
  make ~rule:Effects.rule ~path:d.Callgraph.def_path ~line:f.Effects.submit_line
    ~message:(Effects.message f)
    ~key:(d.Callgraph.display ^ ":" ^ Effects.cls_name f.Effects.cls)
    f.Effects.chain

let of_range (f : Ranges.finding) =
  make ~rule:f.Ranges.rule_id ~path:f.Ranges.path ~line:f.Ranges.line
    ~message:f.Ranges.message ~key:(string_of_int f.Ranges.line) f.Ranges.chain

let of_partiality (f : Partiality.finding) =
  make ~rule:"partiality" ~path:f.Partiality.path ~line:f.Partiality.line
    ~message:f.Partiality.message
    ~key:(f.Partiality.func ^ ":" ^ String.concat "+" f.Partiality.exns)
    f.Partiality.chain

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s" f.path f.line f.rule f.message

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)
(* ------------------------------------------------------------------ *)

let expand_path root =
  if Sys.is_directory root then List.rev (Rules.walk root [])
  else [ Rules.normalize root ]

(* Every [.ml] under [roots], each read and parsed exactly once: the
   per-file rules, the call graph and the AST-walking analyses all share
   the parse. *)
let load roots =
  List.concat_map expand_path roots
  |> List.map (fun path ->
         let source = Rules.read_file path in
         (path, source, Ast_lint.parse ~path source))

let graph_of files =
  let cg = Callgraph.create () in
  List.iter
    (fun (path, source, parsed) ->
      match parsed with
      | Ok ast -> Callgraph.add_parsed cg ~path ~source ast
      | Error _ -> ())
    files;
  cg

let callgraph roots =
  let files = load roots in
  match
    List.find_map
      (fun (_, _, parsed) ->
        match parsed with Error v -> Some (of_violation v) | Ok _ -> None)
      files
  with
  | Some unparseable -> Error unparseable
  | None -> Ok (graph_of files)

(* The interprocedural layers build one call graph over every parsed
   file, so cross-root calls are still visible. *)
let scan roots =
  let files = load roots in
  let cg = graph_of files in
  let asts =
    List.filter_map
      (fun (path, _, parsed) ->
        match parsed with
        | Ok ast -> Some (Rules.normalize path, ast)
        | Error _ -> None)
      files
  in
  let per_file =
    List.concat_map
      (fun (path, source, parsed) ->
        List.map of_violation
          (Ast_lint.lint_parsed ~path ~source parsed @ Rules.missing_mli path))
      files
  in
  List.sort
    (fun a b -> compare (a.path, a.line, a.rule) (b.path, b.line, b.rule))
    (per_file
    @ List.map of_taint (Taint.analyze cg)
    @ List.map of_effect (Effects.escapes cg)
    @ List.map of_range (Ranges.analyze cg ~asts)
    @ List.map of_partiality
        (Partiality.findings (Partiality.analyze cg ~asts)))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* Effect findings carry their lattice class as a SARIF property, read
   off the (line-free) fingerprint's last [:] segment. *)
let sarif_properties f =
  if f.rule <> "effect" then []
  else
    match String.rindex_opt f.fingerprint ':' with
    | None -> []
    | Some i ->
        [
          ( "effectClass",
            String.sub f.fingerprint (i + 1)
              (String.length f.fingerprint - i - 1) );
        ]

let to_sarif findings =
  Sarif.to_string ~tool_version:version ~rules:rule_descriptions
    (List.map
       (fun f ->
         {
           Sarif.rule_id = f.rule;
           message = f.message;
           path = f.path;
           line = f.line;
           fingerprint = f.fingerprint;
           properties = sarif_properties f;
           related = f.related;
         })
       findings)
