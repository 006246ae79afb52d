(* Orchestration shared by the radiolint executable and `anorad lint`:
   expand paths, parse each file once, run the AST rules with textual
   fallback on unparseable files, optionally add the interprocedural
   layers — taint (--deep), effects (--effects), value ranges
   (--ranges) and partiality (--partiality); --deep implies all — filter
   against a committed baseline, and render text or SARIF. *)

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
    ("taint", "deterministic boundary transitively reaches an impure primitive");
    ( "effect",
      "a Pool task closure transitively reaches shared mutable state or \
       I/O (effect class above LocalMut)" );
  ]
  @ Ranges.rules @ Partiality.rules

let rule_names = List.map fst rule_descriptions

let related_of_chain chain =
  List.map
    (fun (h : Dataflow.hop) ->
      (h.Dataflow.hop_path, h.Dataflow.hop_line, h.Dataflow.name))
    chain

let of_violation (v : Rules.violation) =
  {
    rule = v.Rules.rule;
    path = v.Rules.path;
    line = v.Rules.line;
    message = v.Rules.message;
    fingerprint = Printf.sprintf "%s:%s:%d" v.Rules.rule v.Rules.path v.Rules.line;
    related = [];
  }

let of_taint (f : Taint.finding) =
  let d = f.Taint.func in
  {
    rule = Taint.rule;
    path = d.Callgraph.def_path;
    line = d.Callgraph.def_line;
    message = Taint.message f;
    fingerprint =
      Printf.sprintf "taint:%s:%s:%s" d.Callgraph.def_path
        d.Callgraph.display f.Taint.sink;
    related = related_of_chain f.Taint.chain;
  }

(* Effect escapes anchor at the Pool submit site (the actionable line);
   the fingerprint is line-free — effect:path:Function:class — so a
   baselined escape survives unrelated edits and a class change
   (SharedMut -> IO) resurfaces. *)
let of_effect (f : Effects.finding) =
  let d = f.Effects.func in
  {
    rule = Effects.rule;
    path = d.Callgraph.def_path;
    line = f.Effects.submit_line;
    message = Effects.message f;
    fingerprint =
      Printf.sprintf "effect:%s:%s:%s" d.Callgraph.def_path
        d.Callgraph.display
        (Effects.cls_name f.Effects.cls);
    related = related_of_chain f.Effects.chain;
  }

let of_range (f : Ranges.finding) =
  {
    rule = f.Ranges.rule_id;
    path = f.Ranges.path;
    line = f.Ranges.line;
    message = f.Ranges.message;
    fingerprint =
      Printf.sprintf "%s:%s:%d" f.Ranges.rule_id f.Ranges.path f.Ranges.line;
    related = related_of_chain f.Ranges.chain;
  }

(* Partiality fingerprints are line-free — partiality:path:Function:exn
   set — so a baselined boundary survives unrelated edits and a new
   escaping exception resurfaces. *)
let of_partiality (f : Partiality.finding) =
  {
    rule = "partiality";
    path = f.Partiality.path;
    line = f.Partiality.line;
    message = f.Partiality.message;
    fingerprint =
      Printf.sprintf "partiality:%s:%s:%s" f.Partiality.path f.Partiality.func
        (String.concat "+" f.Partiality.exns);
    related = related_of_chain f.Partiality.chain;
  }

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s" f.path f.line f.rule f.message

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)
(* ------------------------------------------------------------------ *)

(* AST rules when the file parses, textual rules otherwise; missing-mli
   either way.  Takes the parse result so a scan parses each file
   exactly once (the shallow rules, the call graph and the AST-walking
   analyses all share it). *)
let lint_parsed ~path ~source parsed =
  let content =
    match parsed with
    | Ok ast ->
        let allowed =
          Rules.allowances
            ~raw_lines:(Rules.lines_of source)
            ~stripped_lines:(Rules.lines_of (Rules.strip source))
        in
        Ast_lint.lint_structure ~path:(Rules.normalize path) ~allowed ast
    | Error _ -> Rules.lint_source ~path source
  in
  List.map of_violation (content @ Rules.missing_mli path)

let lint_file path =
  let source = Rules.read_file path in
  lint_parsed ~path ~source (Ast_lint.parse ~path source)

type scan = {
  findings : finding list;
  skipped : (string * string) list;  (* unparseable files (deep only) *)
}

let expand_path root =
  if Sys.is_directory root then List.rev (Rules.walk root [])
  else [ Rules.normalize root ]

(* [roots] must exist (callers validate).  Each file is read and parsed
   once; the interprocedural layers build one call graph over every
   scanned file, so cross-root calls are still visible.  [deep] implies
   every other layer. *)
let scan ?(deep = false) ?(effects = false) ?(ranges = false)
    ?(partiality = false) roots =
  let effects = effects || deep
  and ranges = ranges || deep
  and partiality = partiality || deep in
  let files = List.concat_map expand_path roots in
  let parsed =
    List.map
      (fun path ->
        let source = Rules.read_file path in
        (path, source, Ast_lint.parse ~path source))
      files
  in
  let shallow =
    List.concat_map (fun (path, source, p) -> lint_parsed ~path ~source p) parsed
  in
  let deep_findings, skipped =
    if not (deep || effects || ranges || partiality) then ([], [])
    else begin
      let cg = Callgraph.create () in
      List.iter
        (fun (path, source, p) -> Callgraph.add_parsed cg ~path ~source p)
        parsed;
      let asts =
        List.filter_map
          (fun (path, _, p) ->
            match p with
            | Ok ast -> Some (Rules.normalize path, ast)
            | Error _ -> None)
          parsed
      in
      let taint = if deep then List.map of_taint (Taint.analyze cg) else [] in
      let escape =
        if effects then List.map of_effect (Effects.escapes cg) else []
      in
      let range =
        if ranges then List.map of_range (Ranges.analyze cg ~asts) else []
      in
      let partial =
        if partiality then
          List.map of_partiality
            (Partiality.findings (Partiality.analyze cg ~asts))
        else []
      in
      (taint @ escape @ range @ partial, Callgraph.skipped cg)
    end
  in
  let findings =
    List.sort
      (fun a b -> compare (a.path, a.line, a.rule) (b.path, b.line, b.rule))
      (shallow @ deep_findings)
  in
  { findings; skipped }

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

let load_baseline path =
  Rules.read_file path |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then None else Some l)

let apply_baseline ~baseline scan =
  let fresh, suppressed =
    List.partition
      (fun f -> not (List.mem f.fingerprint baseline))
      scan.findings
  in
  ({ scan with findings = fresh }, List.length suppressed)

let baseline_lines findings =
  List.map (fun f -> f.fingerprint) findings |> List.sort_uniq compare

(* Baseline entries that matched nothing in [scan] (run on the raw scan,
   before [apply_baseline]).  Interprocedural fingerprints only count as
   stale when their analysis actually ran — a shallow scan can't observe
   taint/effect/range/partiality findings, so their absence proves
   nothing. *)
let stale_baseline ?(deep = false) ?(effects = false) ?(ranges = false)
    ?(partiality = false) ~baseline scan =
  let effects = effects || deep
  and ranges = ranges || deep
  and partiality = partiality || deep in
  let prefixed p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  List.filter
    (fun entry ->
      (not (List.exists (fun f -> f.fingerprint = entry) scan.findings))
      && (deep || not (prefixed "taint:" entry))
      && (effects || not (prefixed "effect:" entry))
      && (ranges || not (prefixed "range-" entry))
      && (partiality || not (prefixed "partiality:" entry)))
    baseline

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
