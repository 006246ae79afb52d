(* Partiality analysis — which exceptions can escape each function, a
   Backward {!Dataflow} instance over sets of exception constructor names,
   reported where an escape crosses an operational boundary: a CLI entry
   in [bin/] ([*_cmd] / [main]) turns it into a backtrace, and a [Pool]
   task closure ({!Callgraph.task}) re-raises it at the batch join.

   Sources are deliberately narrow: [raise] / [raise_notrace] (a dynamic
   exception value is ["unknown"]), [failwith], [invalid_arg], the partial
   stdlib lookups ([List.hd]/[tl], [Option.get], [Hashtbl.find],
   [List.find]/[assoc], [String.index]/[rindex], [Queue]/[Stack] pops,
   [int_of_string], [float_of_string], [Char.chr]) and the channel openers
   ([open_in*], [open_out*], [In_channel]/[Out_channel] [open_*] and
   [with_open_*] raise [Sys_error]).  Bounds belong to {!Ranges} and
   [Match_failure] to warning 8.  A constructor has one name however it is
   spelled ({!Callgraph.exn_name}).

   Handlers subtract what they catch, line-based, at seeds and on every
   edge: a [try] body and the scrutinee of a [match] with [exception]
   cases.  A catch-all clears the set; a guarded handler subtracts nothing.

   [radiolint: allow partiality] on a definition line is a barrier (the
   binding raises nothing to its callers), on another line it drops what
   that line's references raise, and on a [Pool] submit line it suppresses
   that task finding. *)

open Parsetree
module SS = Set.Make (String)

let rules =
  [
    ( "partiality",
      "exceptions can escape a CLI entry or a Pool task closure unhandled" );
  ]

(* ------------------------------------------------------------------ *)
(* Per-file facts: raise sites and try regions                         *)
(* ------------------------------------------------------------------ *)

type catch = Catch_all | Catch_names of SS.t

type file_facts = {
  regions : (int * int * catch) list;
      (* lexical extent (start line, end line) of each handled
         expression and what its unguarded handlers catch *)
  raise_map : (int, string) Hashtbl.t;  (* line -> exn raised there *)
}

(* What an unguarded handler pattern catches: a set of constructor
   names, or None for a catch-all shape. *)
let rec catch_of_pattern exn_name p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) -> Some (SS.singleton (exn_name txt))
  | Ppat_or (a, b) -> (
      match (catch_of_pattern exn_name a, catch_of_pattern exn_name b) with
      | Some x, Some y -> Some (SS.union x y)
      | _ -> None)
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> catch_of_pattern exn_name p
  | _ -> None

(* What the unguarded handlers among [cases] catch. *)
let catch_of_cases exn_name cases =
  List.fold_left
    (fun acc (p, guard) ->
      match (acc, guard) with
      | Catch_all, _ -> Catch_all
      | _, Some _ -> acc (* a guard may decline: catches nothing *)
      | Catch_names ns, None -> (
          match catch_of_pattern exn_name p with
          | Some more -> Catch_names (SS.union ns more)
          | None -> Catch_all))
    (Catch_names SS.empty) cases

(* [exn_name] gives a constructor its one name (Callgraph.exn_name), so
   a handler naming [C.Invalid_configuration] subtracts what [Config]
   raises as [Invalid_configuration]. *)
let facts_of_ast ~exn_name ast =
  let opens = ref [] in
  let exn_name lid = exn_name ~opens:!opens (Callgraph.flatten lid) in
  let opened (od : open_declaration) =
    match od.popen_expr.pmod_desc with
    | Pmod_ident { txt; _ } -> [ Callgraph.flatten txt ]
    | _ -> []
  in
  let regions = ref [] in
  let raise_map = Hashtbl.create 16 in
  let region body catch =
    regions :=
      ( body.pexp_loc.Location.loc_start.Lexing.pos_lnum,
        body.pexp_loc.Location.loc_end.Lexing.pos_lnum,
        catch )
      :: !regions
  in
  let expr_rule (it : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (Asttypes.Nolabel, arg) :: _)
      when match Callgraph.flatten txt with
           | [ "raise" ] | [ "raise_notrace" ] -> true
           | _ -> false ->
        let name =
          match arg.pexp_desc with
          | Pexp_construct ({ txt; _ }, _) -> exn_name txt
          | _ -> "unknown"
        in
        Hashtbl.add raise_map e.pexp_loc.Location.loc_start.Lexing.pos_lnum name
    | Pexp_try (body, cases) ->
        region body
          (catch_of_cases exn_name
             (List.map (fun (c : case) -> (c.pc_lhs, c.pc_guard)) cases))
    | Pexp_match (scrut, cases) ->
        (* [match e with exception E -> ...] handles E for [e] alone *)
        let handlers =
          List.filter_map
            (fun (c : case) ->
              match c.pc_lhs.ppat_desc with
              | Ppat_exception p -> Some (p, c.pc_guard)
              | _ -> None)
            cases
        in
        if handlers <> [] then region scrut (catch_of_cases exn_name handlers)
    | _ -> ());
    match e.pexp_desc with
    | Pexp_open (od, _) ->
        let saved = !opens in
        opens := opened od @ saved;
        Ast_iterator.default_iterator.expr it e;
        opens := saved
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let structure_item it item =
    (match item.pstr_desc with
    | Pstr_open od -> opens := opened od @ !opens
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it item
  in
  let it =
    { Ast_iterator.default_iterator with expr = expr_rule; structure_item }
  in
  it.structure it ast;
  { regions = !regions; raise_map }

(* Filter [exns] down to what survives at [line]: nothing on a line
   marked [radiolint: allow partiality], else what every enclosing
   handled expression lets through. *)
let surviving cg facts ~path ~line exns =
  if Callgraph.allowed cg ~path ~line ~rule:"partiality" then SS.empty
  else
    List.fold_left
      (fun acc (s, e, catch) ->
        if line >= s && line <= e then
          match catch with
          | Catch_all -> SS.empty
          | Catch_names ns -> SS.diff acc ns
        else acc)
      exns facts.regions

(* ------------------------------------------------------------------ *)
(* Escape sources                                                      *)
(* ------------------------------------------------------------------ *)

let primitive_exn = function
  | [ "failwith" ] | [ "int_of_string" ] | [ "float_of_string" ]
  | [ "List"; ("hd" | "tl") ] ->
      Some "Failure"
  | [ "invalid_arg" ] | [ "Option"; "get" ] | [ "Char"; "chr" ] ->
      Some "Invalid_argument"
  | [ "Hashtbl"; "find" ]
  | [ "List"; ("find" | "assoc") ]
  | [ "String"; ("index" | "rindex") ] ->
      Some "Not_found"
  | [ "Queue"; ("pop" | "take" | "peek" | "top") ] -> Some "Queue.Empty"
  | [ "Stack"; ("pop" | "top") ] -> Some "Stack.Empty"
  | [ f ]
    when String.starts_with ~prefix:"open_in" f
         || String.starts_with ~prefix:"open_out" f ->
      Some "Sys_error"
  | [ ("In_channel" | "Out_channel"); f ]
    when String.starts_with ~prefix:"open_" f
         || String.starts_with ~prefix:"with_open_" f ->
      Some "Sys_error"
  | _ -> None

let is_raise = function [ "raise" ] | [ "raise_notrace" ] -> true | _ -> false

(* What a reference raises by itself: a [raise] site's constructors
   ("unknown" for [raise] passed as a value) or a partial primitive's. *)
let direct_exns facts (r : Callgraph.reference) =
  if is_raise r.target then
    match Hashtbl.find_all facts.raise_map r.ref_line with
    | [] -> SS.singleton "unknown"
    | names -> SS.of_list names
  else
    match primitive_exn r.target with
    | Some e -> SS.singleton e
    | None -> SS.empty

(* ------------------------------------------------------------------ *)
(* The backward fixpoint                                               *)
(* ------------------------------------------------------------------ *)

module Df = Dataflow.Make (struct
  type t = SS.t

  let bottom = SS.empty
  let equal = SS.equal
  let join = SS.union
  let widen _ joined = joined (* finite lattice: no widening needed *)
end)

type finding = {
  path : string;
  line : int;
  func : string;  (* display name of the entry / submitting binding *)
  kind : [ `Entry | `Task ];
  exns : string list;  (* sorted *)
  message : string;
  chain : Dataflow.hop list;
}

type result = {
  cg : Callgraph.t;
  res : Df.result;
  facts : (string, file_facts) Hashtbl.t;
}

let facts_in facts path =
  match Hashtbl.find_opt facts path with
  | Some f -> f
  | None -> { regions = []; raise_map = Hashtbl.create 1 }

let analyze cg ~asts =
  let facts = Hashtbl.create 32 in
  List.iter
    (fun (path, ast) ->
      let path = Rules.normalize path in
      let top = Callgraph.module_name_of_path path in
      Hashtbl.replace facts path
        (facts_of_ast ~exn_name:(Callgraph.exn_name cg ~top) ast))
    asts;
  let barrier d = Callgraph.allowed_def cg d ~rule:"partiality" in
  let seeds ~top:_ (d : Callgraph.def) =
    let file = facts_in facts d.def_path in
    List.filter_map
      (fun (r : Callgraph.reference) ->
        let exns =
          surviving cg file ~path:d.def_path ~line:r.ref_line
            (direct_exns file r)
        in
        if SS.is_empty exns then None
        else
          let blame =
            if is_raise r.target then
              "raise " ^ String.concat "+" (SS.elements exns)
            else String.concat "." r.target
          in
          Some (exns, blame, r.ref_line))
      d.refs
  in
  let flow ~src:_ ~dst:(d : Callgraph.def) ~line v =
    surviving cg (facts_in facts d.def_path) ~path:d.def_path ~line v
  in
  { cg; res = Df.solve ~barrier ~seeds ~flow cg; facts }

(* Exceptions a single reference injects at its site (before handler
   filtering): a raise, a partial primitive, or a scanned callee's own
   escape set. *)
let ref_exns t ~top file (r : Callgraph.reference) =
  if is_raise r.target || primitive_exn r.target <> None then
    direct_exns file r
  else
    match Callgraph.resolve t.cg ~top r.target with
    | Some key -> Df.value t.res key
    | None -> SS.empty

let is_entry (d : Callgraph.def) =
  String.starts_with ~prefix:"bin/" d.def_path
  && (String.ends_with ~suffix:"_cmd" d.key
     || String.ends_with ~suffix:".main" d.key)

let findings t =
  let finding (d : Callgraph.def) ~line ~kind exns ~what ~why witness =
    let exns = SS.elements exns in
    {
      path = d.def_path;
      line;
      func = d.display;
      kind;
      exns;
      message =
        Printf.sprintf "%s %s can raise: %s — %s" what d.display
          (String.concat ", " exns) why;
      chain = (match witness with Some w -> fst (Df.chain t.res w) | None -> []);
    }
  in
  let of_def (d : Callgraph.def) =
    (* CLI entries: the binding's own escape set *)
    let entry =
      let exns = Df.value t.res d.key in
      if is_entry d && not (SS.is_empty exns) then
        [
          finding d ~line:d.def_line ~kind:`Entry exns ~what:"CLI entry"
            ~why:"convert to a diagnostic exit or handle at the boundary"
            (Some d);
        ]
      else []
    in
    (* Pool task closures: what the closure's references inject *)
    let top = Callgraph.module_name_of_path d.def_path in
    let file = facts_in t.facts d.def_path in
    let task (task : Callgraph.task) =
      let witness = ref None in
      let exns =
        List.fold_left
          (fun acc (r : Callgraph.reference) ->
            let e =
              surviving t.cg file ~path:d.def_path ~line:r.ref_line
                (ref_exns t ~top file r)
            in
            if (not (SS.is_empty e)) && !witness = None then
              witness :=
                Option.bind (Callgraph.resolve t.cg ~top r.target)
                  (Callgraph.find t.cg);
            SS.union acc e)
          SS.empty task.task_refs
      in
      if
        SS.is_empty exns
        || Callgraph.allowed t.cg ~path:d.def_path ~line:task.submit_line
             ~rule:"partiality"
      then None
      else
        Some
          (finding d ~line:task.submit_line ~kind:`Task exns
             ~what:"Pool task submitted by"
             ~why:
               "an exception escaping a worker closure surfaces at the batch \
                join, far from its cause"
             !witness)
    in
    entry @ List.filter_map task d.tasks
  in
  List.concat_map of_def (Callgraph.defs t.cg)
  |> List.sort (fun a b ->
         compare (a.path, a.line, a.func) (b.path, b.line, b.func))
