(* Per-module call graph over parsed sources, for the taint and effect
   analyses.

   Nodes are toplevel value bindings (including bindings inside nested
   [module ... = struct] blocks, keyed under their top module so that
   [Trace.Acc.wake] and a caller's [Trace.Acc.wake] reference meet).  Edges
   are the longidents referenced from each binding's body, recorded with
   their call-site line.  References made under [let open M in ...] /
   [M.(...)] / a toplevel [open M] are additionally recorded with the
   opened module prefixed ([shuffle] under [open Util] also yields
   [Util.shuffle]) — an over-approximation that may add edges but never
   drops a real one.  Resolution of references to nodes happens in
   taint.ml — this module only extracts the raw shape.

   Beyond plain edges, three extra facts feed the effect analysis
   (effects.ml): which toplevel bindings allocate mutable state
   ([mutables]), where each binding mutates a record field
   ([setfield_lines] — [r.f <- v] is the one mutation the parser does not
   desugar to an identifier application), and which references occur
   inside a [~f] closure handed to a [Radio_exec.Pool] submit entry point
   ([tasks] — those closures run on worker domains). *)

open Parsetree

type reference = { target : string list; ref_line : int }

type task = { submit_line : int; task_refs : reference list }

type def = {
  key : string;  (* "Module.name" — top module + unqualified binding name *)
  display : string;  (* full dotted path, e.g. "Trace.Acc.wake" *)
  def_path : string;
  def_line : int;
  mutable refs : reference list;
  mutable setfield_lines : int list;  (* [r.f <- v] mutation sites *)
  mutable tasks : task list;  (* Pool task closures submitted in the body *)
}

type t = {
  defs : (string, def) Hashtbl.t;
  modules : (string, string) Hashtbl.t;  (* top module name -> file path *)
  mutables : (string, unit) Hashtbl.t;
      (* keys of module-level mutable bindings (ref / Hashtbl.create ...) *)
  allow : (string, line:int -> rule:string -> bool) Hashtbl.t;
}

let create () =
  {
    defs = Hashtbl.create 64;
    modules = Hashtbl.create 16;
    mutables = Hashtbl.create 16;
    allow = Hashtbl.create 16;
  }

let module_name_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let flat lid =
  match Longident.flatten lid with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | l -> l

(* The opened path of [open M] / [let open M.N in ...] when the module
   expression is a plain ident; functor applications and unpacks
   contribute no opened-name variants. *)
let opened_path m =
  match m.pmod_desc with Pmod_ident { txt; _ } -> Some (flat txt) | _ -> None

(* [Pool.<submit>] entry points whose [~f] argument runs on worker
   domains ([~commit] and [~merge] run on the caller by contract). *)
let pool_submit comps =
  match List.rev comps with
  | fn :: "Pool" :: _ ->
      List.mem fn
        [
          "run_batch"; "map"; "map_array"; "map_reduce"; "iter_batches";
          "map_chunked";
        ]
  | _ -> false

(* Every variable a binding pattern introduces, with its line. *)
let rec vars_of_pattern p =
  match p.ppat_desc with
  | Ppat_var { txt; loc } -> [ (txt, loc.loc_start.Lexing.pos_lnum) ]
  | Ppat_alias (inner, { txt; loc }) ->
      (txt, loc.loc_start.Lexing.pos_lnum) :: vars_of_pattern inner
  | Ppat_tuple ps -> List.concat_map vars_of_pattern ps
  | Ppat_constraint (p, _) | Ppat_open (_, p) | Ppat_lazy p
  | Ppat_exception p ->
      vars_of_pattern p
  | Ppat_construct (_, Some (_, p)) -> vars_of_pattern p
  | Ppat_variant (_, Some p) -> vars_of_pattern p
  | Ppat_record (fields, _) ->
      List.concat_map (fun (_, p) -> vars_of_pattern p) fields
  | Ppat_array ps -> List.concat_map vars_of_pattern ps
  | Ppat_or (a, b) -> vars_of_pattern a @ vars_of_pattern b
  | _ -> []

let pattern_names p = List.map fst (vars_of_pattern p)

type extraction = {
  x_refs : reference list;
  x_setfields : int list;
  x_tasks : task list;
}

(* One pass over a binding body: every referenced longident (with
   opened-module variants), every record-field mutation, and the
   references made inside each Pool task closure.  [opens] is the stack
   of opened module paths in scope; [Pexp_open] pushes onto it for the
   duration of its body.

   Bare (single-component) identifiers are resolved lexically: a name
   bound by an enclosing [fun], [let], [match]/[try]/[function] case or
   [for] index is a local value, not a reference to the same-named
   toplevel binding — recording it would fabricate an edge (e.g. a local
   [let run = classify config] inside a body aliasing [Module.run]).
   Qualified references are never scoped out. *)
let rec extract ~opens e =
  let refs = ref [] in
  let sets = ref [] in
  let tasks = ref [] in
  let cur_opens = ref opens in
  let scope = ref [] in
  let in_scope x = List.exists (List.mem x) !scope in
  let add_ref txt (loc : Location.t) =
    let line = loc.loc_start.Lexing.pos_lnum in
    let target = flat txt in
    match target with
    | [ x ] when in_scope x -> ()
    | _ ->
        refs := { target; ref_line = line } :: !refs;
        List.iter
          (fun m -> refs := { target = m @ target; ref_line = line } :: !refs)
          !cur_opens
  in
  let rec expr self e =
    let with_frame names k =
      scope := names :: !scope;
      k ();
      scope := List.tl !scope
    in
    let case (c : case) =
      with_frame (pattern_names c.pc_lhs) (fun () ->
          Option.iter (expr self) c.pc_guard;
          expr self c.pc_rhs)
    in
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> add_ref txt loc
    | Pexp_fun (_, default, pat, body) ->
        Option.iter (expr self) default;
        with_frame (pattern_names pat) (fun () -> expr self body)
    | Pexp_function cases -> List.iter case cases
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        expr self scrut;
        List.iter case cases
    | Pexp_let (rf, vbs, body) ->
        let bound = List.concat_map (fun vb -> pattern_names vb.pvb_pat) vbs in
        let bodies () = List.iter (fun vb -> expr self vb.pvb_expr) vbs in
        (match rf with
        | Asttypes.Recursive -> with_frame bound bodies
        | Asttypes.Nonrecursive -> bodies ());
        with_frame bound (fun () -> expr self body)
    | Pexp_for (pat, e1, e2, _, body) ->
        expr self e1;
        expr self e2;
        with_frame (pattern_names pat) (fun () -> expr self body)
    | Pexp_setfield (lhs, _, rhs) ->
        sets := e.pexp_loc.loc_start.Lexing.pos_lnum :: !sets;
        expr self lhs;
        expr self rhs
    | Pexp_open (od, body) -> (
        match opened_path od.popen_expr with
        | Some m ->
            let saved = !cur_opens in
            cur_opens := m :: saved;
            expr self body;
            cur_opens := saved
        | None -> Ast_iterator.default_iterator.expr self e)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args)
      when pool_submit (flat txt) ->
        List.iter
          (fun (lbl, a) ->
            match lbl with
            | Asttypes.Labelled "f" ->
                let sub = extract ~opens:!cur_opens a in
                tasks :=
                  {
                    submit_line = loc.loc_start.Lexing.pos_lnum;
                    task_refs = sub.x_refs;
                  }
                  :: !tasks
            | _ -> ())
          args;
        Ast_iterator.default_iterator.expr self e
    | _ -> Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  { x_refs = List.rev !refs; x_setfields = List.rev !sets;
    x_tasks = List.rev !tasks }

(* [let module M = ... in ...] occurrences in a binding's body.  The
   returned module expressions are indexed separately (their bindings
   become call-graph nodes); the iterator recurses only into the [in]
   body, so a nested struct is collected exactly once. *)
let let_modules_of_expr e =
  let acc = ref [] in
  let expr self e =
    match e.pexp_desc with
    | Pexp_letmodule ({ txt; _ }, m, body) ->
        acc := (txt, m) :: !acc;
        self.Ast_iterator.expr self body
    | _ -> Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  List.rev !acc

(* A binding whose body allocates mutable state at module level: shared
   by every caller of the module (and, through a pool task, by every
   worker domain at once). *)
let rec peel e =
  match e.pexp_desc with Pexp_constraint (e, _) -> peel e | _ -> e

let binds_mutable vb =
  match (peel vb.pvb_expr).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match flat txt with
      | [ "ref" ]
      | [ ("Hashtbl" | "Buffer" | "Queue" | "Stack"); "create" ] ->
          true
      | _ -> false)
  | _ -> false

let add_def t ~top ~subpath ~name ~path ~line ~x =
  let key = top ^ "." ^ name in
  let display = String.concat "." ((top :: subpath) @ [ name ]) in
  match Hashtbl.find_opt t.defs key with
  | Some d ->
      (* Same unqualified name defined twice under one top module (e.g. in
         two submodules): merge the edges — an over-approximation that
         keeps the analysis sound. *)
      d.refs <- d.refs @ x.x_refs;
      d.setfield_lines <- d.setfield_lines @ x.x_setfields;
      d.tasks <- d.tasks @ x.x_tasks
  | None ->
      Hashtbl.replace t.defs key
        {
          key;
          display;
          def_path = path;
          def_line = line;
          refs = x.x_refs;
          setfield_lines = x.x_setfields;
          tasks = x.x_tasks;
        }

let rec collect_items t ~top ~subpath ~path ~opens items =
  let opens = ref opens in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_open od -> (
          match opened_path od.popen_expr with
          | Some m -> opens := m :: !opens
          | None -> ())
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let x = extract ~opens:!opens vb.pvb_expr in
              collect_let_modules t ~top ~subpath ~path ~opens:!opens
                vb.pvb_expr;
              match vars_of_pattern vb.pvb_pat with
              | [] ->
                  (* [let () = ...] and friends: module initialization code
                     still references things — keep it as a synthetic
                     node so taint through it is not lost. *)
                  if x.x_refs <> [] then
                    add_def t ~top ~subpath ~name:"(init)" ~path
                      ~line:vb.pvb_loc.loc_start.Lexing.pos_lnum ~x
              | vars ->
                  let mutable_binding = binds_mutable vb in
                  List.iter
                    (fun (name, line) ->
                      if mutable_binding then
                        Hashtbl.replace t.mutables (top ^ "." ^ name) ();
                      add_def t ~top ~subpath ~name ~path ~line ~x)
                    vars)
            vbs
      | Pstr_eval (e, _) ->
          let x = extract ~opens:!opens e in
          collect_let_modules t ~top ~subpath ~path ~opens:!opens e;
          if x.x_refs <> [] then
            add_def t ~top ~subpath ~name:"(init)" ~path
              ~line:item.pstr_loc.loc_start.Lexing.pos_lnum ~x
      | Pstr_module { pmb_name = { txt; _ }; pmb_expr; _ } ->
          let sub = match txt with Some s -> [ s ] | None -> [] in
          collect_module t ~top ~subpath:(subpath @ sub) ~path ~opens:!opens
            pmb_expr
      | Pstr_recmodule mbs ->
          List.iter
            (fun mb ->
              let sub =
                match mb.pmb_name.txt with Some s -> [ s ] | None -> []
              in
              collect_module t ~top ~subpath:(subpath @ sub) ~path
                ~opens:!opens mb.pmb_expr)
            mbs
      | Pstr_include { pincl_mod; _ } ->
          collect_module t ~top ~subpath ~path ~opens:!opens pincl_mod
      | _ -> ())
    items

and collect_module t ~top ~subpath ~path ~opens m =
  match m.pmod_desc with
  | Pmod_structure items -> collect_items t ~top ~subpath ~path ~opens items
  | Pmod_constraint (m, _) -> collect_module t ~top ~subpath ~path ~opens m
  | Pmod_functor (_, m) -> collect_module t ~top ~subpath ~path ~opens m
  | Pmod_apply (f, arg) ->
      (* Functor application: bindings in the argument struct
         ([module M = Make (struct let gen () = ... end)]) are real
         definitions the taint analysis must see. *)
      collect_module t ~top ~subpath ~path ~opens f;
      collect_module t ~top ~subpath ~path ~opens arg
  | Pmod_apply_unit m -> collect_module t ~top ~subpath ~path ~opens m
  | _ -> ()

and collect_let_modules t ~top ~subpath ~path ~opens e =
  List.iter
    (fun (name, m) ->
      let sub = match name with Some s -> [ s ] | None -> [] in
      collect_module t ~top ~subpath:(subpath @ sub) ~path ~opens m)
    (let_modules_of_expr e)

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

(* Index one file from an already-parsed AST (the driver's parse-once
   cache feeds every deep pass from the same [Parsetree]). *)
let add_parsed t ~path ~source ast =
  let path = Rules.normalize path in
  let top = module_name_of_path path in
  Hashtbl.replace t.modules top path;
  let raw_lines = Rules.lines_of source in
  let stripped_lines = Rules.lines_of (Rules.strip source) in
  Hashtbl.replace t.allow path (Rules.allowances ~raw_lines ~stripped_lines);
  collect_items t ~top ~subpath:[] ~path ~opens:[] ast

let of_sources sources =
  let t = create () in
  List.iter
    (fun (path, source) ->
      match Ast_lint.parse ~path source with
      | Ok ast -> add_parsed t ~path ~source ast
      | Error v -> invalid_arg (v.Rules.path ^ ": " ^ v.Rules.message))
    sources;
  t

let defs t = Hashtbl.fold (fun _ d acc -> d :: acc) t.defs []
let find t key = Hashtbl.find_opt t.defs key
let has_module t name = Hashtbl.mem t.modules name
let is_mutable t key = Hashtbl.mem t.mutables key

let allowed t ~path ~line ~rule =
  match Hashtbl.find_opt t.allow path with
  | Some f -> f ~line ~rule
  | None -> false

(* Resolve a flattened reference made inside [top] to a call-graph key.
   [f] alone resolves within the same top module; [...; M; ...; f]
   resolves through the first component naming a scanned module, which
   handles both direct ([Engine.run]) and library-wrapped
   ([Radio_sim.Engine.run]) paths.  Shared by every dataflow client. *)
let resolve t ~top comps =
  match comps with
  | [ f ] ->
      let key = top ^ "." ^ f in
      if find t key <> None then Some key else None
  | _ :: _ -> (
      let f = List.nth comps (List.length comps - 1) in
      let modules = List.filteri (fun i _ -> i < List.length comps - 1) comps in
      match List.find_opt (has_module t) modules with
      | Some m ->
          let key = m ^ "." ^ f in
          if find t key <> None then Some key else None
      | None -> None)
  | [] -> None

let flatten lid = flat lid
