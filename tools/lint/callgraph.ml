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
   drops a real one.  A path through a module alias ([module Can =
   Election.Canonical], toplevel or [let module]) is recorded expanded
   ([Election.Canonical.raw_key]), and {!resolve} maps paths to nodes.

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
  mutable sites : (string * int) list;  (* every merged definition *)
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
  aliases : (string, string list) Hashtbl.t;  (* "Top.X" -> A.B *)
  exns : (string, string list option) Hashtbl.t;
      (* "Top.E" -> None, or Some A.F for [exception E = A.F] *)
}

let create () =
  {
    defs = Hashtbl.create 64;
    modules = Hashtbl.create 16;
    mutables = Hashtbl.create 16;
    allow = Hashtbl.create 16;
    aliases = Hashtbl.create 16;
    exns = Hashtbl.create 16;
  }

let module_name_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

(* A qualified path through the module aliases of [top]; an alias names
   one module throughout its file, and a bare name is never one. *)
let expand t ~top comps =
  let rec go fuel = function
    | x :: (_ :: _ as rest) as comps when fuel > 0 -> (
        match Hashtbl.find_opt t.aliases (top ^ "." ^ x) with
        | Some target -> go (fuel - 1) (target @ rest)
        | None -> comps)
    | comps -> comps
  in
  go 8 comps

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
let rec extract ~expand ~opens e =
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
        let expanded = expand target in
        refs := { target = expanded; ref_line = line } :: !refs;
        (* an alias of this file shadows what opens could name *)
        if expanded = target then
          List.iter
            (fun m ->
              refs := { target = expand (m @ target); ref_line = line } :: !refs)
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
      when pool_submit (expand (flat txt)) ->
        List.iter
          (fun (lbl, a) ->
            match lbl with
            | Asttypes.Labelled "f" ->
                let sub = extract ~expand ~opens:!cur_opens a in
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

(* [module X = A.B] or [let module X = A.B in]: X stands for A.B. *)
let note_alias t ~top name m =
  match (name, m.pmod_desc) with
  | Some x, Pmod_ident { txt; _ } ->
      Hashtbl.replace t.aliases (top ^ "." ^ x) (flat txt)
  | _ -> ()

let add_def t ~top ~subpath ~name ~path ~line ~x =
  let key = top ^ "." ^ name in
  let display = String.concat "." ((top :: subpath) @ [ name ]) in
  match Hashtbl.find_opt t.defs key with
  | Some d ->
      (* Same unqualified name defined twice under one top module (e.g. in
         two submodules): merge the edges — an over-approximation that
         keeps the analysis sound — and keep both sites, so an allow
         barrier must sit on each ({!allowed_def}). *)
      d.sites <- d.sites @ [ (path, line) ];
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
          sites = [ (path, line) ];
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
              collect_let_modules t ~top ~subpath ~path ~opens:!opens
                vb.pvb_expr;
              let x = extract ~expand:(expand t ~top) ~opens:!opens vb.pvb_expr in
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
          collect_let_modules t ~top ~subpath ~path ~opens:!opens e;
          let x = extract ~expand:(expand t ~top) ~opens:!opens e in
          if x.x_refs <> [] then
            add_def t ~top ~subpath ~name:"(init)" ~path
              ~line:item.pstr_loc.loc_start.Lexing.pos_lnum ~x
      | Pstr_module { pmb_name = { txt; _ }; pmb_expr; _ } ->
          note_alias t ~top txt pmb_expr;
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
      | Pstr_exception { ptyexn_constructor = { pext_name; pext_kind; _ }; _ }
        ->
          Hashtbl.replace t.exns
            (top ^ "." ^ pext_name.txt)
            (match pext_kind with
            | Pext_rebind { txt; _ } -> Some (flat txt)
            | Pext_decl _ -> None)
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
      note_alias t ~top name m;
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

let allowed_def t (d : def) ~rule =
  List.for_all (fun (path, line) -> allowed t ~path ~line ~rule) d.sites

(* The key a path made inside [top] names, after the file's aliases: [f]
   alone within [top]; [...; M; ...; f] through the first component naming
   a scanned module ([Engine.run], [Radio_sim.Engine.run]). *)
let qualify t ~top comps =
  match List.rev (expand t ~top comps) with
  | [ f ] -> Some (top ^ "." ^ f)
  | f :: rev_modules ->
      List.find_opt (has_module t) (List.rev rev_modules)
      |> Option.map (fun m -> m ^ "." ^ f)
  | [] -> None

let resolve t ~top comps =
  match qualify t ~top comps with
  | Some key when find t key <> None -> Some key
  | _ -> None

let exn_name t ~top ~opens comps =
  let declared top comps =
    Option.bind (qualify t ~top comps) (fun key ->
        Option.map (fun target -> (key, target)) (Hashtbl.find_opt t.exns key))
  in
  let rec go fuel top comps =
    match declared top comps with
    | Some (key, Some target) when fuel > 0 ->
        go (fuel - 1) (List.hd (String.split_on_char '.' key)) target
    | Some (key, _) -> key
    | None -> String.concat "." (expand t ~top comps)
  in
  match List.find_opt (fun m -> declared top (m @ comps) <> None) opens with
  | Some m -> go 8 top (m @ comps)
  | None -> go 8 top comps

let flatten lid = flat lid
