(* AST-level determinism rules: the only per-file rule engine.

   Each file is parsed with compiler-libs and the rules match on
   longidents and expression shapes, so aliased forms — [Stdlib.(==)],
   [Stdlib.Random.int], [let draw = Random.int] bound to a helper,
   [module R = Random] — fire, and identifiers that merely *contain* a
   needle, comments and string literals cannot.  A file the parser
   rejects is itself a finding ([parse-error]): no rule and no analysis
   can vouch for a file it cannot read. *)

open Parsetree

type parsed = structure

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception exn ->
      let line, text =
        match Location.error_of_exn exn with
        | Some (`Ok { Location.main = { txt; loc }; _ }) ->
            (line_of loc, Format.asprintf "%t" txt)
        | _ -> (lexbuf.lex_curr_p.pos_lnum, Printexc.to_string exn)
      in
      Error
        {
          Rules.path = Rules.normalize path;
          line;
          rule = "parse-error";
          message = String.map (fun c -> if c = '\n' then ' ' else c) text;
        }

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* Flattened path with any [Stdlib.] prefix dropped, so [Stdlib.Random.int]
   and [Random.int] normalize identically. *)
let flat lid =
  match Longident.flatten lid with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | l -> l

let is_random_path = function "Random" :: _ -> true | _ -> false

let is_clock_path = function
  | [ "Unix"; ("gettimeofday" | "time" | "localtime" | "gmtime") ] -> true
  | [ "Sys"; "time" ] -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Rule messages                                                       *)
(* ------------------------------------------------------------------ *)

let msg_random =
  "Random.* outside lib/baselines/, lib/graph/gen.ml and \
   lib/config/random_config.ml breaks determinism of the model (engine.mli: \
   the engine is deterministic given a deterministic protocol)"

let msg_obj_magic = "Obj.magic defeats the type system; banned"

let msg_physical_eq =
  "physical equality (==/!=) on structural data compares identity, not \
   value; use =, <> or a dedicated equal function"

let msg_hashtbl =
  "Hashtbl iteration order is nondeterministic; sort the bindings or use an \
   ordered map in deterministic paths"

let msg_fault_purity =
  "fault plans are pure data: lib/faults/ and lib/sim/fault_plan.ml must \
   not consult ambient randomness or wall-clock time — derive everything \
   from the explicit integer seed (lib/sim/fault_plan.mli)"

let msg_random_alias =
  "aliasing the Random module smuggles a PRNG past the determinism \
   boundary; randomness belongs to the exempt modules only"

let msg_toplevel_state =
  "module-level mutable state (ref/Hashtbl.create at toplevel) is shared by \
   every protocol instance and survives across runs, violating the \
   fresh-spawn purity the model assumes (protocol.mli); allocate inside the \
   function that owns the state"

let msg_catch_all =
  "catch-all exception handler swallows invariant violations \
   (Assert_failure, Invalid_argument) along with the exception it meant to \
   stop; match the specific exceptions expected"

let msg_assert_false =
  "assert false on a protocol path turns a model violation into a crash \
   that faults cannot account for; return an explicit error or make the \
   case unrepresentable"

let msg_poly_compare =
  "polymorphic compare walks representations, not semantics: interner \
   indices, closures and abstract keys order unpredictably (or raise) \
   under bare compare/=/min/max; canonicalization code must use dedicated \
   comparators (Int.compare, List.compare, an explicit equal)"

let msg_domain_primitive =
  "multicore runtime primitives (Domain/Atomic/Mutex/Condition) outside \
   lib/exec/ bypass the pool's determinism contract (in-order commits, \
   barrier merges); submit the work through Radio_exec.Pool instead \
   (docs/PARALLEL.md)"

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

let lint_structure ~path ~allowed ast =
  let seen = Hashtbl.create 32 in
  let violations = ref [] in
  let report ~line ~rule ~message =
    if
      (not (Hashtbl.mem seen (line, rule))) && not (allowed ~line ~rule)
    then begin
      Hashtbl.replace seen (line, rule) ();
      violations := { Rules.path; line; rule; message } :: !violations
    end
  in
  let in_lib = Rules.under_lib path in
  let random_banned = in_lib && not (Rules.random_allowed path) in
  let hot = Rules.deterministic_hot_path path in
  let faults = Rules.in_faults path in
  let boundary = Rules.deterministic_boundary path in
  let canon = Rules.canonical_order_path path in
  let exec = Rules.in_exec path in
  let domain_primitive = function
    | ("Domain" | "Atomic" | "Mutex" | "Condition") :: _ -> true
    | _ -> false
  in
  (* A referenced value identifier. *)
  let check_ident ~line comps =
    if in_lib && (not exec) && domain_primitive comps then
      report ~line ~rule:"domain-safety" ~message:msg_domain_primitive;
    if canon && comps = [ "compare" ] then
      report ~line ~rule:"polymorphic-compare" ~message:msg_poly_compare;
    if random_banned && is_random_path comps then
      report ~line ~rule:"random" ~message:msg_random;
    if in_lib && comps = [ "Obj"; "magic" ] then
      report ~line ~rule:"obj-magic" ~message:msg_obj_magic;
    (match comps with
    | [ ("==" | "!=") ] when in_lib ->
        report ~line ~rule:"physical-equality" ~message:msg_physical_eq
    | _ -> ());
    (match comps with
    | [ "Hashtbl"; ("iter" | "fold") ] when hot ->
        report ~line ~rule:"hashtbl-iteration" ~message:msg_hashtbl
    | _ -> ());
    if faults && (is_random_path comps || is_clock_path comps) then
      report ~line ~rule:"fault-purity" ~message:msg_fault_purity
  in
  let rec is_catch_all pat =
    match pat.ppat_desc with
    | Ppat_any | Ppat_var _ -> true
    | Ppat_alias (p, _) | Ppat_constraint (p, _) -> is_catch_all p
    | _ -> false
  in
  (* Syntactically structured data: an argument shape under which the
     polymorphic primitives definitely recurse through a representation.
     Nullary constructors ([None], [[]], [true]) compare like scalars and
     stay exempt. *)
  let rec structured e =
    match e.pexp_desc with
    | Pexp_constraint (e, _) -> structured e
    | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
    | Pexp_construct (_, Some _) | Pexp_variant (_, Some _) -> true
    | _ -> false
  in
  let poly_primitive comps =
    match comps with [ ("=" | "<>" | "min" | "max") ] -> true | _ -> false
  in
  (* Module-level mutable bindings: shared by every caller of the module.
     (Task closures capturing them are the effect analysis' job now —
     effects.ml checks the whole call graph transitively, not just the
     closure body.) *)
  let rec peel e =
    match e.pexp_desc with Pexp_constraint (e, _) -> peel e | _ -> e
  in
  let binds_mutable vb =
    match (peel vb.pvb_expr).pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
        match flat txt with
        | [ "ref" ] | [ "Hashtbl"; "create" ] -> true
        | _ -> false)
    | _ -> false
  in
  let expr_handler self e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident ~line:(line_of loc) (flat txt)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args)
      when canon && poly_primitive (flat txt)
           && List.exists (fun (_, a) -> structured a) args ->
        report ~line:(line_of loc) ~rule:"polymorphic-compare"
          ~message:msg_poly_compare
    | Pexp_try (_, cases) when boundary ->
        List.iter
          (fun c ->
            if is_catch_all c.pc_lhs && c.pc_guard = None then
              report
                ~line:(line_of c.pc_lhs.ppat_loc)
                ~rule:"catch-all-exception" ~message:msg_catch_all)
          cases
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      when boundary ->
        report ~line:(line_of e.pexp_loc) ~rule:"assert-false"
          ~message:msg_assert_false
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let module_expr_handler self m =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } when is_random_path (flat txt) ->
        let line = line_of loc in
        if random_banned then
          report ~line ~rule:"random" ~message:msg_random_alias;
        if faults then
          report ~line ~rule:"fault-purity" ~message:msg_fault_purity
    | Pmod_ident { txt; loc }
      when in_lib && (not exec) && domain_primitive (flat txt) ->
        (* [module D = Domain] smuggles the primitives past the ident
           check exactly like the Random alias above. *)
        report ~line:(line_of loc) ~rule:"domain-safety"
          ~message:msg_domain_primitive
    | _ -> ());
    Ast_iterator.default_iterator.module_expr self m
  in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr = expr_handler;
      module_expr = module_expr_handler;
    }
  in
  iterator.structure iterator ast;
  (* Module-level mutable state: a toplevel [let] (also inside nested
     [module ... = struct] blocks) binding a fresh ref cell or hash table. *)
  let rec check_items items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) when boundary ->
            List.iter
              (fun vb ->
                if binds_mutable vb then
                  report
                    ~line:(line_of vb.pvb_loc)
                    ~rule:"toplevel-mutable-state"
                    ~message:msg_toplevel_state)
              vbs
        | Pstr_module { pmb_expr; _ } -> check_module_expr pmb_expr
        | Pstr_recmodule mbs ->
            List.iter (fun mb -> check_module_expr mb.pmb_expr) mbs
        | Pstr_include { pincl_mod; _ } -> check_module_expr pincl_mod
        | _ -> ())
      items
  and check_module_expr m =
    match m.pmod_desc with
    | Pmod_structure items -> check_items items
    | Pmod_constraint (m, _) -> check_module_expr m
    | Pmod_functor (_, m) -> check_module_expr m
    | Pmod_apply (f, arg) ->
        (* Functor application: toplevel state inside the argument struct
           ([Make (struct let tbl = Hashtbl.create 16 end)]) is as shared
           as any other module-level binding. *)
        check_module_expr f;
        check_module_expr arg
    | Pmod_apply_unit m -> check_module_expr m
    | _ -> ()
  in
  check_items ast;
  List.sort
    (fun a b -> compare (a.Rules.line, a.Rules.rule) (b.Rules.line, b.Rules.rule))
    !violations

let lint_parsed ~path ~source parsed =
  match parsed with
  | Error v -> [ v ]
  | Ok ast ->
      let raw_lines = Rules.lines_of source in
      let stripped_lines = Rules.lines_of (Rules.strip source) in
      let allowed = Rules.allowances ~raw_lines ~stripped_lines in
      lint_structure ~path:(Rules.normalize path) ~allowed ast

let lint_source ~path source = lint_parsed ~path ~source (parse ~path source)
