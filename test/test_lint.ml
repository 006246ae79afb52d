(* Tests for the two-layer analysis subsystem:

   - Radiolint_core.Ast_lint: the per-file determinism rules (comment and
     string awareness, allow annotations, per-rule positives and
     negatives, aliased forms, unparseable files);
   - Radiolint_core.{Callgraph,Taint,Effects,Ranges,Partiality,Sarif,
     Driver}: the interprocedural analyses with witness chains, the scan,
     and the SARIF 2.1.0 writer;
   - Radio_lint.{Invariants,Purity}: the model-conformance checker, fed both
     clean executions (must accept) and deliberately broken protocols or
     corrupted outcomes (must flag). *)

module Rules = Radiolint_core.Rules
module Ast_lint = Radiolint_core.Ast_lint
module Callgraph = Radiolint_core.Callgraph
module Taint = Radiolint_core.Taint
module Effects = Radiolint_core.Effects
module Ranges = Radiolint_core.Ranges
module Partiality = Radiolint_core.Partiality
module Driver = Radiolint_core.Driver
module G = Radio_graph.Graph
module C = Radio_config.Config
module H = Radio_drip.History
module P = Radio_drip.Protocol
module Engine = Radio_sim.Engine
module Trace = Radio_sim.Trace
module Report = Radio_lint.Report
module Invariants = Radio_lint.Invariants
module Purity = Radio_lint.Purity

(* ------------------------------------------------------------------ *)
(* Layer 2: source rules                                               *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let rules_of vs = List.map (fun v -> v.Rules.rule) vs

(* A clean verdict on a fixture that does not parse would be vacuous. *)
let flags rule ~path source =
  let fired = rules_of (Ast_lint.lint_source ~path source) in
  if List.mem "parse-error" fired then
    Alcotest.failf "fixture should parse: %s" source;
  List.mem rule fired

let check_flags rule ~path source () =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires in %s" rule path)
    true (flags rule ~path source)

let check_clean rule ~path source () =
  Alcotest.(check bool)
    (Printf.sprintf "%s silent in %s" rule path)
    false (flags rule ~path source)

let random_tests =
  [
    Alcotest.test_case "Random.* flagged in lib/core" `Quick
      (check_flags "random" ~path:"lib/core/foo.ml"
         "let x = Random.int 10\n");
    Alcotest.test_case "Stdlib.Random flagged too" `Quick
      (check_flags "random" ~path:"lib/sim/foo.ml"
         "let x = Stdlib.Random.bits ()\n");
    Alcotest.test_case "allowed in lib/baselines" `Quick
      (check_clean "random" ~path:"lib/baselines/foo.ml"
         "let x = Random.int 10\n");
    Alcotest.test_case "allowed in lib/graph/gen.ml" `Quick
      (check_clean "random" ~path:"lib/graph/gen.ml"
         "let x = Random.int 10\n");
    Alcotest.test_case "allowed in lib/config/random_config.ml" `Quick
      (check_clean "random" ~path:"lib/config/random_config.ml"
         "let x = Random.int 10\n");
    Alcotest.test_case "identifier prefix does not fire" `Quick
      (check_clean "random" ~path:"lib/core/foo.ml"
         "let y = MyRandom.int 10\n");
    Alcotest.test_case "comment mention does not fire" `Quick
      (check_clean "random" ~path:"lib/core/foo.ml"
         "(* uses Random.int internally *)\nlet x = 1\n");
    Alcotest.test_case "string mention does not fire" `Quick
      (check_clean "random" ~path:"lib/core/foo.ml"
         "let s = \"Random.int\"\n");
    Alcotest.test_case "same-line allow suppresses" `Quick
      (check_clean "random" ~path:"lib/core/foo.ml"
         "let x = Random.int 10 (* radiolint: allow random — seeded *)\n");
    Alcotest.test_case "preceding-line allow suppresses" `Quick
      (check_clean "random" ~path:"lib/core/foo.ml"
         "(* radiolint: allow random — seeded by caller *)\n\
          let x = Random.int 10\n");
    Alcotest.test_case "multi-line allow comment suppresses" `Quick
      (check_clean "random" ~path:"lib/core/foo.ml"
         "(* radiolint: allow random — a justification that wraps\n\
         \   across two comment lines *)\n\
          let x = Random.int 10\n");
    Alcotest.test_case "allow for another rule does not suppress" `Quick
      (check_flags "random" ~path:"lib/core/foo.ml"
         "(* radiolint: allow obj-magic *)\nlet x = Random.int 10\n");
  ]

let obj_magic_tests =
  [
    Alcotest.test_case "Obj.magic flagged" `Quick
      (check_flags "obj-magic" ~path:"lib/analysis/foo.ml"
         "let cast = Obj.magic x\n");
    Alcotest.test_case "comment mention clean" `Quick
      (check_clean "obj-magic" ~path:"lib/analysis/foo.ml"
         "(* never use Obj.magic *)\nlet x = 1\n");
  ]

let physical_eq_tests =
  [
    Alcotest.test_case "== flagged" `Quick
      (check_flags "physical-equality" ~path:"lib/core/foo.ml"
         "let b = a == b\n");
    Alcotest.test_case "!= flagged" `Quick
      (check_flags "physical-equality" ~path:"lib/core/foo.ml"
         "let b = a != b\n");
    Alcotest.test_case "structural = clean" `Quick
      (check_clean "physical-equality" ~path:"lib/core/foo.ml"
         "let b = a = b && c <> d && x <= y && x >= y\n");
    Alcotest.test_case "string literal clean" `Quick
      (check_clean "physical-equality" ~path:"lib/core/foo.ml"
         "let s = \"a == b\"\n");
    Alcotest.test_case "allow suppresses" `Quick
      (check_clean "physical-equality" ~path:"lib/core/foo.ml"
         "let b = a == b (* radiolint: allow physical-equality *)\n");
  ]

let hashtbl_tests =
  [
    Alcotest.test_case "Hashtbl.iter flagged in lib/sim" `Quick
      (check_flags "hashtbl-iteration" ~path:"lib/sim/foo.ml"
         "let () = Hashtbl.iter f tbl\n");
    Alcotest.test_case "Hashtbl.fold flagged in lib/drip" `Quick
      (check_flags "hashtbl-iteration" ~path:"lib/drip/foo.ml"
         "let x = Hashtbl.fold f tbl []\n");
    Alcotest.test_case "Hashtbl.replace clean" `Quick
      (check_clean "hashtbl-iteration" ~path:"lib/core/foo.ml"
         "let () = Hashtbl.replace tbl k v\n");
    Alcotest.test_case "iteration outside hot paths clean" `Quick
      (check_clean "hashtbl-iteration" ~path:"lib/analysis/foo.ml"
         "let () = Hashtbl.iter f tbl\n");
    Alcotest.test_case "allow suppresses" `Quick
      (check_clean "hashtbl-iteration" ~path:"lib/sim/foo.ml"
         "(* radiolint: allow hashtbl-iteration — result sorted *)\n\
          let x = List.sort compare (Hashtbl.fold f tbl [])\n");
  ]

let fault_purity_tests =
  [
    Alcotest.test_case "wall-clock flagged in lib/faults" `Quick
      (check_flags "fault-purity" ~path:"lib/faults/fault_plan.ml"
         "let now = Unix.gettimeofday ()\n");
    Alcotest.test_case "Sys.time flagged in lib/faults" `Quick
      (check_flags "fault-purity" ~path:"lib/faults/resilience.ml"
         "let t0 = Sys.time ()\n");
    Alcotest.test_case "ambient randomness flagged in lib/faults" `Quick
      (check_flags "fault-purity" ~path:"lib/faults/supervisor.ml"
         "let () = Random.self_init ()\n");
    Alcotest.test_case "wall-clock flagged in lib/sim/fault_plan.ml" `Quick
      (check_flags "fault-purity" ~path:"lib/sim/fault_plan.ml"
         "let now = Unix.gettimeofday ()\n");
    Alcotest.test_case "rest of lib/sim outside fault-purity" `Quick
      (check_clean "fault-purity" ~path:"lib/sim/trace.ml"
         "let now = Unix.gettimeofday ()\n");
    Alcotest.test_case "same source clean outside lib/faults" `Quick
      (check_clean "fault-purity" ~path:"lib/analysis/foo.ml"
         "let now = Unix.gettimeofday ()\n");
    Alcotest.test_case "comment mention clean" `Quick
      (check_clean "fault-purity" ~path:"lib/faults/fault_plan.ml"
         "(* never Unix.gettimeofday here *)\nlet x = 1\n");
    Alcotest.test_case "allow suppresses" `Quick
      (check_clean "fault-purity" ~path:"lib/faults/fault_plan.ml"
         "(* radiolint: allow fault-purity — diagnostics only *)\n\
          let now = Unix.gettimeofday ()\n");
  ]

let with_temp_tree f =
  let dir = Filename.temp_file "radiolint" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let lib = Filename.concat dir "lib" in
  Unix.mkdir lib 0o755;
  let core = Filename.concat lib "core" in
  Unix.mkdir core 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      rm dir)
    (fun () -> f ~dir ~core)

let write path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let scan_rules dir = List.map (fun f -> f.Driver.rule) (Driver.scan [ dir ])

(* The per-file rules: everything the scan reports except the
   interprocedural analyses' findings. *)
let per_file_rules =
  let interprocedural =
    "taint" :: "effect" :: List.map fst (Ranges.rules @ Partiality.rules)
  in
  List.filter
    (fun r -> not (List.mem r interprocedural))
    (List.map fst Driver.rule_descriptions)

let missing_mli_tests =
  [
    Alcotest.test_case "ml without mli flagged" `Quick (fun () ->
        with_temp_tree (fun ~dir ~core ->
            write (Filename.concat core "a.ml") "let x = 1\n";
            Alcotest.(check bool) "missing-mli fires" true
              (List.mem "missing-mli" (scan_rules dir))));
    Alcotest.test_case "ml with mli clean" `Quick (fun () ->
        with_temp_tree (fun ~dir ~core ->
            write (Filename.concat core "a.ml") "let x = 1\n";
            write (Filename.concat core "a.mli") "val x : int\n";
            Alcotest.(check (list string)) "clean" [] (scan_rules dir)));
    Alcotest.test_case "seeded tree trips every rule" `Quick (fun () ->
        with_temp_tree (fun ~dir ~core ->
            write
              (Filename.concat core "bad.ml")
              "let a = Random.int 2\n\
               let b = Obj.magic a\n\
               let c = a == b\n\
               let d = Hashtbl.iter (fun _ _ -> ()) tbl\n\
               let e = ref 0\n\
               let f x = try g x with _ -> 0\n\
               let h = function Some x -> x | None -> assert false\n\
               let i = compare a b\n\
               let j = Domain.spawn work\n";
            write (Filename.concat core "broken.ml") "let = 1\n";
            let faults = Filename.concat (Filename.dirname core) "faults" in
            Unix.mkdir faults 0o755;
            write
              (Filename.concat faults "bad.ml")
              "let now = Unix.gettimeofday ()\n";
            write (Filename.concat faults "bad.mli") "val now : float\n";
            let fired =
              List.filter
                (fun r -> List.mem r per_file_rules)
                (List.sort_uniq compare (scan_rules dir))
            in
            Alcotest.(check (list string))
              "all per-file rules fire"
              (List.sort compare per_file_rules)
              fired));
  ]

(* ------------------------------------------------------------------ *)
(* Layer 2: quoted string literals in strip (regression)               *)
(* ------------------------------------------------------------------ *)

let quoted_string_tests =
  [
    Alcotest.test_case "{|...|} payload is blanked" `Quick
      (check_clean "random" ~path:"lib/core/foo.ml"
         "let s = {|Random.int|}\n");
    Alcotest.test_case "{id|...|id} payload is blanked" `Quick
      (check_clean "random" ~path:"lib/core/foo.ml"
         "let s = {ext|uses Random.int here|ext}\n");
    Alcotest.test_case "== inside quoted string clean" `Quick
      (check_clean "physical-equality" ~path:"lib/core/foo.ml"
         "let s = {|a == b|}\n");
    Alcotest.test_case "wrong closing id does not end the literal" `Quick
      (check_clean "random" ~path:"lib/core/foo.ml"
         "let s = {a|text |b} Random.int |a}\n");
    Alcotest.test_case "multi-line quoted string keeps line structure" `Quick
      (fun () ->
        let src = "let s = {|line one\nRandom.int\n|}\nlet x = 1\n" in
        Alcotest.(check bool)
          "no violation" false
          (flags "random" ~path:"lib/core/foo.ml" src);
        Alcotest.(check int)
          "line count preserved"
          (String.length (String.concat "" [ src ]))
          (String.length (Rules.strip src)));
    Alcotest.test_case "code after the literal still fires" `Quick
      (check_flags "random" ~path:"lib/core/foo.ml"
         "let s = {|quoted|}\nlet x = Random.int 3\n");
    Alcotest.test_case "record syntax is untouched" `Quick
      (check_flags "random" ~path:"lib/core/foo.ml"
         "let r = { x with seed = Random.int 3 }\n");
  ]

(* ------------------------------------------------------------------ *)
(* AST rule engine                                                     *)
(* ------------------------------------------------------------------ *)

let ast_ported_tests =
  [
    Alcotest.test_case "aliased let r = Random.int flagged" `Quick
      (check_flags "random" ~path:"lib/core/foo.ml"
         "let draw = Random.int\n");
    Alcotest.test_case "module R = Random flagged" `Quick
      (check_flags "random" ~path:"lib/core/foo.ml"
         "module R = Random\n");
    Alcotest.test_case "Random.State.make flagged" `Quick
      (check_flags "random" ~path:"lib/core/foo.ml"
         "let st = Random.State.make [| 7 |]\n");
    Alcotest.test_case "== flagged" `Quick
      (check_flags "physical-equality" ~path:"lib/core/foo.ml"
         "let b = a == c\n");
    Alcotest.test_case "aliased Stdlib.(==) flagged" `Quick
      (check_flags "physical-equality" ~path:"lib/core/foo.ml"
         "let eq = Stdlib.( == )\n");
    Alcotest.test_case "structural = clean" `Quick
      (check_clean "physical-equality" ~path:"lib/core/foo.ml"
         "let b = a = c && a <> d\n");
    Alcotest.test_case "Hashtbl.replace clean" `Quick
      (check_clean "hashtbl-iteration" ~path:"lib/sim/foo.ml"
         "let () = Hashtbl.replace tbl k v\n");
    Alcotest.test_case "fault purity: wall clock flagged" `Quick
      (check_flags "fault-purity" ~path:"lib/faults/foo.ml"
         "let now = Unix.gettimeofday ()\n");
    Alcotest.test_case "fault purity: plan module in lib/sim flagged" `Quick
      (check_flags "fault-purity" ~path:"lib/sim/fault_plan.ml"
         "let () = Random.self_init ()\n");
  ]

let ast_only_tests =
  [
    Alcotest.test_case "toplevel ref flagged" `Quick
      (check_flags "toplevel-mutable-state" ~path:"lib/core/foo.ml"
         "let counter = ref 0\n");
    Alcotest.test_case "toplevel Hashtbl.create flagged" `Quick
      (check_flags "toplevel-mutable-state" ~path:"lib/drip/foo.ml"
         "let memo = Hashtbl.create 16\n");
    Alcotest.test_case "toplevel ref in nested module flagged" `Quick
      (check_flags "toplevel-mutable-state" ~path:"lib/sim/foo.ml"
         "module Acc = struct\n  let total = ref 0\nend\n");
    Alcotest.test_case "function-local ref clean" `Quick
      (check_clean "toplevel-mutable-state" ~path:"lib/core/foo.ml"
         "let count xs =\n  let n = ref 0 in\n  List.iter (fun _ -> incr n) \
          xs;\n  !n\n");
    Alcotest.test_case "toplevel ref outside boundary clean" `Quick
      (check_clean "toplevel-mutable-state" ~path:"lib/analysis/foo.ml"
         "let counter = ref 0\n");
    Alcotest.test_case "catch-all try flagged" `Quick
      (check_flags "catch-all-exception" ~path:"lib/core/foo.ml"
         "let f x = try g x with _ -> 0\n");
    Alcotest.test_case "catch-all variable pattern flagged" `Quick
      (check_flags "catch-all-exception" ~path:"lib/sim/foo.ml"
         "let f x = try g x with e -> ignore e; 0\n");
    Alcotest.test_case "catch-all arm after specific one flagged" `Quick
      (check_flags "catch-all-exception" ~path:"lib/core/foo.ml"
         "let f x = try g x with Not_found -> 1 | _ -> 0\n");
    Alcotest.test_case "specific handler clean" `Quick
      (check_clean "catch-all-exception" ~path:"lib/core/foo.ml"
         "let f x = try g x with Not_found -> 0\n");
    Alcotest.test_case "catch-all outside boundary clean" `Quick
      (check_clean "catch-all-exception" ~path:"lib/analysis/foo.ml"
         "let f x = try g x with _ -> 0\n");
    Alcotest.test_case "assert false flagged" `Quick
      (check_flags "assert-false" ~path:"lib/drip/foo.ml"
         "let f = function Some x -> x | None -> assert false\n");
    Alcotest.test_case "ordinary assert clean" `Quick
      (check_clean "assert-false" ~path:"lib/drip/foo.ml"
         "let f x = assert (x >= 0); x\n");
    Alcotest.test_case "assert false outside boundary clean" `Quick
      (check_clean "assert-false" ~path:"lib/wired/foo.ml"
         "let f = function Some x -> x | None -> assert false\n");
    Alcotest.test_case "allow suppresses AST-only rule" `Quick
      (check_clean "assert-false" ~path:"lib/drip/foo.ml"
         "(* radiolint: allow assert-false — unreachable by construction *)\n\
          let f = function Some x -> x | None -> assert false\n");
    Alcotest.test_case "unparseable source reported as error" `Quick
      (fun () ->
        Alcotest.(check (list (pair string int)))
          "one parse-error finding at the parser's line"
          [ ("parse-error", 2) ]
          (List.map
             (fun v -> (v.Rules.rule, v.Rules.line))
             (Ast_lint.lint_source ~path:"lib/core/foo.ml"
                "let x = 1\nlet let = in\n")));
    Alcotest.test_case "toplevel ref inside functor argument flagged" `Quick
      (check_flags "toplevel-mutable-state" ~path:"lib/core/foo.ml"
         "module M = Make (struct\n  let tbl = Hashtbl.create 16\nend)\n");
  ]

let poly_compare_tests =
  [
    Alcotest.test_case "bare compare flagged in lib/core" `Quick
      (check_flags "polymorphic-compare" ~path:"lib/core/foo.ml"
         "let sort xs = List.sort compare xs\n");
    Alcotest.test_case "bare compare flagged in lib/mc" `Quick
      (check_flags "polymorphic-compare" ~path:"lib/mc/foo.ml"
         "let c = compare a b\n");
    Alcotest.test_case "qualified Int.compare clean" `Quick
      (check_clean "polymorphic-compare" ~path:"lib/core/foo.ml"
         "let sort xs = List.sort Int.compare xs\n");
    Alcotest.test_case "= on tuples flagged" `Quick
      (check_flags "polymorphic-compare" ~path:"lib/mc/foo.ml"
         "let eq a b c d = (a, b) = (c, d)\n");
    Alcotest.test_case "= on an option payload flagged" `Quick
      (check_flags "polymorphic-compare" ~path:"lib/core/foo.ml"
         "let hit x m = x = Some m\n");
    Alcotest.test_case "<> on a list literal flagged" `Quick
      (check_flags "polymorphic-compare" ~path:"lib/core/foo.ml"
         "let ne xs y = xs <> [ y ]\n");
    Alcotest.test_case "min on a cons flagged" `Quick
      (check_flags "polymorphic-compare" ~path:"lib/core/foo.ml"
         "let m x xs = min xs (x :: xs)\n");
    Alcotest.test_case "scalar = and min stay clean" `Quick
      (check_clean "polymorphic-compare" ~path:"lib/core/foo.ml"
         "let f a b = min a b = 0 && a <> b\n");
    Alcotest.test_case "nullary None and [] stay clean" `Quick
      (check_clean "polymorphic-compare" ~path:"lib/core/foo.ml"
         "let e x ys = x = None && ys <> []\n");
    Alcotest.test_case "outside lib/core and lib/mc clean" `Quick
      (check_clean "polymorphic-compare" ~path:"lib/sim/foo.ml"
         "let c = compare a b\n");
    Alcotest.test_case "allow suppresses" `Quick
      (check_clean "polymorphic-compare" ~path:"lib/core/foo.ml"
         "(* radiolint: allow polymorphic-compare — scalar keys only *)\n\
          let c = compare a b\n");
  ]

let domain_safety_tests =
  [
    Alcotest.test_case "Domain.spawn flagged in lib/core" `Quick
      (check_flags "domain-safety" ~path:"lib/core/foo.ml"
         "let d = Domain.spawn work\n");
    Alcotest.test_case "Atomic.make flagged in lib/mc" `Quick
      (check_flags "domain-safety" ~path:"lib/mc/foo.ml"
         "let counter = Atomic.make 0\n");
    Alcotest.test_case "Mutex.lock flagged in lib/faults" `Quick
      (check_flags "domain-safety" ~path:"lib/faults/foo.ml"
         "let go mu = Mutex.lock mu\n");
    Alcotest.test_case "Condition.wait flagged in lib/sim" `Quick
      (check_flags "domain-safety" ~path:"lib/sim/foo.ml"
         "let w c m = Condition.wait c m\n");
    Alcotest.test_case "module alias D = Domain flagged" `Quick
      (check_flags "domain-safety" ~path:"lib/core/foo.ml"
         "module D = Domain\n");
    Alcotest.test_case "Stdlib.Atomic.get flagged" `Quick
      (check_flags "domain-safety" ~path:"lib/core/foo.ml"
         "let g a = Stdlib.Atomic.get a\n");
    Alcotest.test_case "exempt inside lib/exec" `Quick
      (check_clean "domain-safety" ~path:"lib/exec/pool.ml"
         "let d = Domain.spawn work\nlet c = Atomic.make 0\n");
    Alcotest.test_case "outside lib clean" `Quick
      (check_clean "domain-safety" ~path:"bin/foo.ml"
         "let d = Domain.spawn work\n");
    Alcotest.test_case "allow suppresses" `Quick
      (check_clean "domain-safety" ~path:"lib/core/foo.ml"
         "(* radiolint: allow domain-safety — benchmark scaffold *)\n\
          let d = Domain.recommended_domain_count ()\n");
  ]

(* ------------------------------------------------------------------ *)
(* Interprocedural taint                                               *)
(* ------------------------------------------------------------------ *)

(* lib-style fixture: the deterministic module reaches Random.int only
   through an intermediate helper (one cross-module call deep). *)
let helper_src =
  "let shuffle arr =\n\
  \  Array.iteri (fun i _ -> ignore (Random.int (i + 1))) arr\n"

let drip_src = "let step order = Util.shuffle order; order\n"

let taint_findings sources = Taint.analyze (Callgraph.of_sources sources)

let find_root name findings =
  List.find_opt
    (fun f -> f.Taint.func.Callgraph.display = name)
    findings

let taint_tests =
  [
    Alcotest.test_case "cross-module chain has >= 2 edges" `Quick (fun () ->
        let findings =
          taint_findings
            [
              ("lib/core/util.ml", helper_src); ("lib/drip/drip.ml", drip_src);
            ]
        in
        match find_root "Drip.step" findings with
        | None -> Alcotest.fail "Drip.step should be tainted"
        | Some f ->
            Alcotest.(check string) "sink" "Random.int" f.Taint.sink;
            Alcotest.(check bool)
              "witness has >= 2 edges" true
              (Taint.edges f >= 2);
            Alcotest.(check (list string))
              "chain names"
              [ "Drip.step"; "Util.shuffle"; "Random.int" ]
              (List.map (fun h -> h.Taint.name) f.Taint.chain));
    Alcotest.test_case "impure leaf two calls deep is reached" `Quick
      (fun () ->
        let findings =
          taint_findings
            [
              ("lib/core/leaf.ml", "let draw () = Random.bits ()\n");
              ("lib/core/mid.ml", "let pick () = Leaf.draw ()\n");
              ("lib/drip/top.ml", "let step () = Mid.pick ()\n");
            ]
        in
        match find_root "Top.step" findings with
        | None -> Alcotest.fail "Top.step should be tainted"
        | Some f ->
            Alcotest.(check int) "three edges" 3 (Taint.edges f);
            Alcotest.(check string) "sink" "Random.bits" f.Taint.sink);
    Alcotest.test_case "helper in an exempt module is a barrier" `Quick
      (fun () ->
        (* Same shape, but the helper lives in lib/config/random_config.ml
           (explicitly seeded by contract): the caller stays clean. *)
        let findings =
          taint_findings
            [
              ( "lib/config/random_config.ml",
                "let draw n = Random.int n\n" );
              ( "lib/drip/drip.ml",
                "let step order = ignore (Random_config.draw 4); order\n" );
            ]
        in
        Alcotest.(check int) "no findings" 0 (List.length findings));
    Alcotest.test_case "allow-annotated helper is a barrier" `Quick (fun () ->
        let annotated =
          "(* radiolint: allow taint — PRNG audited and locally seeded *)\n"
          ^ helper_src
        in
        let findings =
          taint_findings
            [
              ("lib/core/util.ml", annotated); ("lib/drip/drip.ml", drip_src);
            ]
        in
        Alcotest.(check int) "no findings" 0 (List.length findings));
    Alcotest.test_case "direct primitive use is a 1-edge chain" `Quick
      (fun () ->
        let findings =
          taint_findings [ ("lib/sim/clock.ml", "let now () = Sys.time ()\n") ]
        in
        match find_root "Clock.now" findings with
        | None -> Alcotest.fail "Clock.now should be tainted"
        | Some f ->
            Alcotest.(check int) "one edge" 1 (Taint.edges f);
            Alcotest.(check string) "sink" "Sys.time" f.Taint.sink);
    Alcotest.test_case "pure cross-module calls stay clean" `Quick (fun () ->
        let findings =
          taint_findings
            [
              ("lib/core/util.ml", "let double x = x * 2\n");
              ("lib/drip/drip.ml", "let step x = Util.double x\n");
            ]
        in
        Alcotest.(check int) "no findings" 0 (List.length findings));
    Alcotest.test_case "taint outside checked dirs not reported" `Quick
      (fun () ->
        let findings =
          taint_findings
            [ ("lib/analysis/foo.ml", "let t () = Sys.time ()\n") ]
        in
        Alcotest.(check int) "no findings" 0 (List.length findings));
    Alcotest.test_case "submodule definitions are reachable" `Quick (fun () ->
        let findings =
          taint_findings
            [
              ( "lib/sim/trace.ml",
                "module Acc = struct\n\
                \  let stamp () = Unix.gettimeofday ()\n\
                 end\n" );
              ( "lib/drip/drip.ml",
                "let step () = Trace.Acc.stamp ()\n" );
            ]
        in
        Alcotest.(check bool)
          "Drip.step tainted" true
          (find_root "Drip.step" findings <> None));
    Alcotest.test_case "binding inside a functor application is indexed"
      `Quick (fun () ->
        (* Regression: [collect_module] used to stop at [Pmod_apply], so the
           argument struct's impure [draw] was invisible to the analysis. *)
        let findings =
          taint_findings
            [
              ( "lib/drip/foo.ml",
                "module M = Make (struct let draw () = Random.int 5 end)\n"
              );
            ]
        in
        match find_root "Foo.M.draw" findings with
        | None -> Alcotest.fail "Foo.M.draw should be indexed and tainted"
        | Some f ->
            Alcotest.(check string) "sink" "Random.int" f.Taint.sink;
            Alcotest.(check int) "direct use" 1 (Taint.edges f));
    Alcotest.test_case "binding inside let module is indexed" `Quick
      (fun () ->
        (* Regression: [let module Local = struct ... end in ...] bodies
           were folded into the enclosing binding without indexing the
           module's own functions as nodes. *)
        let findings =
          taint_findings
            [
              ( "lib/sim/foo.ml",
                "let step () =\n\
                \  let module Local = struct\n\
                \    let draw () = Random.bits ()\n\
                \  end in\n\
                \  Local.draw ()\n" );
            ]
        in
        Alcotest.(check bool)
          "Foo.Local.draw indexed and tainted" true
          (find_root "Foo.Local.draw" findings <> None);
        Alcotest.(check bool)
          "enclosing Foo.step tainted too" true
          (find_root "Foo.step" findings <> None));
    Alcotest.test_case "call under let open resolves" `Quick (fun () ->
        (* Regression: [let open Util in shuffle order] used to drop the
           edge to Util.shuffle because the bare [shuffle] never resolved —
           the opened-module variant restores it. *)
        let findings =
          taint_findings
            [
              ("lib/core/util.ml", helper_src);
              ( "lib/drip/drip.ml",
                "let step order = let open Util in shuffle order\n" );
            ]
        in
        match find_root "Drip.step" findings with
        | None -> Alcotest.fail "Drip.step should be tainted through the open"
        | Some f ->
            Alcotest.(check (list string))
              "chain names"
              [ "Drip.step"; "Util.shuffle"; "Random.int" ]
              (List.map (fun h -> h.Taint.name) f.Taint.chain));
    Alcotest.test_case "call under M.(...) resolves" `Quick (fun () ->
        let findings =
          taint_findings
            [
              ("lib/core/util.ml", helper_src);
              ("lib/drip/drip.ml", "let step order = Util.(shuffle order)\n");
            ]
        in
        Alcotest.(check bool)
          "Drip.step tainted" true
          (find_root "Drip.step" findings <> None));
    Alcotest.test_case "call under toplevel open resolves" `Quick (fun () ->
        let findings =
          taint_findings
            [
              ("lib/core/util.ml", helper_src);
              ( "lib/drip/drip.ml",
                "open Util\nlet step order = shuffle order\n" );
            ]
        in
        Alcotest.(check bool)
          "Drip.step tainted" true
          (find_root "Drip.step" findings <> None));
    Alcotest.test_case "local binding does not alias a toplevel def" `Quick
      (fun () ->
        (* Regression: a local [let draw = ...] inside a body used to
           resolve the bare [draw] to the same-named toplevel binding,
           fabricating an edge into its effects. *)
        let findings =
          taint_findings
            [
              ( "lib/drip/drip.ml",
                "let draw () = Random.bits ()\n\
                 let step x =\n\
                \  let draw = x + 1 in\n\
                \  draw\n" );
            ]
        in
        Alcotest.(check bool)
          "Drip.step stays clean" true
          (find_root "Drip.step" findings = None));
  ]

(* ------------------------------------------------------------------ *)
(* Interprocedural effects                                             *)
(* ------------------------------------------------------------------ *)

let effect_infos sources = Effects.classify (Callgraph.of_sources sources)
let effect_escapes sources = Effects.escapes (Callgraph.of_sources sources)

let info_of name infos =
  List.find_opt
    (fun (i : Effects.info) -> i.Effects.def.Callgraph.display = name)
    infos

let check_class name expected infos =
  match info_of name infos with
  | None -> Alcotest.fail (name ^ " should be classified")
  | Some i ->
      Alcotest.(check string)
        (name ^ " class") (Effects.cls_name expected)
        (Effects.cls_name i.Effects.cls)

let effect_class_tests =
  [
    Alcotest.test_case "pure arithmetic is Pure" `Quick (fun () ->
        let infos =
          effect_infos [ ("lib/core/foo.ml", "let add x y = x + y\n") ]
        in
        check_class "Foo.add" Effects.Pure infos;
        match info_of "Foo.add" infos with
        | Some i -> Alcotest.(check int) "no chain" 0 (List.length i.Effects.chain)
        | None -> Alcotest.fail "Foo.add missing");
    Alcotest.test_case "ref mutation is LocalMut" `Quick (fun () ->
        check_class "Foo.bump" Effects.Local_mut
          (effect_infos [ ("lib/core/foo.ml", "let bump r = incr r\n") ]));
    Alcotest.test_case "indexed assignment is LocalMut" `Quick (fun () ->
        (* a.(i) <- v desugars to Array.set: the ident classifier sees it. *)
        check_class "Foo.set" Effects.Local_mut
          (effect_infos
             [ ("lib/core/foo.ml", "let set a i v = a.(i) <- v\n") ]));
    Alcotest.test_case "record-field assignment is LocalMut" `Quick (fun () ->
        check_class "Foo.tick" Effects.Local_mut
          (effect_infos
             [
               ( "lib/core/foo.ml",
                 "type t = { mutable n : int }\n\
                  let tick c = c.n <- c.n + 1\n" );
             ]));
    Alcotest.test_case "Atomic use is SharedMut" `Quick (fun () ->
        check_class "Foo.get" Effects.Shared_mut
          (effect_infos [ ("lib/core/foo.ml", "let get a = Atomic.get a\n") ]));
    Alcotest.test_case "module-level mutable read is SharedMut" `Quick
      (fun () ->
        (* A read is as scheduling-order sensitive as a write. *)
        check_class "Foo.peek" Effects.Shared_mut
          (effect_infos
             [
               ( "lib/core/foo.ml",
                 "let cache = Hashtbl.create 16\n\
                  let peek () = Hashtbl.length cache\n" );
             ]));
    Alcotest.test_case "printing is IO" `Quick (fun () ->
        check_class "Foo.log" Effects.Io
          (effect_infos
             [ ("lib/core/foo.ml", "let log x = print_endline x\n") ]));
    Alcotest.test_case "Sys read is IO" `Quick (fun () ->
        check_class "Foo.home" Effects.Io
          (effect_infos
             [ ("lib/core/foo.ml", "let home () = Sys.getenv \"HOME\"\n") ]));
    Alcotest.test_case "Sys constants stay Pure" `Quick (fun () ->
        check_class "Foo.ws" Effects.Pure
          (effect_infos [ ("lib/core/foo.ml", "let ws () = Sys.word_size\n") ]));
    Alcotest.test_case "pp helper on a caller-supplied formatter stays Pure"
      `Quick (fun () ->
        check_class "Foo.pp" Effects.Pure
          (effect_infos
             [
               ( "lib/core/foo.ml",
                 "let pp ppf x = Format.fprintf ppf \"%d\" x\n" );
             ]));
    Alcotest.test_case "class joins over a 2-edge chain with witness" `Quick
      (fun () ->
        let infos =
          effect_infos
            [
              ( "lib/core/foo.ml",
                "let log x = print_endline x\nlet run x = log x\n" );
            ]
        in
        check_class "Foo.run" Effects.Io infos;
        match info_of "Foo.run" infos with
        | None -> Alcotest.fail "Foo.run missing"
        | Some i ->
            Alcotest.(check (list string))
              "witness chain"
              [ "Foo.run"; "Foo.log"; "print_endline" ]
              (List.map (fun (h : Effects.hop) -> h.Effects.name) i.Effects.chain));
    Alcotest.test_case "local shadow does not inherit the toplevel class"
      `Quick (fun () ->
        let infos =
          effect_infos
            [
              ( "lib/core/foo.ml",
                "let log x = print_endline x\n\
                 let step x =\n\
                \  let log = x + 1 in\n\
                \  log\n" );
            ]
        in
        check_class "Foo.step" Effects.Pure infos);
  ]

let find_escape name findings =
  List.find_opt
    (fun (f : Effects.finding) -> f.Effects.func.Callgraph.display = name)
    findings

let escape_chain f =
  List.map (fun (h : Effects.hop) -> h.Effects.name) f.Effects.chain

let effect_escape_tests =
  [
    Alcotest.test_case "task mutating shared table through a 2-edge chain"
      `Quick (fun () ->
        let findings =
          effect_escapes
            [
              ( "lib/analysis/foo.ml",
                "let cache = Hashtbl.create 16\n\
                 let note x = Hashtbl.replace cache x x\n\
                 let go pool xs =\n\
                \  Radio_exec.Pool.map pool ~f:(fun x -> note x) xs\n" );
            ]
        in
        match find_escape "Foo.go" findings with
        | None -> Alcotest.fail "Foo.go should be reported"
        | Some f ->
            Alcotest.(check string)
              "class" "SharedMut"
              (Effects.cls_name f.Effects.cls);
            Alcotest.(check string) "source" "Foo.cache" f.Effects.source;
            Alcotest.(check int) "submit line" 4 f.Effects.submit_line;
            Alcotest.(check (list string))
              "witness chain"
              [ "Foo.go"; "Foo.note"; "Foo.cache" ]
              (escape_chain f);
            Alcotest.(check int) "edges" 2 (Effects.edges f));
    Alcotest.test_case "IO three calls deep is reached" `Quick (fun () ->
        let findings =
          effect_escapes
            [
              ("lib/core/leaf.ml", "let say x = print_endline x\n");
              ("lib/core/mid.ml", "let relay x = Leaf.say x\n");
              ( "lib/analysis/top.ml",
                "let go pool xs =\n\
                \  Radio_exec.Pool.iter_batches pool ~f:(fun x -> Mid.relay \
                 x) xs\n" );
            ]
        in
        match find_escape "Top.go" findings with
        | None -> Alcotest.fail "Top.go should be reported"
        | Some f ->
            Alcotest.(check string) "class" "IO" (Effects.cls_name f.Effects.cls);
            Alcotest.(check (list string))
              "witness chain"
              [ "Top.go"; "Mid.relay"; "Leaf.say"; "print_endline" ]
              (escape_chain f));
    Alcotest.test_case "direct mutation inside the closure is caught" `Quick
      (fun () ->
        let findings =
          effect_escapes
            [
              ( "lib/analysis/foo.ml",
                "let hits = ref 0\n\
                 let go pool xs =\n\
                \  Radio_exec.Pool.iter_batches pool ~f:(fun _ -> hits := 1) \
                 xs\n" );
            ]
        in
        match find_escape "Foo.go" findings with
        | None -> Alcotest.fail "Foo.go should be reported"
        | Some f ->
            Alcotest.(check string) "source" "Foo.hits" f.Effects.source;
            Alcotest.(check (list string))
              "witness chain" [ "Foo.go"; "Foo.hits" ] (escape_chain f));
    Alcotest.test_case "local mutation in the task stays clean" `Quick
      (fun () ->
        let findings =
          effect_escapes
            [
              ( "lib/analysis/foo.ml",
                "let go pool xs =\n\
                \  Radio_exec.Pool.map pool\n\
                \    ~f:(fun x -> let r = ref 0 in r := x; !r) xs\n" );
            ]
        in
        Alcotest.(check int) "no findings" 0 (List.length findings));
    Alcotest.test_case "commit closure runs on the caller: not checked"
      `Quick (fun () ->
        (* ~commit mutating shared state is the contract (in-order, caller
           domain); only ~f runs on workers. *)
        let findings =
          effect_escapes
            [
              ( "lib/analysis/foo.ml",
                "let acc = Hashtbl.create 16\n\
                 let go pool xs =\n\
                \  Radio_exec.Pool.run_batch pool ~f:(fun _ x -> x + 1)\n\
                \    ~commit:(fun i y -> Hashtbl.replace acc i y) xs\n" );
            ]
        in
        Alcotest.(check int) "no findings" 0 (List.length findings));
    Alcotest.test_case "Intern local views are a barrier" `Quick (fun () ->
        let findings =
          effect_escapes
            [
              ( "lib/exec/intern.ml",
                "let table = Hashtbl.create 16\n\
                 let commit l = Hashtbl.replace table l l\n" );
              ( "lib/analysis/foo.ml",
                "let go pool xs =\n\
                \  Radio_exec.Pool.map pool ~f:(fun x -> Intern.commit x) xs\n"
              );
            ]
        in
        Alcotest.(check int) "no findings" 0 (List.length findings));
    Alcotest.test_case "allow-effect annotation is a barrier" `Quick
      (fun () ->
        let findings =
          effect_escapes
            [
              ( "lib/analysis/foo.ml",
                "let cache = Hashtbl.create 16\n\
                 (* radiolint: allow effect — replayed at the barrier *)\n\
                 let go pool xs =\n\
                \  Radio_exec.Pool.map pool ~f:(fun x -> Hashtbl.replace \
                 cache x x) xs\n" );
            ]
        in
        Alcotest.(check int) "no findings" 0 (List.length findings));
    Alcotest.test_case "map_chunked is a submit site" `Quick (fun () ->
        (* The explorer's parallel frontier expands waves through
           [Pool.map_chunked]; a wave closure leaking into module state
           must be caught like any other task. *)
        let findings =
          effect_escapes
            [
              ( "lib/mc/foo.ml",
                "let tally = Hashtbl.create 16\n\
                 let go pool waves =\n\
                \  Radio_exec.Pool.map_chunked pool\n\
                \    ~f:(fun part -> Hashtbl.replace tally part part; part)\n\
                \    waves\n" );
            ]
        in
        match find_escape "Foo.go" findings with
        | None -> Alcotest.fail "Foo.go should be reported"
        | Some f ->
            Alcotest.(check string)
              "class" "SharedMut"
              (Effects.cls_name f.Effects.cls);
            Alcotest.(check string) "source" "Foo.tally" f.Effects.source;
            Alcotest.(check int) "submit line" 3 f.Effects.submit_line);
    Alcotest.test_case "frontier wave over intern views stays clean" `Quick
      (fun () ->
        (* The shape checker.ml actually submits, in two batches.  Fill:
           each chunk builds a local Intern view, interns successor keys
           into it while filling its own reused buffer, and hands the view
           back for the caller's in-order commit.  Stage: once the caller
           has committed every view and stored each resolver in its chunk,
           each chunk reads that resolver and rewrites only its own buffer
           and scratch.  LocalMut only. *)
        let findings =
          effect_escapes
            [
              ( "lib/exec/intern.ml",
                "let table = Hashtbl.create 16\n\
                 let local t = Hashtbl.copy t\n\
                 let get_local v k = Hashtbl.replace v k k; k\n\
                 let commit t v = let n = Hashtbl.length v in fun id -> id + n\n" );
              ( "lib/mc/wave.ml",
                "type chunk = { first : int; mutable len : int; buf : int \
                 array; scratch : int array; mutable resolve : int -> int }\n\
                 let fill intern c =\n\
                \  let view = Intern.local intern in\n\
                \  for i = 0 to 3 do\n\
                \    c.buf.(i) <- Intern.get_local view (c.first + i)\n\
                \  done;\n\
                \  c.len <- 4;\n\
                \  view\n\
                 let stage c =\n\
                \  for i = 0 to c.len - 1 do\n\
                \    c.scratch.(0) <- c.resolve c.buf.(i);\n\
                \    c.buf.(i) <- (c.scratch.(0) * 31) lxor 7\n\
                \  done\n\
                 let go pool intern chunks =\n\
                \  let views =\n\
                \    Radio_exec.Pool.map_chunked pool\n\
                \      ~f:(fun part -> Array.map (fill intern) part)\n\
                \      chunks\n\
                \  in\n\
                \  Array.iteri\n\
                \    (fun i v -> chunks.(i).resolve <- Intern.commit intern v)\n\
                \    (Array.concat (Array.to_list views));\n\
                \  Radio_exec.Pool.map_chunked pool\n\
                \    ~f:(fun part -> Array.iter stage part)\n\
                \    chunks\n" );
            ]
        in
        Alcotest.(check int) "no findings" 0 (List.length findings));
    Alcotest.test_case "worst class wins across task references" `Quick
      (fun () ->
        let findings =
          effect_escapes
            [
              ( "lib/analysis/foo.ml",
                "let cache = Hashtbl.create 16\n\
                 let note x = Hashtbl.replace cache x x\n\
                 let shout x = print_endline x\n\
                 let go pool xs =\n\
                \  Radio_exec.Pool.map pool ~f:(fun x -> note x; shout x; x) \
                 xs\n" );
            ]
        in
        match find_escape "Foo.go" findings with
        | None -> Alcotest.fail "Foo.go should be reported"
        | Some f ->
            Alcotest.(check string) "IO beats SharedMut" "IO"
              (Effects.cls_name f.Effects.cls));
  ]


(* ------------------------------------------------------------------ *)
(* Value-range analysis (Ranges)                                       *)
(* ------------------------------------------------------------------ *)

let asts_of sources =
  List.filter_map
    (fun (path, text) ->
      match Ast_lint.parse ~path text with
      | Ok ast -> Some (Rules.normalize path, ast)
      | Error _ -> None)
    sources

let ranges_of sources =
  Ranges.analyze (Callgraph.of_sources sources) ~asts:(asts_of sources)

let range_rules sources =
  List.map (fun f -> f.Ranges.rule_id) (ranges_of sources)

let ranges_tests =
  [
    Alcotest.test_case "unbounded shift flags range-overflow" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "flagged" [ "range-overflow" ]
          (range_rules [ ("lib/mc/fix.ml", "let mask v = 1 lsl v\n") ]));
    Alcotest.test_case "caller narrowing silences the same shift" `Quick
      (fun () ->
        (* Interprocedural: every call site hands [mask] a small argument,
           so the joined parameter interval proves the shift safe. *)
        Alcotest.(check (list string))
          "clean" []
          (range_rules
             [
               ( "lib/mc/fix.ml",
                 "let mask v = 1 lsl v\n\
                  let use () = mask 3\n\
                  let narrow v = mask (v land 0x7)\n" );
             ]));
    Alcotest.test_case "Char.chr of an unbounded value flags truncation"
      `Quick (fun () ->
        Alcotest.(check (list string))
          "flagged" [ "range-truncation" ]
          (range_rules [ ("lib/mc/fix.ml", "let b v = Char.chr v\n") ]));
    Alcotest.test_case "masked Char.chr argument is clean" `Quick (fun () ->
        Alcotest.(check (list string))
          "clean" []
          (range_rules
             [ ("lib/mc/fix.ml", "let b v = Char.chr (v land 0xff)\n") ]));
    Alcotest.test_case "unguarded unsafe_get flags range-index" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "flagged" [ "range-index" ]
          (range_rules
             [ ("lib/mc/fix.ml", "let g b i = Bytes.unsafe_get b i\n") ]));
    Alcotest.test_case "a dominating bounds guard silences unsafe_get"
      `Quick (fun () ->
        Alcotest.(check (list string))
          "clean" []
          (range_rules
             [
               ( "lib/mc/fix.ml",
                 "let g b i =\n\
                  \  if i >= 0 && i < Bytes.length b then\n\
                  \    Some (Bytes.unsafe_get b i)\n\
                  \  else None\n" );
             ]));
    Alcotest.test_case "for-loop bounds guard unsafe indexing" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "clean" []
          (range_rules
             [
               ( "lib/mc/fix.ml",
                 "let sum a =\n\
                  \  let t = ref 0 in\n\
                  \  for i = 0 to Array.length a - 1 do\n\
                  \    t := !t + Array.unsafe_get a i\n\
                  \  done;\n\
                  \  !t\n" );
             ]));
    Alcotest.test_case "allow annotation is a barrier" `Quick (fun () ->
        Alcotest.(check (list string))
          "suppressed" []
          (range_rules
             [
               ( "lib/mc/fix.ml",
                 "(* radiolint: allow range-overflow -- wraps by design *)\n\
                  let mask v = 1 lsl v\n" );
             ]));
    Alcotest.test_case "files outside the hot paths are not checked" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "clean" []
          (range_rules [ ("lib/core/fix.ml", "let mask v = 1 lsl v\n") ]));
  ]

(* ------------------------------------------------------------------ *)
(* Exception-escape analysis (Partiality)                              *)
(* ------------------------------------------------------------------ *)

let partiality_of sources =
  let cg = Callgraph.of_sources sources in
  Partiality.findings (Partiality.analyze cg ~asts:(asts_of sources))

let exns_of = List.map (fun f -> f.Partiality.exns)

(* A library that raises its own exception, reached through aliases. *)
let alias_lib =
  ( "lib/lib/lib.ml",
    "exception Boom\nlet boom () = if Sys.opaque_identity true then raise Boom\n"
  )

let partiality_tests =
  [
    Alcotest.test_case "failwith escapes a CLI entry" `Quick (fun () ->
        match
          partiality_of
            [
              ( "bin/foo.ml",
                "let boom () = failwith \"boom\"\n\
                 let run_cmd () = boom ()\n" );
            ]
        with
        | [ f ] ->
            Alcotest.(check (list string))
              "Failure reported" [ "Failure" ] f.Partiality.exns;
            Alcotest.(check bool)
              "anchored at the entry" true
              (f.Partiality.func = "Foo.run_cmd")
        | fs ->
            Alcotest.failf "expected exactly one finding, got %d"
              (List.length fs));
    Alcotest.test_case "a try/with handler subtracts the exception" `Quick
      (fun () ->
        Alcotest.(check int)
          "clean" 0
          (List.length
             (partiality_of
                [
                  ( "bin/foo.ml",
                    "let boom () = failwith \"boom\"\n\
                     let run_cmd () = try boom () with Failure _ -> ()\n" );
                ])));
    Alcotest.test_case "partial stdlib lookups are sources" `Quick (fun () ->
        match
          partiality_of
            [ ("bin/foo.ml", "let find_cmd tbl = Hashtbl.find tbl 3\n") ]
        with
        | [ f ] ->
            Alcotest.(check (list string))
              "Not_found reported" [ "Not_found" ] f.Partiality.exns
        | fs ->
            Alcotest.failf "expected exactly one finding, got %d"
              (List.length fs));
    Alcotest.test_case "an exception reaching a Pool task closure is a \
                        finding at the submit site" `Quick (fun () ->
        match
          partiality_of
            [
              ( "lib/exec/work.ml",
                "let risky x = List.hd x\n\
                 let run pool xs = Radio_exec.Pool.map pool ~f:risky xs\n" );
            ]
        with
        | [ f ] ->
            Alcotest.(check (list string))
              "Failure reported" [ "Failure" ] f.Partiality.exns;
            Alcotest.(check bool)
              "task finding" true
              (f.Partiality.kind = `Task);
            Alcotest.(check int) "anchored at submit" 2 f.Partiality.line
        | fs ->
            Alcotest.failf "expected exactly one finding, got %d"
              (List.length fs));
    Alcotest.test_case "allow on the submit line suppresses the task \
                        finding" `Quick (fun () ->
        Alcotest.(check int)
          "suppressed" 0
          (List.length
             (partiality_of
                [
                  ( "lib/exec/work.ml",
                    "let risky x = List.hd x\n\
                     (* radiolint: allow partiality -- crash wanted *)\n\
                     let run pool xs = Radio_exec.Pool.map pool ~f:risky \
                     xs\n" );
                ])));
    Alcotest.test_case "merged same-named definitions need the allow on \
                        each" `Quick (fun () ->
        (* [Dup.Inner.get] and [Dup.get] share one call-graph node; an
           allow on the first alone must not cover the second. *)
        let dup ~second =
          [
            ( "lib/core/dup.ml",
              "module Inner = struct\n\
              \  (* radiolint: allow partiality -- callers pass a cons *)\n\
              \  let get x = List.hd x\n\
               end\n" ^ second ^ "let get x = List.hd x\n" );
            ("bin/foo.ml", "let run_cmd () = Dup.get []\n");
          ]
        in
        Alcotest.(check (list (list string)))
          "one allow covers neither" [ [ "Failure" ] ]
          (exns_of (partiality_of (dup ~second:"")));
        Alcotest.(check (list (list string)))
          "an allow on each is a barrier" []
          (exns_of
             (partiality_of
                (dup
                   ~second:
                     "(* radiolint: allow partiality -- callers pass a cons \
                      *)\n"))));
    Alcotest.test_case "non-entry lib functions are not reported" `Quick
      (fun () ->
        Alcotest.(check int)
          "clean" 0
          (List.length
             (partiality_of
                [ ("lib/core/foo.ml", "let boom () = failwith \"x\"\n") ])));
    Alcotest.test_case "a CLI entry reaches a raise through a module alias"
      `Quick (fun () ->
        Alcotest.(check (list (list string)))
          "the alias is followed" [ [ "Lib.Boom" ] ]
          (exns_of
             (partiality_of
                [
                  alias_lib;
                  ( "bin/foo.ml",
                    "module L = Radio_lib.Lib\nlet run_cmd () = L.boom ()\n" );
                ])));
    Alcotest.test_case "a Pool task reaches a raise through a module alias"
      `Quick (fun () ->
        match
          partiality_of
            [
              alias_lib;
              ( "lib/exec/work.ml",
                "module L = Radio_lib.Lib\n\
                 let run pool xs = Radio_exec.Pool.map pool ~f:L.boom xs\n" );
            ]
        with
        | [ f ] ->
            Alcotest.(check (list string)) "Boom" [ "Lib.Boom" ] f.Partiality.exns;
            Alcotest.(check bool) "task finding" true (f.Partiality.kind = `Task)
        | fs ->
            Alcotest.failf "expected exactly one finding, got %d"
              (List.length fs));
    Alcotest.test_case "a handler naming the exception through an alias \
                        subtracts it" `Quick (fun () ->
        Alcotest.(check (list (list string)))
          "clean" []
          (exns_of
             (partiality_of
                [
                  alias_lib;
                  ( "bin/foo.ml",
                    "module L = Radio_lib.Lib\n\
                     let run_cmd () = try Lib.boom () with L.Boom -> ()\n" );
                ])));
    Alcotest.test_case "a match with an exception case subtracts it" `Quick
      (fun () ->
        Alcotest.(check (list (list string)))
          "clean" []
          (exns_of
             (partiality_of
                [
                  alias_lib;
                  ( "bin/foo.ml",
                    "let run_cmd () =\n\
                    \  match Lib.boom () with\n\
                    \  | () -> 0\n\
                    \  | exception Lib.Boom -> 2\n" );
                ])));
    Alcotest.test_case "an unhandled channel opener raises Sys_error" `Quick
      (fun () ->
        Alcotest.(check (list (list string)))
          "Sys_error reported" [ [ "Sys_error" ] ]
          (exns_of
             (partiality_of
                [ ("bin/foo.ml", "let load_cmd path = open_in path\n") ])));
    Alcotest.test_case "a handled channel opener is clean" `Quick (fun () ->
        Alcotest.(check (list (list string)))
          "clean" []
          (exns_of
             (partiality_of
                [
                  ( "bin/foo.ml",
                    "let load_cmd path =\n\
                    \  try In_channel.with_open_text path In_channel.input_all\n\
                    \  with Sys_error _ -> \"\"\n" );
                ])));
    Alcotest.test_case "an allow on a raising line drops that source" `Quick
      (fun () ->
        Alcotest.(check (list (list string)))
          "only the unannotated line" [ [ "Not_found" ] ]
          (exns_of
             (partiality_of
                [
                  ( "bin/foo.ml",
                    "let run_cmd tbl =\n\
                    \  (* radiolint: allow partiality -- tbl holds 1 *)\n\
                    \  ignore (Option.get (Hashtbl.find_opt tbl 1));\n\
                    \  Hashtbl.find tbl 2\n" );
                ])));
  ]

(* ------------------------------------------------------------------ *)
(* Differential: frozen pre-refactor cores vs the dataflow framework   *)
(* ------------------------------------------------------------------ *)

(* The taint and effect analyses were re-expressed as instances of the
   generic dataflow framework (tools/lint/dataflow.ml).  The refactor
   must be behavior-preserving, so these tests freeze the original
   reverse-edge worklist cores — copied verbatim from the pre-refactor
   taint.ml/effects.ml, reduced to string serialization — and assert
   both engines produce identical findings (sinks, classes and full
   witness chains) on fixtures and on the real lib/ tree. *)

module Frozen = struct
  let hop_repr name path line = Printf.sprintf "%s@%s:%d" name path line

  type tcause = Prim of string * int | Tcall of string * int

  let taint ?(checked = Rules.deterministic_boundary)
      ?(exempt = Rules.random_allowed) cg =
    let barrier (d : Callgraph.def) =
      exempt d.Callgraph.def_path
      || Callgraph.allowed cg ~path:d.Callgraph.def_path
           ~line:d.Callgraph.def_line ~rule:Taint.rule
    in
    let tainted : (string, tcause) Hashtbl.t = Hashtbl.create 32 in
    let callers : (string, Callgraph.def * int) Hashtbl.t =
      Hashtbl.create 64
    in
    let queue = Queue.create () in
    List.iter
      (fun (d : Callgraph.def) ->
        if not (barrier d) then begin
          let top = Callgraph.module_name_of_path d.Callgraph.def_path in
          List.iter
            (fun { Callgraph.target; ref_line } ->
              (match Taint.primitive target with
              | Some p when not (Hashtbl.mem tainted d.Callgraph.key) ->
                  Hashtbl.replace tainted d.Callgraph.key (Prim (p, ref_line));
                  Queue.add d.Callgraph.key queue
              | _ -> ());
              match Taint.resolve cg ~top target with
              | Some callee when callee <> d.Callgraph.key ->
                  Hashtbl.add callers callee (d, ref_line)
              | _ -> ())
            d.Callgraph.refs
        end)
      (Callgraph.defs cg);
    while not (Queue.is_empty queue) do
      let callee = Queue.pop queue in
      List.iter
        (fun ((d : Callgraph.def), line) ->
          if not (Hashtbl.mem tainted d.Callgraph.key) then begin
            Hashtbl.replace tainted d.Callgraph.key (Tcall (callee, line));
            Queue.add d.Callgraph.key queue
          end)
        (Hashtbl.find_all callers callee)
    done;
    let chain_of (d : Callgraph.def) =
      let rec go (d : Callgraph.def) acc =
        let hop =
          hop_repr d.Callgraph.display d.Callgraph.def_path
            d.Callgraph.def_line
        in
        match Hashtbl.find_opt tainted d.Callgraph.key with
        | Some (Prim (p, line)) ->
            ( List.rev
                (hop_repr p d.Callgraph.def_path line :: hop :: acc),
              p )
        | Some (Tcall (callee, _)) -> (
            match Callgraph.find cg callee with
            | Some next -> go next (hop :: acc)
            | None -> (List.rev (hop :: acc), "?"))
        | None -> (List.rev (hop :: acc), "?")
      in
      go d []
    in
    Callgraph.defs cg
    |> List.filter (fun (d : Callgraph.def) ->
           checked d.Callgraph.def_path
           && Hashtbl.mem tainted d.Callgraph.key)
    |> List.map (fun (d : Callgraph.def) ->
           let chain, sink = chain_of d in
           Printf.sprintf "%s <- %s via %s" d.Callgraph.display sink
             (String.concat " -> " chain))
    |> List.sort compare

  type ecause = Edirect of string * int | Ecall of string * int

  let effects ?(exempt = Effects.intern_exempt) cg =
    let barrier (d : Callgraph.def) =
      exempt d.Callgraph.def_path
      || Callgraph.allowed cg ~path:d.Callgraph.def_path
           ~line:d.Callgraph.def_line ~rule:Effects.rule
    in
    let table : (string, Effects.cls * ecause) Hashtbl.t =
      Hashtbl.create 64
    in
    let cls_of key =
      match Hashtbl.find_opt table key with
      | Some (c, _) -> c
      | None -> Effects.Pure
    in
    let direct_of ~top (r : Callgraph.reference) =
      if Effects.shared_primitive r.Callgraph.target then
        Some
          ( Effects.Shared_mut,
            String.concat "." r.Callgraph.target,
            r.Callgraph.ref_line )
      else if Effects.io_primitive r.Callgraph.target then
        Some
          ( Effects.Io,
            String.concat "." r.Callgraph.target,
            r.Callgraph.ref_line )
      else
        match Taint.resolve cg ~top r.Callgraph.target with
        | Some key when Callgraph.is_mutable cg key ->
            let name =
              match Callgraph.find cg key with
              | Some d -> d.Callgraph.display
              | None -> key
            in
            Some (Effects.Shared_mut, name, r.Callgraph.ref_line)
        | _ ->
            if Effects.mutation r.Callgraph.target then
              Some
                ( Effects.Local_mut,
                  String.concat "." r.Callgraph.target,
                  r.Callgraph.ref_line )
            else None
    in
    let callers : (string, Callgraph.def * int) Hashtbl.t =
      Hashtbl.create 64
    in
    let queue = Queue.create () in
    let raise_to key c cause =
      if Effects.rank c > Effects.rank (cls_of key) then begin
        Hashtbl.replace table key (c, cause);
        Queue.add key queue
      end
    in
    List.iter
      (fun (d : Callgraph.def) ->
        if not (barrier d) then begin
          let top = Callgraph.module_name_of_path d.Callgraph.def_path in
          List.iter
            (fun (r : Callgraph.reference) ->
              (match direct_of ~top r with
              | Some (c, name, line) ->
                  raise_to d.Callgraph.key c (Edirect (name, line))
              | None -> ());
              match Taint.resolve cg ~top r.Callgraph.target with
              | Some callee when callee <> d.Callgraph.key ->
                  Hashtbl.add callers callee (d, r.Callgraph.ref_line)
              | _ -> ())
            d.Callgraph.refs;
          List.iter
            (fun line ->
              raise_to d.Callgraph.key Effects.Local_mut
                (Edirect ("<- (record field)", line)))
            d.Callgraph.setfield_lines
        end)
      (Callgraph.defs cg);
    while not (Queue.is_empty queue) do
      let callee = Queue.pop queue in
      let c = cls_of callee in
      List.iter
        (fun ((d : Callgraph.def), line) ->
          raise_to d.Callgraph.key c (Ecall (callee, line)))
        (Hashtbl.find_all callers callee)
    done;
    let chain_of (d : Callgraph.def) =
      let rec go (d : Callgraph.def) acc seen =
        let hop =
          hop_repr d.Callgraph.display d.Callgraph.def_path
            d.Callgraph.def_line
        in
        match Hashtbl.find_opt table d.Callgraph.key with
        | Some (_, Edirect (name, line)) ->
            ( List.rev
                (hop_repr name d.Callgraph.def_path line :: hop :: acc),
              name )
        | Some (_, Ecall (callee, _)) when not (List.mem callee seen) -> (
            match Callgraph.find cg callee with
            | Some next -> go next (hop :: acc) (callee :: seen)
            | None -> (List.rev (hop :: acc), "?"))
        | _ -> (List.rev (hop :: acc), "?")
      in
      go d [] [ d.Callgraph.key ]
    in
    let classify_repr =
      Callgraph.defs cg
      |> List.map (fun (d : Callgraph.def) ->
             let cls = cls_of d.Callgraph.key in
             let chain =
               if cls = Effects.Pure then []
               else fst (chain_of d)
             in
             Printf.sprintf "%s@%s:%d=%s via %s" d.Callgraph.display
               d.Callgraph.def_path d.Callgraph.def_line
               (Effects.cls_name cls)
               (String.concat " -> " chain))
      |> List.sort compare
    in
    let escapes_repr =
      Callgraph.defs cg
      |> List.filter_map (fun (d : Callgraph.def) ->
             if d.Callgraph.tasks = [] || barrier d then None
             else
               List.fold_left
                 (fun worst (t : Callgraph.task) ->
                   let top =
                     Callgraph.module_name_of_path d.Callgraph.def_path
                   in
                   let submit_hop =
                     hop_repr d.Callgraph.display d.Callgraph.def_path
                       t.Callgraph.submit_line
                   in
                   let offence =
                     List.fold_left
                       (fun worst (r : Callgraph.reference) ->
                         let candidate =
                           match direct_of ~top r with
                           | Some (c, name, line)
                             when not (Effects.le c Effects.Local_mut) ->
                               Some
                                 ( c,
                                   [
                                     submit_hop;
                                     hop_repr name d.Callgraph.def_path line;
                                   ],
                                   name )
                           | _ -> (
                               match
                                 Taint.resolve cg ~top r.Callgraph.target
                               with
                               | Some callee
                                 when callee <> d.Callgraph.key
                                      && not
                                           (Effects.le (cls_of callee)
                                              Effects.Local_mut) -> (
                                   match Callgraph.find cg callee with
                                   | Some cd ->
                                       let chain, source = chain_of cd in
                                       Some
                                         ( cls_of callee,
                                           submit_hop :: chain,
                                           source )
                                   | None -> None)
                               | _ -> None)
                         in
                         match (worst, candidate) with
                         | None, c -> c
                         | Some _, None -> worst
                         | Some (wc, _, _), Some (cc, _, _) ->
                             if Effects.rank cc > Effects.rank wc then
                               candidate
                             else worst)
                       None t.Callgraph.task_refs
                   in
                   match offence with
                   | None -> worst
                   | Some (c, chain, source) -> (
                       match worst with
                       | None ->
                           Some (t.Callgraph.submit_line, c, chain, source)
                       | Some (_, wc, _, _) ->
                           if Effects.rank c > Effects.rank wc then
                             Some
                               (t.Callgraph.submit_line, c, chain, source)
                           else worst))
                 None d.Callgraph.tasks
               |> Option.map (fun (sl, c, chain, source) ->
                      Printf.sprintf "%s:%d %s %s via %s"
                        d.Callgraph.display sl (Effects.cls_name c) source
                        (String.concat " -> " chain)))
      |> List.sort compare
    in
    (classify_repr, escapes_repr)
end

let live_hop (h : Taint.hop) =
  Frozen.hop_repr h.Taint.name h.Taint.hop_path h.Taint.hop_line

let live_taint ?checked cg =
  Taint.analyze ?checked cg
  |> List.map (fun (f : Taint.finding) ->
         Printf.sprintf "%s <- %s via %s" f.Taint.func.Callgraph.display
           f.Taint.sink
           (String.concat " -> " (List.map live_hop f.Taint.chain)))
  |> List.sort compare

let live_effects cg =
  let classify_repr =
    Effects.classify cg
    |> List.map (fun (i : Effects.info) ->
           Printf.sprintf "%s@%s:%d=%s via %s" i.Effects.def.Callgraph.display
             i.Effects.def.Callgraph.def_path
             i.Effects.def.Callgraph.def_line
             (Effects.cls_name i.Effects.cls)
             (String.concat " -> " (List.map live_hop i.Effects.chain)))
    |> List.sort compare
  in
  let escapes_repr =
    Effects.escapes cg
    |> List.map (fun (f : Effects.finding) ->
           Printf.sprintf "%s:%d %s %s via %s"
             f.Effects.func.Callgraph.display f.Effects.submit_line
             (Effects.cls_name f.Effects.cls) f.Effects.source
             (String.concat " -> " (List.map live_hop f.Effects.chain)))
    |> List.sort compare
  in
  (classify_repr, escapes_repr)

let differential_sources =
  [
    ( "lib/util/util.ml",
      "let shuffle arr =\n\
       \  Array.iteri (fun i _ -> ignore (Random.int (i + 1))) arr\n\
       let tick () = Unix.gettimeofday ()\n" );
    ("lib/drip/drip.ml", "let step order = Util.shuffle order; order\n");
    ( "lib/core/census.ml",
      "let cache = Hashtbl.create 16\n\
       let note k = Hashtbl.replace cache k ()\n\
       let audit c = Util.tick () +. float_of_int c\n\
       let run pool xs = Radio_exec.Pool.map pool ~f:audit xs\n\
       let local xs = Radio_exec.Pool.map pool ~f:(fun x -> x + 1) xs\n" );
  ]

let real_lib_cg () =
  (* Tests run from _build/default/test; the copied source tree sits one
     level up.  Skip (rather than fail) when it is not materialized. *)
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then begin
    match Driver.callgraph [ "../lib" ] with
    | Ok cg -> Some cg
    | Error f -> Alcotest.failf "%a" Driver.pp_finding f
  end
  else None

let differential_tests =
  [
    Alcotest.test_case "taint: framework matches the frozen core on \
                        fixtures" `Quick (fun () ->
        let cg = Callgraph.of_sources differential_sources in
        Alcotest.(check (list string))
          "identical findings"
          (Frozen.taint cg) (live_taint cg));
    Alcotest.test_case "effects: framework matches the frozen core on \
                        fixtures" `Quick (fun () ->
        let cg = Callgraph.of_sources differential_sources in
        let fc, fe = Frozen.effects cg in
        let lc, le = live_effects cg in
        Alcotest.(check (list string)) "identical classes" fc lc;
        Alcotest.(check (list string)) "identical escapes" fe le);
    Alcotest.test_case "taint: framework matches the frozen core on the \
                        real lib tree" `Quick (fun () ->
        match real_lib_cg () with
        | None -> ()
        | Some cg ->
            let checked _ = true in
            Alcotest.(check (list string))
              "identical findings"
              (Frozen.taint ~checked cg)
              (live_taint ~checked cg));
    Alcotest.test_case "effects: framework matches the frozen core on \
                        the real lib tree" `Quick (fun () ->
        match real_lib_cg () with
        | None -> ()
        | Some cg ->
            let fc, fe = Frozen.effects cg in
            let lc, le = live_effects cg in
            Alcotest.(check (list string)) "identical classes" fc lc;
            Alcotest.(check (list string)) "identical escapes" fe le);
  ]

(* ------------------------------------------------------------------ *)
(* SARIF + scan (Driver)                                               *)
(* ------------------------------------------------------------------ *)

let sample_findings =
  [
    {
      Driver.rule = "random";
      path = "lib/core/foo.ml";
      line = 3;
      message = "a \"quoted\" diagnostic";
      fingerprint = "random:lib/core/foo.ml:3";
      related = [];
    };
    {
      Driver.rule = "taint";
      path = "lib/drip/drip.ml";
      line = 1;
      message = "Drip.step → Util.shuffle → Random.int";
      fingerprint = "taint:lib/drip/drip.ml:Drip.step:Random.int";
      related = [];
    };
  ]

let sarif_tests =
  [
    Alcotest.test_case "SARIF carries the required 2.1.0 fields" `Quick
      (fun () ->
        let doc = Driver.to_sarif sample_findings in
        let has n = Alcotest.(check bool) n true (contains ~needle:n doc) in
        has "\"$schema\":";
        has "sarif-schema-2.1.0.json";
        has "\"version\":\"2.1.0\"";
        has "\"runs\":";
        has "\"tool\":{\"driver\":{\"name\":\"radiolint\"";
        has "\"rules\":[";
        has "\"results\":[";
        has "\"ruleId\":\"random\"";
        has "\"level\":\"error\"";
        has "\"message\":{\"text\":\"a \\\"quoted\\\" diagnostic\"}";
        has "\"artifactLocation\":{\"uri\":\"lib/core/foo.ml\"}";
        has "\"region\":{\"startLine\":3}";
        has
          "\"partialFingerprints\":{\"radiolint/v1\":\"taint:lib/drip/drip.ml:Drip.step:Random.int\"}");
    Alcotest.test_case "effect findings carry an effectClass property" `Quick
      (fun () ->
        let doc =
          Driver.to_sarif
            [
              {
                Driver.rule = "effect";
                path = "lib/analysis/foo.ml";
                line = 4;
                message = "Pool task reaches SharedMut state Foo.cache";
                fingerprint = "effect:lib/analysis/foo.ml:Foo.go:SharedMut";
                related = [];
              };
            ]
        in
        Alcotest.(check bool)
          "properties bag present" true
          (contains ~needle:"\"properties\":{\"effectClass\":\"SharedMut\"}"
             doc);
        (* Non-effect findings carry no properties bag. *)
        let plain = Driver.to_sarif sample_findings in
        Alcotest.(check bool)
          "absent elsewhere" false
          (contains ~needle:"\"properties\"" plain));
    Alcotest.test_case "witness chains become relatedLocations" `Quick
      (fun () ->
        let doc =
          Driver.to_sarif
            [
              {
                Driver.rule = "taint";
                path = "lib/drip/drip.ml";
                line = 1;
                message = "Drip.step → Util.shuffle → Random.int";
                fingerprint = "taint:lib/drip/drip.ml:Drip.step:Random.int";
                related =
                  [
                    ("lib/drip/drip.ml", 1, "Drip.step");
                    ("lib/util/util.ml", 2, "Random.int");
                  ];
              };
            ]
        in
        let has n = Alcotest.(check bool) n true (contains ~needle:n doc) in
        has "\"relatedLocations\":[";
        has "\"artifactLocation\":{\"uri\":\"lib/util/util.ml\"}";
        has "\"region\":{\"startLine\":2}";
        has "\"message\":{\"text\":\"Random.int\"}";
        (* Chainless findings carry no relatedLocations at all. *)
        Alcotest.(check bool)
          "absent elsewhere" false
          (contains ~needle:"relatedLocations"
             (Driver.to_sarif sample_findings)));
    Alcotest.test_case "empty finding set is still a complete document"
      `Quick (fun () ->
        let doc = Driver.to_sarif [] in
        Alcotest.(check bool)
          "results empty" true
          (contains ~needle:"\"results\":[]" doc);
        Alcotest.(check bool)
          "version present" true
          (contains ~needle:"\"version\":\"2.1.0\"" doc));
  ]

let scan_tests =
  [
    Alcotest.test_case "unparseable file is a parse-error finding" `Quick
      (fun () ->
        let hazards =
          "let counter = ref 0\n\
           let d = Domain.spawn work\n\
           let f x = try g x with _ -> 0\n\
           let h = function Some x -> x | None -> assert false\n"
        in
        with_temp_tree (fun ~dir ~core ->
            write (Filename.concat core "broken.mli") "";
            write (Filename.concat core "broken.ml") hazards;
            Alcotest.(check (list string))
              "parsed, the hazards fire"
              [
                "toplevel-mutable-state";
                "domain-safety";
                "catch-all-exception";
                "assert-false";
              ]
              (scan_rules dir);
            (* One syntax error hides every hazard from every rule, so the
               file itself is the finding, at the parser's line. *)
            write (Filename.concat core "broken.ml") (hazards ^ "let = 1\n");
            Alcotest.(check (list (pair string int)))
              "one positioned parse-error"
              [ ("parse-error", 5) ]
              (List.map
                 (fun f -> (f.Driver.rule, f.Driver.line))
                 (Driver.scan [ dir ]))));
  ]

(* ------------------------------------------------------------------ *)
(* Layer 1: model-conformance checker                                  *)
(* ------------------------------------------------------------------ *)

(* A 4-cycle with staggered tags: feasible, collision-free beacon probes. *)
let cycle4 = C.create (G.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ])
    [| 0; 1; 2; 3 |]

(* Two nodes joined by an edge, waking together: simultaneous transmissions
   and a clean double-transmitter round. *)
let pair = C.create (G.of_edges 2 [ (0, 1) ]) [| 0; 0 |]

let run ?(config = cycle4) proto =
  Engine.run ~max_rounds:1_000 ~record_trace:true proto config

let check_ok name report =
  Alcotest.(check string) name "no violations" (Report.to_string report)

let has_check name vs =
  List.exists (fun v -> v.Report.check = name) vs

let clean_tests =
  [
    Alcotest.test_case "beacon outcome validates" `Quick (fun () ->
        let proto = P.beacon () in
        check_ok "beacon" (Invariants.validate ~protocol:proto (run proto)));
    Alcotest.test_case "silent outcome validates" `Quick (fun () ->
        let proto = P.silent ~lifetime:3 () in
        check_ok "silent" (Invariants.validate ~protocol:proto (run proto)));
    Alcotest.test_case "colliding pair validates" `Quick (fun () ->
        let proto = P.beacon ~delay:1 () in
        check_ok "pair"
          (Invariants.validate ~protocol:proto (run ~config:pair proto)));
    Alcotest.test_case "cut-off run validates" `Quick (fun () ->
        let proto = P.silent ~lifetime:100 () in
        let o = Engine.run ~max_rounds:10 ~record_trace:true proto cycle4 in
        Alcotest.(check bool) "not terminated" false o.Engine.all_terminated;
        check_ok "cutoff" (Invariants.validate ~protocol:proto o));
  ]

(* A deterministic-looking protocol whose instances share a spawn counter:
   exactly the shared mutable state protocol.mli forbids.  Every node
   transmits its spawn index, so nodes with identical histories act
   differently and a fresh replay diverges. *)
let shared_state_protocol () =
  let spawned = ref 0 in
  {
    P.name = "shared-spawn-counter";
    spawn =
      (fun () ->
        incr spawned;
        let me = string_of_int !spawned in
        let rounds = ref 0 in
        {
          P.on_wakeup = (fun _ -> ());
          decide =
            (fun () ->
              if !rounds = 0 then P.Transmit me else P.Terminate);
          observe = (fun _ -> incr rounds);
          skip = (fun k -> rounds := !rounds + k);
        });
  }

(* A protocol whose behaviour flips between whole runs: nondeterminism that
   only the rerun check can see. *)
let run_flipping_protocol () =
  let first_run = ref true in
  {
    P.name = "run-flipper";
    spawn =
      (fun () ->
        let transmit = !first_run in
        let rounds = ref 0 in
        {
          P.on_wakeup = (fun _ -> first_run := false);
          decide =
            (fun () ->
              if !rounds = 0 && transmit then P.Transmit "x"
              else if !rounds >= 1 then P.Terminate
              else P.Listen);
          observe = (fun _ -> incr rounds);
          skip = (fun k -> rounds := !rounds + k);
        });
  }

let broken_protocol_tests =
  [
    Alcotest.test_case "shared spawn state is flagged" `Quick (fun () ->
        let proto = shared_state_protocol () in
        let o = run ~config:pair proto in
        let vs = Invariants.validate ~protocol:proto o in
        Alcotest.(check bool) "replay diverges" true
          (has_check "purity.replay" vs);
        Alcotest.(check bool) "anonymity broken" true
          (has_check "anonymity" vs));
    Alcotest.test_case "cross-run nondeterminism is flagged" `Quick (fun () ->
        let proto = run_flipping_protocol () in
        let o = run proto in
        let vs = Purity.rerun proto o in
        Alcotest.(check bool) "rerun diverges" true
          (has_check "purity.rerun" vs));
  ]

let corrupted_outcome_tests =
  [
    Alcotest.test_case "post-terminate transmission is flagged" `Quick
      (fun () ->
        (* The engine can never produce this (it stops consulting an
           instance after Terminate), so corrupt a real outcome: pretend
           node 0 terminated before its recorded transmission. *)
        let o = run (P.beacon ()) in
        o.Engine.done_local.(0) <- 1;
        let vs = Invariants.validate o in
        Alcotest.(check bool) "termination permanence" true
          (has_check "termination-permanence" vs));
    Alcotest.test_case "corrupted reception entry is flagged" `Quick
      (fun () ->
        let o = run (P.beacon ()) in
        (* Node 1 is woken by node 0's lone beacon; forge a collision. *)
        let h = H.to_array o.Engine.histories.(1) in
        h.(1) <- H.Collision;
        o.Engine.histories.(1) <- H.of_array h;
        let vs = Invariants.validate o in
        Alcotest.(check bool) "collision semantics" true
          (has_check "collision-semantics" vs));
    Alcotest.test_case "corrupted wake-up kind is flagged" `Quick (fun () ->
        let o = run (P.beacon ()) in
        let v =
          match Array.to_list o.Engine.forced |> List.mapi (fun i f -> (i, f))
                |> List.find_opt (fun (_, f) -> f)
          with
          | Some (v, _) -> v
          | None -> Alcotest.fail "expected a forced wake-up"
        in
        o.Engine.forced.(v) <- false;
        let vs = Invariants.validate o in
        Alcotest.(check bool) "wakeup kind" true (has_check "wakeup" vs));
    Alcotest.test_case "truncated history is flagged" `Quick (fun () ->
        let o = run (P.silent ~lifetime:2 ()) in
        o.Engine.done_local.(2) <- o.Engine.done_local.(2) + 1;
        let vs = Invariants.validate o in
        Alcotest.(check bool) "history length" true
          (has_check "history-length" vs));
    Alcotest.test_case "corrupted all_terminated is flagged" `Quick (fun () ->
        let o = run (P.beacon ()) in
        o.Engine.done_local.(3) <- -1;
        let vs = Invariants.validate o in
        Alcotest.(check bool) "termination consistency" true
          (has_check "termination" vs));
  ]

(* ------------------------------------------------------------------ *)
(* Layer 1, perturbed model: validate_faulty                           *)
(* ------------------------------------------------------------------ *)

module FP = Radio_sim.Fault_plan

let frun ?(config = cycle4) plan proto =
  Engine.run_plan ~max_rounds:1_000 ~record_trace:true plan proto config

(* Node 1 (tag 1) wakes in round 1 and crash-stops in round 3, mid-run. *)
let crash_plan = [ FP.Crash { node = 1; round = 3 } ]

let drop_0_to_1 = FP.Drop { src = 0; dst = 1; round = 2 }

let faulty_clean_tests =
  [
    Alcotest.test_case "crashed run validates" `Quick (fun () ->
        let proto = P.silent ~lifetime:5 () in
        let fo = frun crash_plan proto in
        Alcotest.(check int) "crashed mid-run" 3 fo.Engine.crashed_at.(1);
        check_ok "crash" (Invariants.validate_faulty ~protocol:proto fo));
    Alcotest.test_case "mixed-plan run validates" `Quick (fun () ->
        let proto = P.beacon () in
        let plan =
          [
            FP.Noise { node = 3; round = 1 };
            FP.Drop { src = 0; dst = 1; round = 1 };
            FP.Jitter { node = 2; delta = 1 };
          ]
        in
        let fo = frun plan proto in
        check_ok "mixed" (Invariants.validate_faulty ~protocol:proto fo));
    Alcotest.test_case "empty plan delegates to validate" `Quick (fun () ->
        let proto = P.beacon () in
        let fo = frun FP.empty proto in
        Alcotest.(check bool) "nothing fired" true (fo.Engine.ledger = []);
        check_ok "empty" (Invariants.validate_faulty ~protocol:proto fo));
  ]

let faulty_corrupted_tests =
  [
    Alcotest.test_case "crashed node marked terminated is flagged" `Quick
      (fun () ->
        let fo = frun crash_plan (P.silent ~lifetime:5 ()) in
        fo.Engine.base.Engine.done_local.(1) <- 2;
        let vs = Invariants.validate_faulty fo in
        Alcotest.(check bool) "termination" true (has_check "termination" vs));
    Alcotest.test_case "history past the crash round is flagged" `Quick
      (fun () ->
        let fo = frun crash_plan (P.silent ~lifetime:5 ()) in
        (* Node 1 woke in round 1 and crashed in round 3: two entries.
           Pretending it crashed a round earlier truncates nothing, so the
           recorded history is now one entry too long. *)
        fo.Engine.crashed_at.(1) <- 2;
        let vs = Invariants.validate_faulty fo in
        Alcotest.(check bool) "crash-silence" true
          (has_check "crash-silence" vs));
    Alcotest.test_case "forged ledger entry is flagged" `Quick (fun () ->
        let fo = frun crash_plan (P.silent ~lifetime:5 ()) in
        let forged =
          {
            Engine.round = 0;
            fault = FP.Noise { node = 0; round = 0 };
            observed_by = [ 0 ];
          }
        in
        let fo = { fo with Engine.ledger = fo.Engine.ledger @ [ forged ] } in
        let vs = Invariants.validate_faulty fo in
        Alcotest.(check bool) "fault-ledger" true (has_check "fault-ledger" vs));
    Alcotest.test_case "unscheduled crashed_at entry is flagged" `Quick
      (fun () ->
        let fo = frun crash_plan (P.silent ~lifetime:5 ()) in
        fo.Engine.crashed_at.(0) <- 2;
        let vs = Invariants.validate_faulty fo in
        Alcotest.(check bool) "fault-ledger" true (has_check "fault-ledger" vs));
    Alcotest.test_case "dropped message in a history is flagged" `Quick
      (fun () ->
        (* beacon-1 on cycle4: node 1 wakes at its tag 1 and listens in
           round 2, when node 0 transmits alone; the drop silences it. *)
        let fo = frun [ drop_0_to_1 ] (P.beacon ~delay:1 ()) in
        let h = H.to_array fo.Engine.base.Engine.histories.(1) in
        Alcotest.(check bool) "dropped" true (H.equal_entry h.(1) H.Silence);
        h.(1) <- H.Message "1";
        fo.Engine.base.Engine.histories.(1) <- H.of_array h;
        let vs = Invariants.validate_faulty fo in
        Alcotest.(check bool) "collision-semantics" true
          (has_check "collision-semantics" vs));
    Alcotest.test_case "message heard through noise is flagged" `Quick
      (fun () ->
        let fo =
          frun [ FP.Noise { node = 1; round = 2 } ] (P.beacon ~delay:1 ())
        in
        let h = H.to_array fo.Engine.base.Engine.histories.(1) in
        Alcotest.(check bool) "noisy" true (H.equal_entry h.(1) H.Collision);
        h.(1) <- H.Message "1";
        fo.Engine.base.Engine.histories.(1) <- H.of_array h;
        let vs = Invariants.validate_faulty fo in
        Alcotest.(check bool) "collision-semantics" true
          (has_check "collision-semantics" vs));
    Alcotest.test_case "forged waking message is flagged" `Quick (fun () ->
        (* Node 3 is force-woken by node 0's lone beacon in round 2. *)
        let fo = frun [ drop_0_to_1 ] (P.beacon ~delay:1 ()) in
        let o = fo.Engine.base in
        Alcotest.(check bool) "forced" true o.Engine.forced.(3);
        let forge (ev : Trace.round_events) =
          let woken =
            List.map
              (function
                | 3, Trace.Forced _ -> (3, Trace.Forced "forged")
                | w -> w)
              ev.Trace.woken
          in
          { ev with Trace.woken }
        in
        let o = { o with Engine.trace = List.map forge o.Engine.trace } in
        let vs = Invariants.validate_faulty { fo with Engine.base = o } in
        Alcotest.(check bool) "forced-uniqueness" true
          (has_check "forced-uniqueness" vs));
  ]

let () =
  Alcotest.run "lint"
    [
      ("rule-random", random_tests);
      ("rule-obj-magic", obj_magic_tests);
      ("rule-physical-equality", physical_eq_tests);
      ("rule-hashtbl-iteration", hashtbl_tests);
      ("rule-fault-purity", fault_purity_tests);
      ("rule-missing-mli", missing_mli_tests);
      ("strip-quoted-strings", quoted_string_tests);
      ("ast-ported-rules", ast_ported_tests);
      ("ast-only-rules", ast_only_tests);
      ("rule-polymorphic-compare", poly_compare_tests);
      ("rule-domain-safety", domain_safety_tests);
      ("taint", taint_tests);
      ("effect-classes", effect_class_tests);
      ("effect-escapes", effect_escape_tests);
      ("ranges", ranges_tests);
      ("partiality", partiality_tests);
      ("dataflow-differential", differential_tests);
      ("sarif", sarif_tests);
      ("scan", scan_tests);
      ("invariants-clean", clean_tests);
      ("invariants-broken-protocols", broken_protocol_tests);
      ("invariants-corrupted-outcomes", corrupted_outcome_tests);
      ("invariants-faulty-clean", faulty_clean_tests);
      ("invariants-faulty-corrupted", faulty_corrupted_tests);
    ]
