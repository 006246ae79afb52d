(* Tests for Symmetry (automorphism certificates of infeasibility) and
   Fragility (sensitivity of feasibility to tag perturbations). *)

module C = Radio_config.Config
module F = Radio_config.Families
module G = Radio_graph.Graph
module Gen = Radio_graph.Gen
module RC = Radio_config.Random_config
module Cl = Election.Classifier
module Sym = Election.Symmetry
module Frag = Election.Fragility
module Fe = Election.Feasibility

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Symmetry certificates                                               *)
(* ------------------------------------------------------------------ *)

let test_certificate_validation () =
  let config = F.s_family 2 in
  (* The mirror automorphism of the path a-b-c-d with symmetric tags. *)
  let mirror = [| 3; 2; 1; 0 |] in
  check "mirror is a certificate" true (Sym.is_certificate config mirror);
  (* Bad candidates are rejected. *)
  check "identity rejected (fixed points)" false
    (Sym.is_certificate config [| 0; 1; 2; 3 |]);
  check "non-automorphism rejected" false
    (Sym.is_certificate config [| 1; 0; 3; 2 |]);
  check "non-permutation rejected" false
    (Sym.is_certificate config [| 3; 3; 1; 0 |]);
  check "tag-breaking rejected" false
    (Sym.is_certificate (F.h_family 2) mirror)

let test_find_on_symmetric_families () =
  List.iter
    (fun (name, config) ->
      match Sym.find config with
      | Some cert ->
          check (name ^ " certificate valid") true
            (Sym.is_certificate config cert)
      | None -> Alcotest.fail (name ^ ": expected a certificate"))
    [
      ("S_1", F.s_family 1);
      ("S_5", F.s_family 5);
      ("symmetric pair", F.symmetric_pair ());
      ("uniform cycle", C.uniform (Gen.cycle 8) 0);
      ("uniform clique", C.uniform (Gen.complete 5) 0);
      ("uniform hypercube", C.uniform (Gen.hypercube 3) 0);
      ("mirrored components", C.create (G.of_edges 4 [ (0, 1); (2, 3) ]) [| 0; 1; 0; 1 |]);
    ]

let test_no_certificate_for_feasible () =
  (* Soundness: a certificate implies infeasibility, so feasible
     configurations can never have one. *)
  List.iter
    (fun config -> check "no certificate" false (Sym.certified_infeasible config))
    [
      F.h_family 3;
      F.two_cells ();
      F.g_family 2;
      F.staircase_clique 5;
      C.create (G.empty 1) [| 0 |];
    ]

(* The n = 4 cells of the small universe (span <= 2). *)
let n4_universe () =
  List.concat_map
    (fun (n, _, configs) -> if n = 4 then configs else [])
    (Election.Census.universe ~max_n:4 ~max_span:2)

let test_soundness_on_census_universe () =
  (* Over every small configuration: certificate => classifier infeasible. *)
  let mismatches = ref 0 in
  let certified = ref 0 in
  let infeasible = ref 0 in
  List.iter
    (fun config ->
      let cert = Sym.certified_infeasible config in
      let feas = Cl.is_feasible (Cl.classify config) in
      if cert then begin
        incr certified;
        if feas then incr mismatches
      end;
      if not feas then incr infeasible)
    (n4_universe ());
  check_int "soundness violations" 0 !mismatches;
  check "certificates exist" true (!certified > 0);
  (* Incueteness is expected but on this tiny universe coverage is high. *)
  check "certificates cover some infeasibility" true (!certified <= !infeasible)

let test_incompleteness_documented () =
  (* An infeasible configuration without a fixed-point-free tag-preserving
     automorphism: two mirrored S_1-style wings sharing a centre?  Use a
     5-path with tags 0 1 9 1 0: mirror fixes the centre, so no
     fixed-point-free automorphism exists, yet ends/second nodes pair up...
     The configuration may or may not be feasible; find one infeasible
     without certificate by scanning the census. *)
  let example = ref None in
  List.iter
    (fun config ->
      if
        !example = None
        && (not (Cl.is_feasible (Cl.classify config)))
        && not (Sym.certified_infeasible config)
      then example := Some config)
    (n4_universe ());
  match !example with
  | Some _ -> check "incompleteness witnessed" true true
  | None ->
      (* On this universe the certificate might be complete; that is also
         fine, just record it. *)
      check "complete on tiny universe" true true

let test_budget_respected () =
  (* A tiny budget makes the search give up without crashing. *)
  let config = C.uniform (Gen.complete 8) 0 in
  match Sym.find ~budget:3 config with
  | Some cert -> check "still valid if found" true (Sym.is_certificate config cert)
  | None -> check "gave up quietly" true true

(* ------------------------------------------------------------------ *)
(* Fragility                                                           *)
(* ------------------------------------------------------------------ *)

let test_fragility_staircase_robust () =
  let r = Frag.single_tag (F.staircase_clique 4) in
  check_int "perturbation count" 16 r.Frag.perturbations;
  Alcotest.(check (float 1e-9)) "fully robust" 0.0 r.Frag.fragility;
  check "no breaking changes" true (r.Frag.breaking = [])

let test_fragility_h_family () =
  (* H_2 breaks exactly when a perturbation makes tags mirror-symmetric. *)
  let r = Frag.single_tag (F.h_family 2) in
  check "some breaking" true (r.Frag.breaking <> []);
  List.iter
    (fun (v, t) ->
      let tags = C.tags (F.h_family 2) in
      tags.(v) <- t;
      let broken = C.create (Gen.path 4) tags in
      check "reported change is breaking" false (Fe.is_feasible broken))
    r.Frag.breaking

let test_fragility_counts_consistent () =
  let r = Frag.single_tag (F.two_cells ()) in
  check_int "feasible + breaking = total" r.Frag.perturbations
    (r.Frag.still_feasible + List.length r.Frag.breaking)

let test_fragility_rejects_infeasible () =
  try
    ignore (Frag.single_tag (F.s_family 2));
    Alcotest.fail "accepted infeasible input"
  with Invalid_argument _ -> ()

let test_fragility_random_consistency () =
  let st = Random.State.make [| 404 |] in
  for _ = 1 to 10 do
    let config = RC.connected_gnp st ~n:6 ~p:0.5 ~span:3 in
    if Fe.is_feasible config then begin
      let r = Frag.single_tag config in
      check "fragility in [0,1]" true
        (r.Frag.fragility >= 0.0 && r.Frag.fragility <= 1.0);
      (* Every reported breaking change indeed breaks. *)
      List.iter
        (fun (v, t) ->
          let tags = C.tags config in
          tags.(v) <- t;
          check "breaks" false
            (Fe.is_feasible (C.create (C.graph config) tags)))
        r.Frag.breaking
    end
  done

let test_explain_dot () =
  let e = Election.Explain.explain (Cl.classify (F.s_family 2)) in
  let dot = Election.Explain.to_dot e in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check "mentions class" true (contains dot "C1");
  check "dashed symmetric nodes" true (contains dot "style=dashed");
  let f = Election.Explain.explain (Cl.classify (F.h_family 1)) in
  check "feasible uses doublecircle" true
    (contains (Election.Explain.to_dot f) "doublecircle")

let () =
  Alcotest.run "certificates"
    [
      ( "symmetry",
        [
          Alcotest.test_case "validation" `Quick test_certificate_validation;
          Alcotest.test_case "symmetric families" `Quick
            test_find_on_symmetric_families;
          Alcotest.test_case "feasible => none" `Quick
            test_no_certificate_for_feasible;
          Alcotest.test_case "soundness on census" `Slow
            test_soundness_on_census_universe;
          Alcotest.test_case "incompleteness" `Slow test_incompleteness_documented;
          Alcotest.test_case "budget" `Quick test_budget_respected;
        ] );
      ( "fragility",
        [
          Alcotest.test_case "staircase robust" `Quick
            test_fragility_staircase_robust;
          Alcotest.test_case "H_2 breaking set" `Quick test_fragility_h_family;
          Alcotest.test_case "counts" `Quick test_fragility_counts_consistent;
          Alcotest.test_case "rejects infeasible" `Quick
            test_fragility_rejects_infeasible;
          Alcotest.test_case "random consistency" `Quick
            test_fragility_random_consistency;
        ] );
      ( "explain-dot",
        [ Alcotest.test_case "rendering" `Quick test_explain_dot ] );
    ]
