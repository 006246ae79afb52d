(* Tests for the literal Classifier (Algorithms 1-4) against the paper's
   worked facts: H_m is feasible after one iteration, S_m infeasible after
   two, G_m feasible after m iterations with the centre as leader, fully
   symmetric configurations are infeasible, and the structural invariants
   (Observation 3.2, Corollary 3.3, Lemma 3.4) hold along the way. *)

module C = Radio_config.Config
module F = Radio_config.Families
module G = Radio_graph.Graph
module Gen = Radio_graph.Gen
module Cl = Election.Classifier
module Label = Election.Label
module Partition = Election.Partition

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let classify = Cl.classify

(* ------------------------------------------------------------------ *)
(* Label module                                                        *)
(* ------------------------------------------------------------------ *)

let test_label_order () =
  let t a b m = { Label.block = a; slot = b; mark = m } in
  check "block dominates" true
    (Label.compare_triple (t 1 9 Label.Many) (t 2 1 Label.One) < 0);
  check "slot next" true
    (Label.compare_triple (t 1 2 Label.Many) (t 1 3 Label.One) < 0);
  check "One before Many" true
    (Label.compare_triple (t 1 2 Label.One) (t 1 2 Label.Many) < 0);
  check "equal" true (Label.compare_triple (t 1 2 Label.One) (t 1 2 Label.One) = 0)

let test_label_merge () =
  let l = Label.of_neighbour_slots [ (2, 3); (1, 5); (2, 3); (2, 3) ] in
  check "sorted and merged" true
    (l
    = [
        { Label.block = 1; slot = 5; mark = Label.One };
        { Label.block = 2; slot = 3; mark = Label.Many };
      ])

let test_label_of_observations_rejects_duplicates () =
  Alcotest.check_raises "duplicate slot"
    (Invalid_argument "Label.of_observations: duplicate (block, slot)")
    (fun () ->
      ignore (Label.of_observations [ (1, 2, Label.One); (1, 2, Label.Many) ]))

(* A mark is part of the key: labels differing only in one mark are
   different labels, and the hashes the classifier and the DRIP key their
   tables by tell them apart. *)
let test_label_mark_matters () =
  let one = [ { Label.block = 1; slot = 2; mark = Label.One } ] in
  let many = [ { Label.block = 1; slot = 2; mark = Label.Many } ] in
  check "equal sees the mark" false (Label.equal one many);
  check "hash sees the mark" true (Label.hash one <> Label.hash many);
  check "key hash sees the mark" true
    (Label.hash_key 3 one <> Label.hash_key 3 many)

let test_label_mem () =
  let l = Label.of_neighbour_slots [ (1, 2); (1, 4); (1, 4) ] in
  check "found one" true (Label.mem ~block:1 ~slot:2 l = Some Label.One);
  check "found many" true (Label.mem ~block:1 ~slot:4 l = Some Label.Many);
  check "absent" true (Label.mem ~block:2 ~slot:2 l = None)

let test_label_to_string () =
  Alcotest.(check string) "null" "null" (Label.to_string []);
  Alcotest.(check string) "triples" "(1,2,1)(1,3,*)"
    (Label.to_string (Label.of_neighbour_slots [ (1, 3); (1, 2); (1, 3) ]))

(* ------------------------------------------------------------------ *)
(* Partition helpers                                                   *)
(* ------------------------------------------------------------------ *)

let test_compute_labels_excludes_twins () =
  (* Symmetric pair: both nodes class 1, same tag: labels must be null
     (the tuple is excluded when wCLASS = vCLASS and tw = tv). *)
  let labels =
    Partition.compute_labels (F.symmetric_pair ()) ~class_of:[| 1; 1 |]
  in
  check "null labels" true (labels.(0) = [] && labels.(1) = [])

let test_compute_labels_slots () =
  (* two_cells: tags [0;1], sigma 1; slot = sigma+1+tw-tv. *)
  let labels = Partition.compute_labels (F.two_cells ()) ~class_of:[| 1; 1 |] in
  check "node 0 sees slot 3" true
    (labels.(0) = [ { Label.block = 1; slot = 3; mark = Label.One } ]);
  check "node 1 sees slot 1" true
    (labels.(1) = [ { Label.block = 1; slot = 1; mark = Label.One } ])

let test_compute_labels_collision () =
  (* Star centre with two tag-twin leaves in the same class: the leaves'
     transmissions land in the same slot: Many. *)
  let config = C.create (Gen.star 3) [| 1; 0; 0 |] in
  let labels = Partition.compute_labels config ~class_of:[| 1; 1; 1 |] in
  check "centre hears Many" true
    (labels.(0) = [ { Label.block = 1; slot = 1; mark = Label.Many } ])

let test_singleton_class () =
  check "none" true
    (Partition.singleton_class ~num_classes:2 [| 1; 1; 2; 2 |] = None);
  check "smallest singleton" true
    (Partition.singleton_class ~num_classes:3 [| 3; 1; 1; 2 |] = Some 2);
  check "member lookup" true (Partition.member_of_class [| 3; 1; 1; 2 |] 3 = 0)

(* ------------------------------------------------------------------ *)
(* Verdicts on the paper's families                                    *)
(* ------------------------------------------------------------------ *)

let test_two_cells_feasible () =
  let run = classify (F.two_cells ()) in
  check "feasible" true (Cl.is_feasible run);
  check_int "one iteration" 1 (Cl.num_iterations run);
  Alcotest.(check (option int)) "leader 0" (Some 0) (Cl.canonical_leader run)

let test_symmetric_pair_infeasible () =
  let run = classify (F.symmetric_pair ()) in
  check "infeasible" false (Cl.is_feasible run);
  check_int "stalls immediately" 1 (Cl.num_iterations run)

let test_h_family_one_iteration () =
  (* Lemma 4.2: "each of the four nodes will be in a one-element class after
     iteration 1". *)
  for m = 1 to 8 do
    let run = classify (F.h_family m) in
    check "feasible" true (Cl.is_feasible run);
    check_int "one iteration" 1 (Cl.num_iterations run);
    let it = Cl.last_iteration run in
    check_int "four classes" 4 it.Cl.num_classes
  done

let test_s_family_infeasible () =
  (* Proposition 4.5: two classes of two, stable after iteration 2. *)
  for m = 1 to 8 do
    let run = classify (F.s_family m) in
    check "infeasible" false (Cl.is_feasible run);
    check_int "two iterations" 2 (Cl.num_iterations run);
    let it = Cl.last_iteration run in
    check_int "two classes" 2 it.Cl.num_classes;
    (* the symmetric pairs {a,d} and {b,c} *)
    check_int "a with d" it.Cl.new_class.(0) it.Cl.new_class.(3);
    check_int "b with c" it.Cl.new_class.(1) it.Cl.new_class.(2)
  done

let test_g_family_m_iterations_and_centre () =
  (* Proposition 4.1's proof: the central node b_{m+1} lands in a
     one-element class after m iterations. *)
  for m = 2 to 6 do
    let run = classify (F.g_family m) in
    check "feasible" true (Cl.is_feasible run);
    check_int "m iterations" m (Cl.num_iterations run);
    Alcotest.(check (option int))
      "centre elected"
      (Some (F.g_family_center m))
      (Cl.canonical_leader run)
  done

let test_singleton_configuration () =
  let run = classify (C.create (G.empty 1) [| 0 |]) in
  check "single node feasible" true (Cl.is_feasible run);
  Alcotest.(check (option int)) "leader 0" (Some 0) (Cl.canonical_leader run)

let test_uniform_tags_infeasible () =
  (* All nodes waking in the same round can never break symmetry (Section
     1.1) - on any graph. *)
  List.iter
    (fun g ->
      let run = classify (C.uniform g 0) in
      check "uniform infeasible" false (Cl.is_feasible run))
    [ Gen.path 2; Gen.cycle 5; Gen.complete 4; Gen.star 6; Gen.grid 3 3 ]

let test_uniform_singleton_is_feasible () =
  (* ... except the one-node network, which needs no symmetry breaking. *)
  check "n=1 uniform feasible" true
    (Cl.is_feasible (classify (C.uniform (G.empty 1) 0)))

let test_staircase_feasible () =
  for n = 2 to 8 do
    let run = classify (F.staircase_clique n) in
    check "staircase feasible" true (Cl.is_feasible run);
    check_int "one iteration suffices" 1 (Cl.num_iterations run)
  done

let test_tagged_cycle_symmetry () =
  (* Rotationally symmetric tags on a cycle: infeasible. *)
  let run = classify (F.tagged_cycle [| 0; 1; 0; 1; 0; 1 |]) in
  check "rotational symmetry infeasible" false (Cl.is_feasible run);
  (* Breaking the symmetry makes it feasible. *)
  let run2 = classify (F.tagged_cycle [| 0; 1; 0; 1; 1; 1 |]) in
  check "broken symmetry feasible" true (Cl.is_feasible run2)

let test_star_twin_leaves () =
  (* Two leaves with equal tags are forever indistinguishable - but the
     centre still has a unique history, so the configuration is feasible
     with the centre as the only possible leader. *)
  let twin = C.create (Gen.star 3) [| 0; 1; 1 |] in
  let run = classify twin in
  check "feasible via the centre" true (Cl.is_feasible run);
  Alcotest.(check (option int)) "centre leads" (Some 0) (Cl.canonical_leader run);
  let it = Cl.last_iteration run in
  check_int "twin leaves stay together" it.Cl.new_class.(1) it.Cl.new_class.(2);
  let distinct = C.create (Gen.star 3) [| 0; 1; 2 |] in
  check "distinct leaves feasible" true (Cl.is_feasible (classify distinct))

let test_disconnected_symmetric_components () =
  (* Two isolated edges with identical tag patterns: the two components
     mirror each other, no singleton can appear. *)
  let g = G.of_edges 4 [ (0, 1); (2, 3) ] in
  let run = classify (C.create g [| 0; 1; 0; 1 |]) in
  check "mirrored components infeasible" false (Cl.is_feasible run)

(* ------------------------------------------------------------------ *)
(* Structural invariants of the refinement                             *)
(* ------------------------------------------------------------------ *)

let iter_list run = run.Cl.iterations

let test_monotone_class_counts () =
  (* Corollary 3.3. *)
  List.iter
    (fun config ->
      let run = classify config in
      let counts = List.map (fun it -> it.Cl.num_classes) (iter_list run) in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a <= b && ascending rest
        | _ -> true
      in
      check "counts non-decreasing" true (ascending counts);
      List.iter
        (fun c -> check "counts within 1..n" true (1 <= c && c <= C.size config))
        counts)
    [ F.g_family 4; F.s_family 3; F.h_family 5; F.staircase_clique 6 ]

let test_refinement_is_refinement () =
  (* Observation 3.2: once separated, never merged. *)
  List.iter
    (fun config ->
      let run = classify config in
      let n = C.size config in
      List.iter
        (fun it ->
          for v = 0 to n - 1 do
            for w = 0 to n - 1 do
              if it.Cl.old_class.(v) <> it.Cl.old_class.(w) then
                check "separation persists" true
                  (it.Cl.new_class.(v) <> it.Cl.new_class.(w))
            done
          done)
        (iter_list run))
    [ F.g_family 3; F.s_family 4; F.tagged_cycle [| 0; 1; 2; 0; 1; 2 |] ]

let test_reps_belong_to_their_class () =
  List.iter
    (fun config ->
      let run = classify config in
      List.iter
        (fun it ->
          Array.iteri
            (fun i rep ->
              check_int "rep in its class" (i + 1) it.Cl.new_class.(rep))
            it.Cl.reps)
        (iter_list run))
    [ F.g_family 3; F.h_family 2; F.staircase_clique 5 ]

let test_iteration_count_bound () =
  (* Lemma 3.4: at most ceil(n/2) iterations. *)
  List.iter
    (fun config ->
      let run = classify config in
      check "iteration bound" true
        (Cl.num_iterations run <= (C.size config + 1) / 2))
    [ F.g_family 6; F.s_family 5; F.staircase_clique 9; F.two_cells () ]

let test_table_of_iteration () =
  let run = classify (F.two_cells ()) in
  let it = Cl.last_iteration run in
  let table = Cl.table_of_iteration it in
  check_int "one entry per class" it.Cl.num_classes (Array.length table);
  Array.iteri
    (fun i (prev, label) ->
      let rep = it.Cl.reps.(i) in
      check_int "prev class matches rep" it.Cl.old_class.(rep) prev;
      check "label matches rep" true (Label.equal label it.Cl.labels.(rep)))
    table

let test_classify_normalizes_input () =
  let shifted = C.create ~normalize:false (Gen.path 2) [| 7; 8 |] in
  let run = classify shifted in
  check "feasible like two_cells" true (Cl.is_feasible run);
  check_int "normalized span" 1 (C.span run.Cl.config);
  check_int "normalized min tag" 0 (C.min_tag run.Cl.config)

let test_empty_rejected () =
  Alcotest.check_raises "empty config"
    (Invalid_argument "Classifier.classify: empty configuration") (fun () ->
      ignore (classify (C.create (G.empty 0) [||])))

let test_pp_run () =
  let s = Format.asprintf "%a" Cl.pp_run (classify (F.h_family 1)) in
  check "mentions verdict" true (String.length s > 0)

let () =
  Alcotest.run "classifier"
    [
      ( "label",
        [
          Alcotest.test_case "ordering" `Quick test_label_order;
          Alcotest.test_case "merge" `Quick test_label_merge;
          Alcotest.test_case "duplicate rejection" `Quick
            test_label_of_observations_rejects_duplicates;
          Alcotest.test_case "mark in equality and hash" `Quick
            test_label_mark_matters;
          Alcotest.test_case "mem" `Quick test_label_mem;
          Alcotest.test_case "to_string" `Quick test_label_to_string;
        ] );
      ( "partition",
        [
          Alcotest.test_case "twin exclusion" `Quick
            test_compute_labels_excludes_twins;
          Alcotest.test_case "slot arithmetic" `Quick test_compute_labels_slots;
          Alcotest.test_case "collision mark" `Quick test_compute_labels_collision;
          Alcotest.test_case "singleton class" `Quick test_singleton_class;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "two cells" `Quick test_two_cells_feasible;
          Alcotest.test_case "symmetric pair" `Quick test_symmetric_pair_infeasible;
          Alcotest.test_case "H_m (Lemma 4.2)" `Quick test_h_family_one_iteration;
          Alcotest.test_case "S_m (Prop 4.5)" `Quick test_s_family_infeasible;
          Alcotest.test_case "G_m (Prop 4.1)" `Quick
            test_g_family_m_iterations_and_centre;
          Alcotest.test_case "single node" `Quick test_singleton_configuration;
          Alcotest.test_case "uniform tags" `Quick test_uniform_tags_infeasible;
          Alcotest.test_case "uniform n=1" `Quick test_uniform_singleton_is_feasible;
          Alcotest.test_case "staircase" `Quick test_staircase_feasible;
          Alcotest.test_case "tagged cycle symmetry" `Quick
            test_tagged_cycle_symmetry;
          Alcotest.test_case "star twins" `Quick test_star_twin_leaves;
          Alcotest.test_case "mirrored components" `Quick
            test_disconnected_symmetric_components;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "monotone counts (Cor 3.3)" `Quick
            test_monotone_class_counts;
          Alcotest.test_case "refinement (Obs 3.2)" `Quick
            test_refinement_is_refinement;
          Alcotest.test_case "reps in class" `Quick test_reps_belong_to_their_class;
          Alcotest.test_case "iteration bound (Lemma 3.4)" `Quick
            test_iteration_count_bound;
          Alcotest.test_case "iteration table" `Quick test_table_of_iteration;
          Alcotest.test_case "normalization" `Quick test_classify_normalizes_input;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "pp" `Quick test_pp_run;
        ] );
    ]
