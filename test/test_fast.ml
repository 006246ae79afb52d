(* The fast (hash-based) classifier must be observationally identical to the
   literal one: same verdicts, same per-iteration partitions, labels and
   representatives.  Heavier randomized equivalence checks live in
   test_properties.ml; these are the deterministic cases. *)

module C = Radio_config.Config
module F = Radio_config.Families
module G = Radio_graph.Graph
module Gen = Radio_graph.Gen
module RC = Radio_config.Random_config
module Cl = Election.Classifier
module Fast = Election.Fast_classifier
module Label = Election.Label
module I = Election.Incremental

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let same_verdict v1 v2 =
  match (v1, v2) with
  | Cl.Infeasible, Cl.Infeasible -> true
  | Cl.Feasible { singleton_class = a }, Cl.Feasible { singleton_class = b } ->
      a = b
  | _ -> false

let runs_identical r1 r2 =
  same_verdict r1.Cl.verdict r2.Cl.verdict
  && List.length r1.Cl.iterations = List.length r2.Cl.iterations
  && List.for_all2
       (fun i1 i2 ->
         i1.Cl.index = i2.Cl.index
         && i1.Cl.old_class = i2.Cl.old_class
         && i1.Cl.new_class = i2.Cl.new_class
         && i1.Cl.num_classes = i2.Cl.num_classes
         && i1.Cl.reps = i2.Cl.reps
         && List.for_all2 Label.equal
              (Array.to_list i1.Cl.labels)
              (Array.to_list i2.Cl.labels))
       r1.Cl.iterations r2.Cl.iterations

let assert_equivalent config =
  check "identical runs" true
    (runs_identical (Cl.classify config) (Fast.classify config))

let test_families_equivalent () =
  List.iter assert_equivalent
    [
      F.two_cells ();
      F.symmetric_pair ();
      F.h_family 1;
      F.h_family 7;
      F.s_family 1;
      F.s_family 6;
      F.g_family 2;
      F.g_family 5;
      F.staircase_clique 9;
      F.tagged_cycle [| 0; 1; 0; 1; 0; 1 |];
      F.tagged_cycle [| 0; 2; 1; 0; 1; 2 |];
      C.create (G.empty 1) [| 0 |];
      C.uniform (Gen.hypercube 3) 0;
    ]

let test_random_configs_equivalent () =
  let st = Random.State.make [| 2024 |] in
  for _ = 1 to 30 do
    let n = 2 + Random.State.int st 20 in
    let span = Random.State.int st 5 in
    assert_equivalent (RC.connected_gnp st ~n ~p:0.3 ~span)
  done;
  (* A span too large to pack a (class, slot) pair into one int: the
     kernel builds labels with [Partition.compute_label] instead. *)
  let big = 1 lsl 60 in
  List.iter assert_equivalent
    [
      C.create (Gen.path 5) [| 0; big; 3; big; 0 |];
      F.tagged_cycle [| 0; big; 0; 1; big; 1 |];
      C.create (Gen.complete 4) [| big; 0; big; 2 |];
    ]

let test_refine_with_table_unit () =
  (* One refinement step by hand: old partition {1,1,2}, labels a/b/b:
     node 0 keeps class 1 (it is rep 1), node 1 gets a fresh class 3,
     node 2 keeps class 2 (matches rep 2's label). *)
  let la = [ { Label.block = 1; slot = 1; mark = Label.One } ] in
  let lb = [ { Label.block = 1; slot = 2; mark = Label.One } ] in
  let new_class, num, reps =
    Fast.refine_with_table ~old_class:[| 1; 1; 2 |]
      ~labels:[| la; lb; lb |] ~num_classes:2 ~reps:[| 0; 2 |]
  in
  Alcotest.(check (array int)) "classes" [| 1; 3; 2 |] new_class;
  check_int "count" 3 num;
  Alcotest.(check (array int)) "reps" [| 0; 2; 1 |] reps

let test_rep_seeding_keeps_numbers () =
  (* A class whose representative's label is unchanged keeps its number
     even when scanned late in node order. *)
  let l0 = [] in
  let new_class, num, _ =
    Fast.refine_with_table ~old_class:[| 2; 2; 1 |]
      ~labels:[| l0; l0; l0 |] ~num_classes:2 ~reps:[| 2; 0 |]
  in
  (* reps: class 1 rep = node 2, class 2 rep = node 0. *)
  Alcotest.(check (array int)) "stable numbering" [| 2; 2; 1 |] new_class;
  check_int "no new classes" 2 num

let test_fast_speed_sanity () =
  (* Not a benchmark, just a liveness guard: the fast classifier finishes a
     mid-sized instance quickly. *)
  let st = Random.State.make [| 99 |] in
  let config = RC.connected_gnp st ~n:120 ~p:0.05 ~span:6 in
  let t0 = Sys.time () in
  ignore (Fast.classify config);
  check "under 5 CPU seconds" true (Sys.time () -. t0 < 5.0)

(* --- the one classifier differential ------------------------------ *)

(* A valid random edit; [g] tracks the universe graph, which
   [Incremental] does not expose. *)
let random_edit rs g st =
  let n = G.size !g in
  let node () = Random.State.int rs n in
  let set_tag () = I.Set_tag (node (), Random.State.int rs 4) in
  let absent = List.filter (fun v -> not (I.present st v)) (List.init n Fun.id) in
  match Random.State.int rs 10 with
  | 0 | 1 | 2 ->
      let u = node () and v = node () in
      if u <> v && not (G.mem_edge !g u v) then begin
        g := G.add_edge !g u v;
        I.Add_edge (u, v)
      end
      else set_tag ()
  | 3 | 4 | 5 -> (
      match G.edges !g with
      | [] -> set_tag ()
      | es ->
          let u, v = List.nth es (Random.State.int rs (List.length es)) in
          g := G.remove_edge !g u v;
          I.Remove_edge (u, v))
  | 6 | 7 -> set_tag ()
  | 8 ->
      let v = node () in
      if I.present st v && I.live st >= 2 then I.Leave v else set_tag ()
  | _ -> (
      match absent with
      | [] -> set_tag ()
      | l -> I.Join (List.nth l (Random.State.int rs (List.length l)), 1))

let random_config rs =
  let n = 1 + Random.State.int rs 16 in
  let span = Random.State.int rs 4 in
  match Random.State.int rs 4 with
  | 0 -> RC.random_path rs ~n ~span
  | 1 -> C.uniform (Gen.cycle (max 3 n)) 0
  | 2 -> RC.random_tree rs ~n ~span
  | _ -> RC.connected_gnp rs ~n ~p:0.3 ~span

(* The literal Classifier, Fast_classifier, Incremental from scratch and
   Incremental after every edit of a random sequence all produce the same
   run as the literal Classifier on the same configuration.  A leave or
   join that keeps σ classifies through the memo: when some present node
   is neither the one that left or joined nor its neighbour, it reuses
   at least that node's first label. *)
let test_one_differential () =
  let rs = Random.State.make [| 2026 |] in
  let membership_checked = ref 0 in
  for _ = 1 to 300 do
    let c = random_config rs in
    let literal = Cl.classify c in
    check "fast = literal" true (runs_identical literal (Fast.classify c));
    check "incremental from scratch = literal" true
      (I.runs_equal literal (Option.get (I.run (I.init c))));
    let g = ref (C.graph c) in
    let st = ref (I.init c) in
    for _ = 1 to 16 do
      let before = I.run !st in
      let span_before = Option.map C.span (I.current !st) in
      let edit = random_edit rs g !st in
      st := I.apply !st edit;
      match (I.current !st, I.run !st) with
      | Some c', Some r ->
          check "incremental after edits = literal" true
            (I.runs_equal r (Cl.classify c'));
          (* An edit at an absent node leaves the run alone and costs
             nothing; any other classifies, computing or reusing every
             label. *)
          let d = I.last !st in
          check_int "every label computed or reused"
            (if Option.fold ~none:false ~some:(( == ) r) before then 0
             else C.size c' * Cl.num_iterations r)
            (d.I.labels_computed + d.I.labels_reused);
          let untouched v =
            List.exists
              (fun w -> w <> v && I.present !st w && not (G.mem_edge !g v w))
              (List.init (G.size !g) Fun.id)
          in
          (match edit with
          | (I.Leave v | I.Join (v, _))
            when span_before = Some (C.span c') && untouched v ->
              incr membership_checked;
              check "a membership edit reuses the memo" true
                (d.I.labels_computed < C.size c' * Cl.num_iterations r)
          | _ -> ())
      | _ -> Alcotest.fail "a live node without a run"
    done
  done;
  check "membership edits checked" true (!membership_checked >= 50)

let test_kernel_counter_g_m () =
  (* On G_m (n = 4m + 1, m iterations) the kernel builds n labels at
     iteration 1 and then only around the nodes that moved: 16m - 15 in
     all, against n·m for a label per node per iteration. *)
  List.iter
    (fun m ->
      let run, cost = Fast.kernel (F.g_family m) in
      check_int (Printf.sprintf "iterations of G_%d" m) m (Cl.num_iterations run);
      check_int (Printf.sprintf "labels computed on G_%d" m) ((16 * m) - 15)
        cost.Fast.computed;
      check_int (Printf.sprintf "labels reused on G_%d" m)
        ((((4 * m) + 1) * m) - ((16 * m) - 15))
        cost.Fast.reused)
    [ 8; 16; 32; 64 ]

let () =
  Alcotest.run "fast_classifier"
    [
      ( "equivalence",
        [
          Alcotest.test_case "families" `Quick test_families_equivalent;
          Alcotest.test_case "random configs" `Quick
            test_random_configs_equivalent;
          Alcotest.test_case "one differential" `Quick test_one_differential;
        ] );
      ( "kernel",
        [ Alcotest.test_case "G_m label count" `Quick test_kernel_counter_g_m ]
      );
      ( "refine",
        [
          Alcotest.test_case "single step" `Quick test_refine_with_table_unit;
          Alcotest.test_case "stable numbering" `Quick
            test_rep_seeding_keeps_numbers;
        ] );
      ("sanity", [ Alcotest.test_case "speed" `Quick test_fast_speed_sanity ]);
    ]
