(* End-to-end scenarios exercising the full public API the way the examples
   and the experiment harness do: realistic topologies, the full
   classify -> compile -> simulate -> decide pipeline, and the negative
   results chained together. *)

module C = Radio_config.Config
module F = Radio_config.Families
module RC = Radio_config.Random_config
module CIo = Radio_config.Config_io
module G = Radio_graph.Graph
module Gen = Radio_graph.Gen
module Props = Radio_graph.Props
module H = Radio_drip.History
module Engine = Radio_sim.Engine
module Runner = Radio_sim.Runner
module Cl = Election.Classifier
module Can = Election.Canonical
module Fe = Election.Feasibility
module Imp = Election.Impossibility
module Stats = Radio_analysis.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let elect_or_fail config =
  let a = Fe.analyze config in
  match Fe.verify_by_simulation ~max_rounds:5_000_000 a with
  | Some r when Runner.elects_unique_leader r -> (a, r)
  | Some _ -> Alcotest.fail "no unique leader"
  | None -> Alcotest.fail "configuration infeasible"

(* Scenario 1: a token-ring recovery (the Le Lann motivation).  A ring of
   stations loses its token; stations notice at slightly different times
   (distinct wake-up tags) and elect a new token holder. *)
let test_token_ring_recovery () =
  let st = Random.State.make [| 101 |] in
  let n = 12 in
  let tags = RC.random_tags st ~n ~span:8 in
  let config = C.create (Gen.cycle n) tags in
  match Fe.analyze config with
  | a when a.Fe.feasible ->
      let _, r = elect_or_fail config in
      check "token holder elected" true (Runner.elects_unique_leader r)
  | a ->
      (* Random tags can be rotationally symmetric; then infeasibility must
         be confirmed by simulation producing no unique history. *)
      let plan = a.Fe.plan in
      let o = Engine.run ~max_rounds:2_000_000 (Can.protocol plan) config in
      check "no unique history either" true
        (Runner.unique_history_nodes o = [])

(* Scenario 2: a sensor grid where a coordinator must be elected after a
   staggered deployment. *)
let test_sensor_grid () =
  let config =
    C.create (Gen.grid 4 5)
      (Array.init 20 (fun i -> i mod 7))
  in
  let a = Fe.analyze config in
  if a.Fe.feasible then begin
    let _, r = elect_or_fail config in
    check "coordinator elected" true (Runner.elects_unique_leader r);
    (* The election time respects the theory bound on the global clock. *)
    match r.Runner.rounds_to_elect with
    | Some rounds ->
        check "bounded" true
          (rounds
          <= Can.upper_bound_rounds ~n:20 ~sigma:(C.span config) + C.span config)
    | None -> Alcotest.fail "no rounds"
  end
  else check "grid config happened to be symmetric" true true

(* Scenario 3: geometric radio network (the classic radio-network setting:
   nodes scattered in the plane, links by proximity). *)
let test_geometric_network () =
  let st = Random.State.make [| 2025 |] in
  let g, _coords = Gen.random_connected_geometric st 24 0.3 in
  let config = RC.on_graph st ~span:5 g in
  let a = Fe.analyze config in
  if a.Fe.feasible then begin
    let _, r = elect_or_fail config in
    check "leader in range" true
      (match r.Runner.leader with Some v -> v >= 0 && v < 24 | None -> false)
  end

(* Scenario 4: round-trip through serialization then election: a config
   written to disk and reloaded must elect the same leader. *)
let test_serialize_then_elect () =
  let config = F.g_family 3 in
  let reloaded = CIo.of_string (CIo.to_string config) in
  let _, r1 = elect_or_fail config in
  let _, r2 = elect_or_fail reloaded in
  Alcotest.(check (option int)) "same leader" r1.Runner.leader r2.Runner.leader

(* Scenario 5: the full negative-results pipeline: build a dedicated
   algorithm, refute its universality, then show the decision problem is
   undecidable distributively via indistinguishability - all in one flow. *)
let test_negative_results_pipeline () =
  let home = F.h_family 3 in
  let a = Fe.analyze home in
  let e = Option.get (Fe.dedicated_election a) in
  (* Correct at home. *)
  let r_home = Runner.run ~max_rounds:1_000_000 e home in
  Alcotest.(check (option int)) "home leader" a.Fe.leader r_home.Runner.leader;
  (* Refuted away. *)
  let refutation = Imp.refute_universal ~max_rounds:2_000_000 e in
  check "refuted" true refutation.Imp.refuted;
  (* And its protocol cannot tell H from S. *)
  let w =
    Imp.indistinguishability_witness ~max_rounds:2_000_000 e.Runner.protocol
  in
  check "indistinguishable" true w.Imp.histories_identical

(* Scenario 6: feasibility landscape sanity: denser graphs with wider tag
   spans are feasible more often than symmetric corner cases. *)
let test_feasibility_fraction () =
  let st = Random.State.make [| 7 |] in
  let batch span =
    List.init 30 (fun _ -> RC.connected_gnp st ~n:10 ~p:0.4 ~span)
  in
  let frac0 = Fe.feasible_fraction (batch 0) in
  let frac6 = Fe.feasible_fraction (batch 6) in
  Alcotest.(check (float 1e-9)) "span 0 never feasible" 0.0 frac0;
  check "wide span mostly feasible" true (frac6 > 0.5)

(* Scenario 7: big instance end-to-end under the fast classifier. *)
let test_large_instance () =
  let st = Random.State.make [| 31337 |] in
  let config = RC.connected_gnp st ~n:60 ~p:0.08 ~span:3 in
  let a = Fe.analyze config in
  if a.Fe.feasible then begin
    let r = Option.get (Fe.verify_by_simulation ~max_rounds:10_000_000 a) in
    check "unique leader at n=60" true (Runner.elects_unique_leader r);
    Alcotest.(check (option int)) "prediction holds" a.Fe.leader r.Runner.leader
  end

(* Scenario 8: measured lower-bound series have the right shape
   (linear in n on G_m, linear in sigma on H_m). *)
let test_lower_bound_shapes () =
  let g_points =
    List.map
      (fun m ->
        let p = Imp.g_family_point m in
        (float_of_int p.Imp.n, float_of_int p.Imp.rounds))
      [ 2; 4; 8; 16 ]
  in
  (* The Ω(n) of Prop 4.1 is a lower bound; the canonical DRIP itself runs
     in Θ(n^2) on G_m (σ = 1), so the measured exponent must land between
     linear and quadratic-ish. *)
  let slope_n = Stats.loglog_slope g_points in
  check "G_m scaling superlinear, at most ~quadratic" true
    (slope_n > 0.9 && slope_n < 2.4);
  let h_points =
    List.map
      (fun m ->
        let p = Imp.h_family_point m in
        (float_of_int p.Imp.sigma, float_of_int p.Imp.rounds))
      [ 4; 8; 16; 32; 64 ]
  in
  let slope_s = Stats.loglog_slope h_points in
  check "H_m scaling near linear in sigma" true (slope_s > 0.8 && slope_s < 1.2)

(* Scenario 9: histories written by the engine are replayable by the pure
   decision function even after serializing the configuration (pure
   function of local data only - the anonymity contract). *)
let test_decision_locality () =
  let config = F.staircase_clique 4 in
  let run = Cl.classify config in
  let plan = Can.plan_of_run run in
  let o = Engine.run ~max_rounds:1_000_000 (Can.protocol plan) config in
  (* Feed each history through a fresh plan compiled from a re-parsed
     configuration: same decisions. *)
  let plan2 =
    Can.plan_of_run (Cl.classify (CIo.of_string (CIo.to_string config)))
  in
  Array.iteri
    (fun v h ->
      check "same decision" true (Can.decision plan h = Can.decision plan2 h);
      ignore v)
    o.Engine.histories

(* Scenario 10: the whole pipeline respects relabelling end-to-end. *)
let test_relabel_pipeline () =
  let config = F.g_family 2 in
  let n = C.size config in
  let perm = Array.init n (fun i -> (i + 3) mod n) in
  let relabeled = C.relabel config perm in
  let _, r1 = elect_or_fail config in
  let _, r2 = elect_or_fail relabeled in
  match (r1.Runner.leader, r2.Runner.leader) with
  | Some v1, Some v2 -> check_int "leader maps through perm" perm.(v1) v2
  | _ -> Alcotest.fail "missing leader"

let () =
  Alcotest.run "integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "token ring recovery" `Quick test_token_ring_recovery;
          Alcotest.test_case "sensor grid" `Quick test_sensor_grid;
          Alcotest.test_case "geometric network" `Quick test_geometric_network;
          Alcotest.test_case "serialize then elect" `Quick
            test_serialize_then_elect;
          Alcotest.test_case "negative results pipeline" `Quick
            test_negative_results_pipeline;
          Alcotest.test_case "feasibility fraction" `Quick
            test_feasibility_fraction;
          Alcotest.test_case "large instance" `Slow test_large_instance;
          Alcotest.test_case "lower bound shapes" `Slow test_lower_bound_shapes;
          Alcotest.test_case "decision locality" `Quick test_decision_locality;
          Alcotest.test_case "relabel pipeline" `Quick test_relabel_pipeline;
        ] );
    ]
