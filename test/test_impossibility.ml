(* Tests for Section 4 as executable adversaries: the probe, the
   universal-algorithm refuter (Prop 4.4), the indistinguishability witness
   (Prop 4.5), and the lower-bound measurement helpers (Props 4.1/4.3). *)

module C = Radio_config.Config
module F = Radio_config.Families
module H = Radio_drip.History
module P = Radio_drip.Protocol
module Cl = Election.Classifier
module Can = Election.Canonical
module Fe = Election.Feasibility
module Imp = Election.Impossibility
module Runner = Radio_sim.Runner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* The probe                                                           *)
(* ------------------------------------------------------------------ *)

let test_probe_beacon () =
  Alcotest.(check (option int))
    "beacon delay 0 fires at 1" (Some 1)
    (Imp.first_lonely_transmission (P.beacon ()));
  Alcotest.(check (option int))
    "beacon delay 3 fires at 4" (Some 4)
    (Imp.first_lonely_transmission (P.beacon ~delay:3 ()))

let test_probe_silent () =
  Alcotest.(check (option int))
    "silent never fires" None
    (Imp.first_lonely_transmission (P.silent ~lifetime:5 ()))

let test_probe_horizon () =
  Alcotest.(check (option int))
    "horizon cuts off" None
    (Imp.first_lonely_transmission ~horizon:2 (P.beacon ~delay:5 ()))

let test_probe_canonical () =
  (* The canonical DRIP for H_m transmits first at local round sigma + 1
     when hearing pure silence (block 1, slot sigma + 1 of phase 1). *)
  let config = F.h_family 3 in
  let plan = Can.plan_of_run (Cl.classify config) in
  Alcotest.(check (option int))
    "sigma + 1" (Some (C.span config + 1))
    (Imp.first_lonely_transmission (Can.protocol plan))

(* ------------------------------------------------------------------ *)
(* Proposition 4.4                                                     *)
(* ------------------------------------------------------------------ *)

let dedicated_for config =
  match Fe.dedicated_election (Fe.analyze config) with
  | Some e -> e
  | None -> Alcotest.fail "expected feasible configuration"

let assert_refuted candidate =
  let r = Imp.refute_universal ~max_rounds:2_000_000 candidate in
  check "counterexample is feasible" true r.Imp.counterexample_feasible;
  check "counterexample has 4 nodes" true (C.size r.Imp.counterexample = 4);
  check "candidate refuted" true r.Imp.refuted;
  r

let test_refute_dedicated_algorithms () =
  (* Theorem 3.15's dedicated algorithms are correct on their own
     configuration but cannot be universal: the adversary finds H_{t+1}. *)
  List.iter
    (fun config -> ignore (assert_refuted (dedicated_for config)))
    [ F.h_family 1; F.h_family 4; F.two_cells (); F.staircase_clique 3 ]

let test_refute_naive_candidates () =
  (* Hand-written "plausible" universal algorithms all fall to the same
     adversary. *)
  let shout_and_decide =
    {
      Runner.protocol = P.beacon ();
      decision =
        (fun h -> H.length h > 0 && H.equal_entry (H.get h 0) H.Silence);
    }
  in
  ignore (assert_refuted shout_and_decide);
  let silent_waiter =
    {
      Runner.protocol = P.silent ~lifetime:10 ();
      decision = (fun _ -> true);
    }
  in
  let r = Imp.refute_universal silent_waiter in
  check "non-transmitting candidate refuted" true r.Imp.refuted;
  Alcotest.(check (option int)) "probe none" None r.Imp.probe_round

let test_counterexample_uses_probe () =
  let candidate = dedicated_for (F.h_family 2) in
  let r = Imp.refute_universal candidate in
  match r.Imp.probe_round with
  | Some t ->
      check "counterexample is H_{t+1}" true
        (C.equal r.Imp.counterexample (F.h_family (t + 1)))
  | None -> Alcotest.fail "dedicated algorithm must transmit"

let test_dedicated_correct_at_home_but_not_universal () =
  (* The sharp contrast at the heart of the paper: correct at home, broken
     next door. *)
  let home = F.h_family 2 in
  let e = dedicated_for home in
  let at_home = Runner.run ~max_rounds:100_000 e home in
  check "at home: elects" true (Runner.elects_unique_leader at_home);
  let r = Imp.refute_universal e in
  check "elsewhere: fails" true r.Imp.refuted

(* ------------------------------------------------------------------ *)
(* Proposition 4.5                                                     *)
(* ------------------------------------------------------------------ *)

let test_indistinguishability_for_transmitting_protocols () =
  List.iter
    (fun proto ->
      let w = Imp.indistinguishability_witness ~max_rounds:500_000 proto in
      check "H feasible" true (Cl.is_feasible (Cl.classify w.Imp.feasible_config));
      check "S infeasible" false
        (Cl.is_feasible (Cl.classify w.Imp.infeasible_config));
      check "histories identical" true w.Imp.histories_identical)
    [
      P.beacon ();
      P.beacon ~delay:2 ();
      Can.protocol (Can.plan_of_run (Cl.classify (F.h_family 1)));
    ]

let test_indistinguishability_for_silent_protocol () =
  let w = Imp.indistinguishability_witness (P.silent ~lifetime:3 ()) in
  check "identical (all silence)" true w.Imp.histories_identical;
  check "uses m=1" true (C.equal w.Imp.feasible_config (F.h_family 1))

(* ------------------------------------------------------------------ *)
(* Lower bounds (Props 4.1 and 4.3)                                    *)
(* ------------------------------------------------------------------ *)

let test_g_lower_bound_points () =
  (* Ω(n): the dedicated algorithm's measured time beats the bound, and
     grows with m. *)
  let rounds =
    List.map
      (fun m ->
        let p = Imp.g_family_point m in
        check_int "n" ((4 * m) + 1) p.Imp.n;
        check_int "sigma 1" 1 p.Imp.sigma;
        Alcotest.(check (option int))
          "centre elected"
          (Some (F.g_family_center m))
          p.Imp.elected;
        check "measured >= bound" true (p.Imp.rounds >= p.Imp.bound);
        p.Imp.rounds)
      [ 2; 3; 4; 5 ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check "election time grows with n" true (increasing rounds)

let test_h_lower_bound_points () =
  (* Ω(σ) at constant size 4. *)
  let rounds =
    List.map
      (fun m ->
        let p = Imp.h_family_point m in
        check_int "n = 4" 4 p.Imp.n;
        check_int "sigma = m + 1" (m + 1) p.Imp.sigma;
        check "measured >= bound m" true (p.Imp.rounds >= p.Imp.bound);
        p.Imp.rounds)
      [ 1; 2; 4; 8; 16 ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check "election time grows with sigma" true (increasing rounds)

let test_dedicated_point_rejects_infeasible () =
  check "S_2 infeasible so no dedicated point" true
    (match Fe.dedicated_election (Fe.analyze (F.s_family 2)) with
    | None -> true
    | Some _ -> false)

let test_symmetry_under_any_protocol_on_g () =
  (* The symmetry argument inside Prop 4.1: under ANY protocol, a_i and c_i
     share histories, and so do b_i and b_{2m+2-i}, forever. *)
  let m = 3 in
  let config = F.g_family m in
  let n = C.size config in
  List.iter
    (fun proto ->
      let o = Radio_sim.Engine.run ~max_rounds:500 proto config in
      let h = o.Radio_sim.Engine.histories in
      for i = 0 to m - 1 do
        check "a_i ~ c_i" true (H.equal h.(i) h.(n - 1 - i))
      done;
      for i = m to (2 * m) - 1 do
        check "b_i ~ mirror" true (H.equal h.(i) h.((4 * m) - i))
      done)
    [ P.beacon (); P.beacon ~delay:1 (); P.silent ~lifetime:4 () ]

let () =
  Alcotest.run "impossibility"
    [
      ( "probe",
        [
          Alcotest.test_case "beacon" `Quick test_probe_beacon;
          Alcotest.test_case "silent" `Quick test_probe_silent;
          Alcotest.test_case "horizon" `Quick test_probe_horizon;
          Alcotest.test_case "canonical" `Quick test_probe_canonical;
        ] );
      ( "prop-4.4",
        [
          Alcotest.test_case "dedicated algorithms refuted" `Slow
            test_refute_dedicated_algorithms;
          Alcotest.test_case "naive candidates refuted" `Quick
            test_refute_naive_candidates;
          Alcotest.test_case "counterexample from probe" `Quick
            test_counterexample_uses_probe;
          Alcotest.test_case "home vs away" `Quick
            test_dedicated_correct_at_home_but_not_universal;
        ] );
      ( "prop-4.5",
        [
          Alcotest.test_case "transmitting protocols" `Quick
            test_indistinguishability_for_transmitting_protocols;
          Alcotest.test_case "silent protocol" `Quick
            test_indistinguishability_for_silent_protocol;
        ] );
      ( "lower-bounds",
        [
          Alcotest.test_case "G_m points (Prop 4.1)" `Slow
            test_g_lower_bound_points;
          Alcotest.test_case "H_m points (Prop 4.3)" `Quick
            test_h_lower_bound_points;
          Alcotest.test_case "no dedicated for infeasible" `Quick
            test_dedicated_point_rejects_infeasible;
          Alcotest.test_case "G_m symmetry" `Quick
            test_symmetry_under_any_protocol_on_g;
        ] );
    ]
