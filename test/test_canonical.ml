(* Tests for the canonical DRIP: plan compilation, the phase schedule, the
   distributed execution in the simulator, and the properties Lemmas 3.6-3.10
   prove about it. *)

module C = Radio_config.Config
module F = Radio_config.Families
module G = Radio_graph.Graph
module Gen = Radio_graph.Gen
module H = Radio_drip.History
module P = Radio_drip.Protocol
module Cl = Election.Classifier
module Can = Election.Canonical
module Fe = Election.Feasibility
module Engine = Radio_sim.Engine
module Runner = Radio_sim.Runner
module Label = Election.Label
module RC = Radio_config.Random_config

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let plan_of config = Can.plan_of_run (Cl.classify config)

(* ------------------------------------------------------------------ *)
(* Plan structure                                                      *)
(* ------------------------------------------------------------------ *)

let test_plan_l1 () =
  let plan = plan_of (F.two_cells ()) in
  check_int "phases" 1 (Can.num_phases plan);
  check_int "sigma" 1 plan.Can.sigma;
  check_int "L1 single entry" 1 (Array.length plan.Can.tables.(0));
  check_int "L1 prev class" 1 plan.Can.tables.(0).(0).Can.prev_class;
  check "L1 null label" true (plan.Can.tables.(0).(0).Can.label = []);
  Alcotest.(check (option int)) "singleton" (Some 1) plan.Can.singleton_class

let test_phase_bounds () =
  (* two_cells: sigma 1, one phase of 1 block: r_1 = 1*(2*1+1) + 1 = 4. *)
  let plan = plan_of (F.two_cells ()) in
  Alcotest.(check (array int)) "bounds" [| 0; 4 |] (Can.phase_bounds plan);
  check_int "termination" 5 (Can.local_termination_round plan)

let test_phase_bounds_multi () =
  (* G_3: m = 3 iterations... num_phases = iterations count. *)
  let config = F.g_family 3 in
  let plan = plan_of config in
  check_int "phases = iterations" 3 (Can.num_phases plan);
  let bounds = Can.phase_bounds plan in
  check_int "r_0" 0 bounds.(0);
  let sigma = C.span config in
  Array.iteri
    (fun j b ->
      if j >= 1 then begin
        let blocks = Array.length plan.Can.tables.(j - 1) in
        check_int "phase length"
          (bounds.(j - 1) + (blocks * ((2 * sigma) + 1)) + sigma)
          b
      end)
    bounds

let test_upper_bound_formula () =
  List.iter
    (fun config ->
      let plan = plan_of config in
      let bound =
        Can.upper_bound_rounds ~n:(C.size config) ~sigma:(C.span config)
      in
      check "schedule within O(n^2 sigma) bound" true
        (Can.local_termination_round plan <= bound))
    [
      F.two_cells ();
      F.h_family 4;
      F.s_family 3;
      F.g_family 4;
      F.staircase_clique 7;
    ]

let test_infeasible_plan_has_no_singleton () =
  let plan = plan_of (F.s_family 2) in
  Alcotest.(check (option int)) "no singleton" None plan.Can.singleton_class;
  check "decision always false" true
    (not (Can.decision plan (H.of_array (Array.make 100 H.Silence))))

(* ------------------------------------------------------------------ *)
(* Distributed execution (Theorem 3.15)                                *)
(* ------------------------------------------------------------------ *)

let run_dedicated config =
  let a = Fe.analyze_run (Cl.classify config) in
  match Fe.verify_by_simulation ~max_rounds:2_000_000 a with
  | Some r -> (a, r)
  | None -> Alcotest.fail "expected feasible configuration"

let test_election_on_families () =
  List.iter
    (fun (name, config) ->
      let a, r = run_dedicated config in
      check (name ^ ": unique leader") true (Runner.elects_unique_leader r);
      Alcotest.(check (option int))
        (name ^ ": leader = classifier prediction")
        a.Fe.leader r.Runner.leader)
    [
      ("two_cells", F.two_cells ());
      ("H_1", F.h_family 1);
      ("H_5", F.h_family 5);
      ("G_2", F.g_family 2);
      ("G_5", F.g_family 5);
      ("staircase_4", F.staircase_clique 4);
      ("staircase_8", F.staircase_clique 8);
      ("broken cycle", F.tagged_cycle [| 0; 1; 0; 1; 1; 1 |]);
      ("distinct star", C.create (Gen.star 4) [| 0; 1; 2; 3 |]);
      ("single node", C.create (G.empty 1) [| 0 |]);
    ]

let test_all_nodes_terminate_same_local_round () =
  (* In D_G every node terminates in local round r_T + 1 (Lemma 3.11). *)
  let config = F.g_family 3 in
  let a, r = run_dedicated config in
  let expected = a.Fe.election_local_rounds in
  Array.iter
    (fun d -> check_int "same done round" expected d)
    r.Runner.outcome.Engine.done_local

let test_patience_of_canonical () =
  (* Lemma 3.6: no transmission in global rounds 0..sigma; every wake-up is
     spontaneous. *)
  List.iter
    (fun config ->
      let plan = plan_of config in
      let o =
        Engine.run ~max_rounds:1_000_000 (Can.protocol plan) config
      in
      check "all spontaneous" true (Array.for_all not o.Engine.forced);
      match o.Engine.first_transmission with
      | Some (r, _) -> check "first tx after sigma" true (r > C.span config)
      | None -> check "no transmissions only for n=1" true (C.size config = 1))
    [ F.two_cells (); F.h_family 3; F.g_family 2; F.staircase_clique 5 ]

let test_every_node_transmits_once_per_phase () =
  (* Each node transmits exactly [num_phases] times overall (once per
     phase; the canonical DRIP never goes lost on its own configuration). *)
  let config = F.g_family 2 in
  let plan = plan_of config in
  let o =
    Engine.run ~max_rounds:1_000_000 ~record_trace:true (Can.protocol plan)
      config
  in
  let n = C.size config in
  let tx_count = Array.make n 0 in
  List.iter
    (fun ev ->
      List.iter
        (fun (v, _) -> tx_count.(v) <- tx_count.(v) + 1)
        ev.Radio_sim.Trace.transmitters)
    o.Engine.trace;
  Array.iter
    (fun c -> check_int "transmissions = phases" (Can.num_phases plan) c)
    tx_count

let test_block_trace_matches_classifier_classes () =
  (* Statement (2) of Lemma 3.8: node v transmits in block k of phase j iff
     its class in P_{j-1} is k. *)
  let config = F.g_family 3 in
  let run = Cl.classify config in
  let plan = Can.plan_of_run run in
  let o = Engine.run ~max_rounds:1_000_000 (Can.protocol plan) config in
  let iterations = Array.of_list run.Cl.iterations in
  for v = 0 to C.size config - 1 do
    let trace = Can.block_trace plan o.Engine.histories.(v) in
    Array.iteri
      (fun j_minus_1 tb ->
        (* Block of phase j = class of v in P_{j-1}; P_0 is all-ones. *)
        let expected =
          if j_minus_1 = 0 then 1
          else iterations.(j_minus_1 - 1).Cl.new_class.(v)
        in
        Alcotest.(check (option int)) "block = class" (Some expected) tb)
      trace
  done

let test_history_classes_equal_partition () =
  (* Lemma 3.9 at the final phase: equal full histories <=> same class in
     P_T.  Holds for feasible and infeasible runs alike. *)
  List.iter
    (fun config ->
      let run = Cl.classify config in
      let plan = Can.plan_of_run run in
      let o = Engine.run ~max_rounds:1_000_000 (Can.protocol plan) config in
      let hist_classes = Runner.history_classes o in
      let final = (Cl.last_iteration run).Cl.new_class in
      let n = C.size config in
      for v = 0 to n - 1 do
        for w = 0 to n - 1 do
          check "Lemma 3.9" true
            (hist_classes.(v) = hist_classes.(w) = (final.(v) = final.(w)))
        done
      done)
    [ F.s_family 3; F.g_family 2; F.h_family 2; F.symmetric_pair () ]

let test_decision_elects_singleton_member () =
  let config = F.h_family 2 in
  let run = Cl.classify config in
  let plan = Can.plan_of_run run in
  let o = Engine.run ~max_rounds:100_000 (Can.protocol plan) config in
  let winners =
    List.filter
      (fun v -> Can.decision plan o.Engine.histories.(v))
      (List.init (C.size config) Fun.id)
  in
  Alcotest.(check (list int))
    "winners = canonical leader"
    [ Option.get (Cl.canonical_leader run) ]
    winners

let test_final_class_matches_partition () =
  let config = F.staircase_clique 5 in
  let run = Cl.classify config in
  let plan = Can.plan_of_run run in
  let o = Engine.run ~max_rounds:100_000 (Can.protocol plan) config in
  let final = (Cl.last_iteration run).Cl.new_class in
  for v = 0 to C.size config - 1 do
    Alcotest.(check (option int))
      "final class from history" (Some final.(v))
      (Can.final_class plan o.Engine.histories.(v))
  done

let test_block_trace_rejects_short_history () =
  let plan = plan_of (F.h_family 2) in
  Alcotest.check_raises "short history"
    (Invalid_argument "Canonical.block_trace: history shorter than the schedule")
    (fun () -> ignore (Can.block_trace plan (H.of_array [| H.Silence |])))

let test_election_time_within_bound () =
  (* Lemma 3.10 / Theorem 3.15: O(n^2 sigma) with our explicit constants,
     measured on the global clock (wake-up offset <= sigma extra). *)
  List.iter
    (fun config ->
      let _, r = run_dedicated config in
      match r.Runner.rounds_to_elect with
      | None -> Alcotest.fail "no election"
      | Some rounds ->
          let n = C.size config and sigma = C.span config in
          check "global rounds within bound" true
            (rounds <= Can.upper_bound_rounds ~n ~sigma + sigma))
    [ F.g_family 4; F.h_family 6; F.staircase_clique 6 ]

(* ------------------------------------------------------------------ *)
(* Foreign execution: lost nodes                                       *)
(* ------------------------------------------------------------------ *)

let test_foreign_execution_is_well_defined () =
  (* Run the plan compiled for H_2 on S_2 and on H_5: every node still
     terminates on schedule (possibly lost), nobody crashes. *)
  let plan = plan_of (F.h_family 2) in
  List.iter
    (fun foreign ->
      let o = Engine.run ~max_rounds:100_000 (Can.protocol plan) foreign in
      check "terminates everywhere" true o.Engine.all_terminated;
      Array.iter
        (fun d ->
          check_int "schedule respected" (Can.local_termination_round plan) d)
        o.Engine.done_local)
    [ F.s_family 2; F.h_family 5; F.two_cells () ]

(* The literal class-table reading: the first entry, scanning in order,
   whose key is the node's previous block and observed label. *)
let match_entry entries ~prev_block ~obs_label =
  match prev_block with
  | None -> None
  | Some pb ->
      let rec scan k =
        if k > Array.length entries then None
        else
          let e = entries.(k - 1) in
          if e.Can.prev_class = pb && Label.equal e.Can.label obs_label then
            Some k
          else scan (k + 1)
      in
      scan 1

(* The per-round reference for [Can.block_trace] and [Can.final_class]:
   phase by phase, every round of a phase's blocks read off the dense view
   of the history, as the decision function did before it folded over
   events. *)
let reference_replay plan h =
  let h = H.to_array h in
  let bounds = Can.phase_bounds plan in
  let t = Can.num_phases plan in
  let width = (2 * plan.Can.sigma) + 1 in
  let observations j =
    let obs = ref [] in
    for offset = 1 to Array.length plan.Can.tables.(j - 1) * width do
      let seen mark =
        obs := (((offset - 1) / width) + 1, ((offset - 1) mod width) + 1, mark)
               :: !obs
      in
      match h.(bounds.(j - 1) + offset) with
      | H.Message _ -> seen Label.One
      | H.Collision -> seen Label.Many
      | H.Silence -> ()
    done;
    Label.of_observations !obs
  in
  let blocks = Array.make t None in
  let prev_block = ref (Some 1) and prev_obs = ref [] in
  for j = 1 to t do
    prev_block :=
      match_entry plan.Can.tables.(j - 1) ~prev_block:!prev_block
        ~obs_label:!prev_obs;
    blocks.(j - 1) <- !prev_block;
    prev_obs := observations j
  done;
  ( blocks,
    match_entry plan.Can.final_table ~prev_block:!prev_block
      ~obs_label:!prev_obs )

(* Runs [plan] on [config] and checks the event fold against the
   reference at every node; returns how many nodes went lost. *)
let check_replay plan config =
  let o = Engine.run ~max_rounds:1_000_000 (Can.protocol plan) config in
  check "terminates" true o.Engine.all_terminated;
  Array.fold_left
    (fun lost h ->
      let blocks, final = reference_replay plan h in
      Alcotest.(check (array (option int)))
        "block trace = reference" blocks (Can.block_trace plan h);
      Alcotest.(check (option int))
        "final class = reference" final (Can.final_class plan h);
      if Array.exists Option.is_none blocks then lost + 1 else lost)
    0 o.Engine.histories

(* The hashed class-table lookup against the scan, on every table of
   every plan of the n <= 5, span <= 2 universe: each entry's own key,
   the key under the next class, the key with its label cut or grown, and
   a lost node. *)
let test_lookup_matches_scan () =
  let queries = ref 0 and mismatches = ref 0 in
  let agree table =
    let lookup = Can.entry_lookup table in
    let same prev_block obs_label =
      incr queries;
      if lookup ~prev_block ~obs_label <> match_entry table ~prev_block ~obs_label
      then incr mismatches
    in
    same None [];
    Array.iter
      (fun (e : Can.entry) ->
        same (Some e.prev_class) e.label;
        same (Some (e.prev_class + 1)) e.label;
        same (Some e.prev_class)
          (match e.label with
          | [] -> [ { Label.block = 1; slot = 1; mark = Label.One } ]
          | _ :: rest -> rest))
      table
  in
  List.iter
    (fun (_, _, configs) ->
      List.iter
        (fun config ->
          let plan = Can.plan_of_run (Election.Fast_classifier.classify config) in
          Array.iter agree plan.Can.tables;
          agree plan.Can.final_table)
        configs)
    (Election.Census.universe ~max_n:5 ~max_span:2);
  check "queried" true (!queries > 10_000);
  check_int "lookup = scan" 0 !mismatches

(* A plan file may list a key twice; the first entry wins, as in the
   scan, in a phase table and in the final table. *)
let test_lookup_first_duplicate () =
  let plan =
    Election.Plan_io.of_string
      "drip-plan 1\nsigma 1\nphases 1\nsingleton 1\ntable 1 2\nentry 1 0\n\
       entry 1 0\ntable final 3\nentry 1 1 1 2 1\nentry 1 0\n\
       entry 1 1 1 2 1\n"
  in
  let in_final = [ { Label.block = 1; slot = 2; mark = Label.One } ] in
  Alcotest.(check (option int))
    "phase table" (Some 1)
    (Can.entry_lookup plan.Can.tables.(0) ~prev_block:(Some 1) ~obs_label:[]);
  Alcotest.(check (option int))
    "final table" (Some 1)
    (Can.entry_lookup plan.Can.final_table ~prev_block:(Some 1)
       ~obs_label:in_final);
  Alcotest.(check (option int))
    "final table, second key" (Some 2)
    (Can.entry_lookup plan.Can.final_table ~prev_block:(Some 1) ~obs_label:[])

let test_final_class_matches_reference () =
  let st = Random.State.make [| 26 |] in
  let random () =
    let n = 1 + Random.State.int st 14 and span = Random.State.int st 4 in
    if Random.State.bool st then RC.connected_gnp st ~n ~p:0.35 ~span
    else RC.random_tree st ~n ~span
  in
  for _ = 1 to 60 do
    let config = random () in
    check_int "no node lost at home" 0 (check_replay (plan_of config) config)
  done;
  (* Foreign configurations (the Prop 4.4 experiment): nodes go lost. *)
  let lost = ref 0 in
  List.iter
    (fun (home, away) -> lost := !lost + check_replay (plan_of home) away)
    ([ (F.h_family 2, F.s_family 2); (F.h_family 2, F.h_family 5);
       (F.g_family 2, F.h_family 4) ]
    @ List.init 30 (fun _ -> (random (), random ())));
  check "some node went lost" true (!lost > 0)

(* ------------------------------------------------------------------ *)
(* Quiet horizons: the engine's cost follows the messages               *)
(* ------------------------------------------------------------------ *)

(* Wraps every instance so that its [decide], [observe] and [skip] calls
   are counted; horizons pass through unchanged. *)
let counting (p : P.t) =
  let calls = ref 0 in
  let count f x =
    incr calls;
    f x
  in
  let spawn () =
    let i = p.P.spawn () in
    {
      P.on_wakeup = i.P.on_wakeup;
      decide = count i.P.decide;
      observe = count i.P.observe;
      skip = count i.P.skip;
    }
  in
  ({ p with P.spawn }, calls)

let test_calls_follow_the_messages () =
  (* A node makes about three calls per phase (quiet up to its block,
     transmit, quiet to the phase end) plus one per entry it hears, so the
     totals sit far below the two calls per node-round of a per-round
     loop.  The counts are pinned exactly. *)
  List.iter
    (fun (name, config, expected) ->
      let proto, calls = counting (Can.protocol (plan_of config)) in
      let o = Engine.run proto config in
      check (name ^ " elects") true o.Engine.all_terminated;
      check_int (name ^ " instance calls") expected !calls;
      let node_rounds = C.size config * o.Engine.rounds in
      check
        (Printf.sprintf "%s: %d calls <= %d node-rounds / 3" name !calls
           node_rounds)
        true
        (3 * !calls <= node_rounds))
    [
      ("G_8", F.g_family 8, 2123);
      ("G_16", F.g_family 16, 8347);
      ( "path, sigma 8",
        F.tagged_path (Array.init 12 (fun i -> if i = 0 then 8 else 0)),
        87 );
      ( "path, sigma 6",
        F.tagged_path (Array.init 16 (fun i -> if i = 2 then 6 else i mod 2)),
        133 );
    ]

let () =
  Alcotest.run "canonical"
    [
      ( "plan",
        [
          Alcotest.test_case "L1" `Quick test_plan_l1;
          Alcotest.test_case "phase bounds" `Quick test_phase_bounds;
          Alcotest.test_case "multi-phase bounds" `Quick test_phase_bounds_multi;
          Alcotest.test_case "upper bound formula" `Quick test_upper_bound_formula;
          Alcotest.test_case "infeasible plan" `Quick
            test_infeasible_plan_has_no_singleton;
        ] );
      ( "execution",
        [
          Alcotest.test_case "elections on families" `Slow
            test_election_on_families;
          Alcotest.test_case "uniform termination round" `Quick
            test_all_nodes_terminate_same_local_round;
          Alcotest.test_case "patience (Lemma 3.6)" `Quick
            test_patience_of_canonical;
          Alcotest.test_case "one tx per phase" `Quick
            test_every_node_transmits_once_per_phase;
          Alcotest.test_case "blocks = classes (Lemma 3.8)" `Quick
            test_block_trace_matches_classifier_classes;
          Alcotest.test_case "history classes (Lemma 3.9)" `Quick
            test_history_classes_equal_partition;
          Alcotest.test_case "decision elects singleton" `Quick
            test_decision_elects_singleton_member;
          Alcotest.test_case "final class" `Quick test_final_class_matches_partition;
          Alcotest.test_case "short history rejected" `Quick
            test_block_trace_rejects_short_history;
          Alcotest.test_case "time bound (Lemma 3.10)" `Quick
            test_election_time_within_bound;
        ] );
      ( "foreign",
        [
          Alcotest.test_case "lost nodes stay scheduled" `Quick
            test_foreign_execution_is_well_defined;
          Alcotest.test_case "final class = per-round replay" `Quick
            test_final_class_matches_reference;
        ] );
      ( "lookup",
        [
          Alcotest.test_case "hashed lookup = scan" `Quick
            test_lookup_matches_scan;
          Alcotest.test_case "first duplicate wins" `Quick
            test_lookup_first_duplicate;
        ] );
      ( "quiet",
        [
          Alcotest.test_case "instance calls follow the messages" `Quick
            test_calls_follow_the_messages;
        ] );
    ]
