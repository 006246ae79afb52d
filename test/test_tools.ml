(* Tests for the operational tooling layered on top of the theory:
   Explain (verdict witnesses), Repair (tag-perturbation search), Plan_io
   (dedicated-algorithm serialization), Timeline (space-time rendering),
   and the two additional randomized baselines (Willard, Bit_tournament). *)

module C = Radio_config.Config
module F = Radio_config.Families
module G = Radio_graph.Graph
module Gen = Radio_graph.Gen
module H = Radio_drip.History
module Cl = Election.Classifier
module Can = Election.Canonical
module Fe = Election.Feasibility
module Explain = Election.Explain
module Repair = Election.Repair
module Plan_io = Election.Plan_io
module Engine = Radio_sim.Engine
module Runner = Radio_sim.Runner
module Timeline = Radio_sim.Timeline
module Willard = Radio_baselines.Willard
module BT = Radio_baselines.Bit_tournament

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)
(* ------------------------------------------------------------------ *)

let test_explain_feasible () =
  let e = Explain.explain (Cl.classify (F.h_family 2)) in
  Alcotest.(check (option int)) "leader" (Some 0) e.Explain.leader;
  Alcotest.(check (option int)) "alone at iteration 1" (Some 1)
    e.Explain.leader_alone_at;
  check "H_m has no residual groups" true (e.Explain.stable_groups = []);
  Alcotest.(check (list (pair int int))) "all pairs separated" []
    (Explain.never_separated e)

let test_explain_infeasible () =
  let e = Explain.explain (Cl.classify (F.s_family 3)) in
  Alcotest.(check (option int)) "no leader" None e.Explain.leader;
  check "two stable groups" true
    (e.Explain.stable_groups = [ [ 0; 3 ]; [ 1; 2 ] ]
    || e.Explain.stable_groups = [ [ 1; 2 ]; [ 0; 3 ] ]);
  Alcotest.(check (list (pair int int)))
    "never-separated pairs"
    [ (0, 3); (1, 2) ]
    (List.sort compare (Explain.never_separated e))

let test_explain_g_family_centre_separation () =
  (* Prop 4.1: the centre separates at iteration m. *)
  let m = 3 in
  let e = Explain.explain (Cl.classify (F.g_family m)) in
  Alcotest.(check (option int)) "centre alone at m" (Some m)
    e.Explain.leader_alone_at

let test_explain_pp () =
  let s_inf =
    Format.asprintf "%a" Explain.pp (Explain.explain (Cl.classify (F.s_family 2)))
  in
  check "mentions INFEASIBLE" true (contains s_inf "INFEASIBLE");
  check "mentions groups" true (contains s_inf "indistinguishable");
  let s_f =
    Format.asprintf "%a" Explain.pp (Explain.explain (Cl.classify (F.h_family 1)))
  in
  check "mentions FEASIBLE" true (contains s_f "FEASIBLE")

(* ------------------------------------------------------------------ *)
(* Repair                                                              *)
(* ------------------------------------------------------------------ *)

let test_repair_already_feasible () =
  match Repair.repair_one (F.h_family 1) with
  | Some p ->
      check "no changes" true (p.Repair.changes = []);
      check_int "zero cost" 0 p.Repair.cost
  | None -> Alcotest.fail "feasible input must repair trivially"

let test_repair_one_s_family () =
  match Repair.repair_one (F.s_family 2) with
  | Some p ->
      check_int "one change" 1 (List.length p.Repair.changes);
      check "result feasible" true (Fe.is_feasible p.Repair.repaired);
      check "minimal cost" true (p.Repair.cost >= 1)
  | None -> Alcotest.fail "S_2 must be single-repairable"

let test_repair_symmetric_pair () =
  (* [|0; 0|] on an edge: bump either tag to 1. *)
  match Repair.repair_one (F.symmetric_pair ()) with
  | Some p ->
      check_int "cost 1" 1 p.Repair.cost;
      check "feasible" true (Fe.is_feasible p.Repair.repaired)
  | None -> Alcotest.fail "symmetric pair is single-repairable"

let test_repair_uniform_cycle_needs_search () =
  (* A 4-cycle with all-equal tags: one change gives tags like [1;0;0;0],
     which on a cycle leaves nodes 1 and 3 (the leader candidates'
     neighbours) symmetric... single change may or may not suffice; the
     multi-change search must find something within 2 changes. *)
  let config = C.uniform (Gen.cycle 4) 0 in
  match Repair.repair ~max_changes:2 config with
  | Some p ->
      check "feasible" true (Fe.is_feasible p.Repair.repaired);
      check "within budget" true (List.length p.Repair.changes <= 2)
  | None -> Alcotest.fail "4-cycle should be repairable with 2 changes"

let test_repair_respects_budget () =
  (* With max_tag 0 nothing can change (all tags already 0): must fail on
     an infeasible uniform configuration. *)
  let config = C.uniform (Gen.cycle 4) 0 in
  check "impossible budget" true (Repair.repair_one ~max_tag:0 config = None)

let test_repair_multi_cheaper_than_nothing () =
  (* repair (multi) on a single-repairable input returns a 1-change plan
     (the search explores smaller sets first). *)
  match Repair.repair ~max_changes:3 (F.s_family 1) with
  | Some p -> check_int "one change suffices" 1 (List.length p.Repair.changes)
  | None -> Alcotest.fail "expected repair"

let test_repair_pp () =
  match Repair.repair_one (F.s_family 2) with
  | Some p ->
      let s = Format.asprintf "%a" Repair.pp_plan p in
      check "mentions cost" true (contains s "cost")
  | None -> Alcotest.fail "expected repair"

(* The search that pushed every extension of a popped change set at once,
   kept as the oracle of the lazy one: same queue order, so the same
   plan. *)
let eager_repair ?max_tag ~max_changes config =
  let max_tag = Option.value max_tag ~default:(C.span config + 1) in
  let feasible c = Fe.is_feasible c in
  let apply changes =
    let tags = C.tags config in
    List.iter (fun ch -> tags.(ch.Repair.node) <- ch.Repair.new_tag) changes;
    C.create (C.graph config) tags
  in
  if feasible config then Some []
  else begin
    let candidates =
      Array.of_list
        (List.concat_map
           (fun node ->
             let old_tag = C.tag config node in
             List.filter_map
               (fun new_tag ->
                 if new_tag = old_tag then None
                 else Some { Repair.node; old_tag; new_tag })
               (List.init (max_tag + 1) Fun.id))
           (List.init (C.size config) Fun.id))
    in
    let cost_of changes =
      List.fold_left
        (fun a ch -> a + abs (ch.Repair.new_tag - ch.Repair.old_tag))
        0 changes
    in
    let frontier = ref [ (0, 0, 0, []) ] in
    let result = ref None in
    while !result = None && !frontier <> [] do
      let sorted = List.sort compare !frontier in
      let ((touched, _, from_index, changes) as el) = List.hd sorted in
      frontier := List.filter (fun x -> x != el) sorted;
      if changes <> [] && feasible (apply changes) then
        result := Some (List.sort compare changes)
      else if touched < max_changes then
        for i = from_index to Array.length candidates - 1 do
          let ch = candidates.(i) in
          if not (List.exists (fun c -> c.Repair.node = ch.Repair.node) changes)
          then
            frontier :=
              (touched + 1, cost_of (ch :: changes), i + 1, ch :: changes)
              :: !frontier
        done
    done;
    !result
  end

(* Every infeasible configuration of the n <= 5 universe, plus inputs
   whose search runs dry (edgeless graphs never elect) or goes deep. *)
let test_repair_lazy_equals_eager () =
  let same ~max_changes config =
    check
      (Format.asprintf "%a, %d changes" C.pp config max_changes)
      true
      (Option.map (fun p -> p.Repair.changes) (Repair.repair ~max_changes config)
      = eager_repair ~max_changes config)
  in
  List.iter
    (fun (max_n, max_changes) ->
      List.iter
        (fun (_, _, configs) -> List.iter (same ~max_changes) configs)
        (Election.Census.universe ~max_n ~max_span:2))
    [ (4, 1); (4, 2); (4, 3); (5, 2) ];
  List.iter
    (fun config -> List.iter (fun max_changes -> same ~max_changes config) [ 1; 2; 3 ])
    [
      C.create (G.empty 3) [| 0; 0; 2 |];
      C.create (G.empty 4) [| 0; 3; 1; 0 |];
      C.uniform (Gen.cycle 6) 0;
      F.s_family 3;
    ]

(* ------------------------------------------------------------------ *)
(* Plan serialization                                                  *)
(* ------------------------------------------------------------------ *)

let test_plan_roundtrip () =
  List.iter
    (fun config ->
      let plan = Can.plan_of_run (Cl.classify config) in
      let plan' = Plan_io.of_string (Plan_io.to_string plan) in
      check "roundtrip" true (plan = plan'))
    [
      F.two_cells ();
      F.h_family 3;
      F.s_family 2;
      F.g_family 3;
      F.staircase_clique 5;
      C.create (G.empty 1) [| 0 |];
    ]

let test_plan_roundtrip_behaviour () =
  (* A deserialized plan must drive an identical execution. *)
  let config = F.g_family 2 in
  let plan = Can.plan_of_run (Cl.classify config) in
  let plan' = Plan_io.of_string (Plan_io.to_string plan) in
  let o1 = Engine.run ~max_rounds:200_000 (Can.protocol plan) config in
  let o2 = Engine.run ~max_rounds:200_000 (Can.protocol plan') config in
  check "same histories" true
    (Array.for_all2 H.equal o1.Engine.histories o2.Engine.histories);
  let r = Runner.run ~max_rounds:200_000 (Can.election plan') config in
  check "still elects" true (Runner.elects_unique_leader r)

let test_plan_file_roundtrip () =
  let path = Filename.temp_file "anorad" ".plan" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let plan = Can.plan_of_run (Cl.classify (F.h_family 2)) in
      Plan_io.write_file path plan;
      check "file roundtrip" true (Plan_io.read_file path = plan))

let test_plan_malformed () =
  List.iter
    (fun s ->
      try
        ignore (Plan_io.of_string s);
        Alcotest.fail ("accepted: " ^ s)
      with Failure _ -> ())
    [
      "";
      "drip-plan 2\nsigma 1\nphases 0\nsingleton none\n";
      "drip-plan 1\nsigma 1\nphases 1\nsingleton 1\n";
      "drip-plan 1\nsigma 1\nphases 1\nsingleton 1\ntable 1 1\nentry 1 2 1 2 1\n";
      "drip-plan 1\nsigma x\nphases 1\nsingleton none\ntable final 0\n";
      "drip-plan 1\nsigma 1\nphases 0\nsingleton none\ntable final 0\n";
      "drip-plan 1\nsigma 1\nphases -1\nsingleton none\ntable final 0\n";
      Printf.sprintf
        "drip-plan 1\nsigma 1\nphases %d\nsingleton none\ntable 1 0\n\
         table final 0\n"
        max_int;
    ]

let test_plan_comments_ignored () =
  let plan = Can.plan_of_run (Cl.classify (F.two_cells ())) in
  let text = "# a comment\n" ^ Plan_io.to_string plan ^ "\n# trailing\n" in
  check "comments fine" true (Plan_io.of_string text = plan)

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_timeline_symbols () =
  let config = F.h_family 1 in
  let plan = Can.plan_of_run (Cl.classify config) in
  let o = Engine.run ~max_rounds:10_000 ~record_trace:true (Can.protocol plan) config in
  let s = Timeline.render o in
  check "has asleep" true (contains s ".");
  check "has spontaneous wake" true (contains s "w");
  check "has transmit" true (contains s "T");
  check "has message" true (contains s "m");
  check "has done" true (contains s "#");
  (* every node row present *)
  for v = 0 to 3 do
    check "row" true (contains s (Printf.sprintf "%6d  " v))
  done

let test_timeline_collision_symbol () =
  (* Star with twin tag-0 leaves colliding at the tag-1 centre. *)
  let config = C.create (Gen.star 3) [| 1; 0; 0 |] in
  let proto =
    Radio_drip.Protocol.stateful ~name:"late-tx"
      ~init:(fun _ -> 0)
      ~decide:(fun i ->
        if i = 1 then Radio_drip.Protocol.Transmit "x"
        else if i >= 3 then Radio_drip.Protocol.Terminate
        else Radio_drip.Protocol.Listen)
      ~observe:(fun i _ -> i + 1)
  in
  let o = Engine.run ~max_rounds:100 ~record_trace:true proto config in
  check "noise rendered" true (contains (Timeline.render o) "*")

let test_timeline_without_trace_warns () =
  let config = F.two_cells () in
  let plan = Can.plan_of_run (Cl.classify config) in
  let o = Engine.run ~max_rounds:10_000 (Can.protocol plan) config in
  check "warns" true (contains (Timeline.render o) "without record_trace")

let test_timeline_truncation () =
  let config = F.h_family 40 in
  let plan = Can.plan_of_run (Cl.classify config) in
  let o = Engine.run ~max_rounds:10_000 ~record_trace:true (Can.protocol plan) config in
  let s = Timeline.render ~max_cols:50 o in
  check "elides" true (contains s "rounds)")

(* ------------------------------------------------------------------ *)
(* Willard baseline                                                    *)
(* ------------------------------------------------------------------ *)

let clique n = C.uniform (Gen.complete n) 0

let test_willard_always_elects () =
  let rng = Random.State.make [| 21 |] in
  List.iter
    (fun n ->
      for _ = 1 to 10 do
        let r =
          Runner.run ~max_rounds:100_000 (Willard.election ~rng) (clique n)
        in
        check "unique leader" true (Runner.elects_unique_leader r)
      done)
    [ 2; 3; 8; 32 ]

let test_willard_sublogarithmic_shape () =
  (* The estimation regime must not blow up between n=64 and n=4096: mean
     rounds grow by well under the log-ratio. *)
  let rng = Random.State.make [| 22 |] in
  let small = Willard.measure_rounds ~rng ~n:64 ~trials:15 in
  let large = Willard.measure_rounds ~rng ~n:1024 ~trials:15 in
  check "flat growth" true (large < small *. 1.8)

let test_willard_args () =
  let rng = Random.State.make [| 23 |] in
  Alcotest.check_raises "n=1"
    (Invalid_argument "Willard.measure_rounds: need n >= 2") (fun () ->
      ignore (Willard.measure_rounds ~rng ~n:1 ~trials:1))

(* ------------------------------------------------------------------ *)
(* Bit tournament baseline                                             *)
(* ------------------------------------------------------------------ *)

let test_tournament_fixed_rounds () =
  check_int "n=8: 3*3+3" 12 (BT.rounds ~n:8);
  check_int "n=9: 3*4+3" 15 (BT.rounds ~n:9);
  let rng = Random.State.make [| 31 |] in
  let r = Runner.run ~max_rounds:1_000 (BT.election ~rng ~n:8) (clique 8) in
  (match r.Runner.rounds_to_elect with
  | Some rounds -> check_int "deterministic schedule" (BT.rounds ~n:8) rounds
  | None -> Alcotest.fail "expected election");
  check "unique" true (Runner.elects_unique_leader r)

let test_tournament_success_rate () =
  let rng = Random.State.make [| 32 |] in
  check "high success at n=16" true (BT.success_rate ~rng ~n:16 ~trials:40 >= 0.9)

let test_tournament_failure_detectable () =
  (* Force a collision of maxima by an rng that returns equal ids: with a
     constant generator every node draws the same id, all reach the claim
     phase, the claim collides and nobody wins - but everyone terminates. *)
  let rng = Random.State.make [| 33 |] in
  (* run many trials at n = 2 with 3*1 = 3 bits: ids collide with
     probability 1/8 per trial; over 200 trials we should observe at least
     one detected failure and zero *undetected* ones (undetected = two
     leaders). *)
  let failures = ref 0 in
  for _ = 1 to 200 do
    let r = Runner.run ~max_rounds:1_000 (BT.election ~rng ~n:2) (clique 2) in
    check "terminates" true r.Runner.outcome.Engine.all_terminated;
    match r.Runner.winners with
    | [] -> incr failures
    | [ _ ] -> ()
    | _ -> Alcotest.fail "two leaders elected - soundness violated"
  done;
  check "some detected failures at n=2" true (!failures > 0)

let test_tournament_args () =
  let rng = Random.State.make [| 34 |] in
  Alcotest.check_raises "n=1"
    (Invalid_argument "Bit_tournament.election: need n >= 2") (fun () ->
      ignore (BT.election ~rng ~n:1))

let () =
  Alcotest.run "tools"
    [
      ( "explain",
        [
          Alcotest.test_case "feasible" `Quick test_explain_feasible;
          Alcotest.test_case "infeasible" `Quick test_explain_infeasible;
          Alcotest.test_case "G_m centre" `Quick
            test_explain_g_family_centre_separation;
          Alcotest.test_case "pp" `Quick test_explain_pp;
        ] );
      ( "repair",
        [
          Alcotest.test_case "already feasible" `Quick test_repair_already_feasible;
          Alcotest.test_case "S_2 single change" `Quick test_repair_one_s_family;
          Alcotest.test_case "symmetric pair" `Quick test_repair_symmetric_pair;
          Alcotest.test_case "uniform cycle search" `Quick
            test_repair_uniform_cycle_needs_search;
          Alcotest.test_case "budget respected" `Quick test_repair_respects_budget;
          Alcotest.test_case "prefers few changes" `Quick
            test_repair_multi_cheaper_than_nothing;
          Alcotest.test_case "pp" `Quick test_repair_pp;
          Alcotest.test_case "lazy search = eager oracle" `Quick
            test_repair_lazy_equals_eager;
        ] );
      ( "plan-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_plan_roundtrip;
          Alcotest.test_case "behaviour preserved" `Quick
            test_plan_roundtrip_behaviour;
          Alcotest.test_case "file roundtrip" `Quick test_plan_file_roundtrip;
          Alcotest.test_case "malformed" `Quick test_plan_malformed;
          Alcotest.test_case "comments" `Quick test_plan_comments_ignored;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "symbols" `Quick test_timeline_symbols;
          Alcotest.test_case "collision symbol" `Quick
            test_timeline_collision_symbol;
          Alcotest.test_case "warns without trace" `Quick
            test_timeline_without_trace_warns;
          Alcotest.test_case "truncation" `Quick test_timeline_truncation;
        ] );
      ( "willard",
        [
          Alcotest.test_case "always elects" `Slow test_willard_always_elects;
          Alcotest.test_case "sublogarithmic shape" `Slow
            test_willard_sublogarithmic_shape;
          Alcotest.test_case "args" `Quick test_willard_args;
        ] );
      ( "bit-tournament",
        [
          Alcotest.test_case "fixed rounds" `Quick test_tournament_fixed_rounds;
          Alcotest.test_case "success rate" `Quick test_tournament_success_rate;
          Alcotest.test_case "failures detectable" `Quick
            test_tournament_failure_detectable;
          Alcotest.test_case "args" `Quick test_tournament_args;
        ] );
    ]
