(* Property-based cross-validation of the whole stack on random
   configurations.  These are the strongest checks in the repository: they
   tie the centralized combinatorial Classifier to the distributed
   simulation through the equivalences the paper proves (Lemmas 3.8-3.11),
   and the fast classifier to the literal one. *)

module C = Radio_config.Config
module RC = Radio_config.Random_config
module F = Radio_config.Families
module Gen = Radio_graph.Gen
module H = Radio_drip.History
module P = Radio_drip.Protocol
module Patient = Radio_drip.Patient
module Engine = Radio_sim.Engine
module Runner = Radio_sim.Runner
module Cl = Election.Classifier
module Fast = Election.Fast_classifier
module Can = Election.Canonical
module Fe = Election.Feasibility
module Label = Election.Label

(* Random configuration generator shared by all properties: connected
   G(n,p) or random tree, small n so thousands of cases stay fast. *)
let gen_config =
  QCheck.make
    ~print:(fun (kind, n, span, seed) ->
      Printf.sprintf "%s n=%d span=%d seed=%d"
        (if kind then "gnp" else "tree")
        n span seed)
    QCheck.Gen.(
      quad bool (int_range 1 16) (int_range 0 4) (int_range 0 1_000_000))

let build (kind, n, span, seed) =
  let st = Random.State.make [| seed |] in
  if kind then RC.connected_gnp st ~n ~p:0.35 ~span
  else RC.random_tree st ~n ~span

(* Every engine outcome this suite produces is additionally vetted by the
   model-conformance checker (lib/lint): beyond the property under test,
   the run itself must satisfy every invariant of engine.mli — history
   lengths, wake-up and collision semantics, ledgers, the anonymity law —
   and the protocol must replay purely into fresh instances. *)
let assert_valid ?protocol o =
  match Radio_lint.Invariants.validate ?protocol o with
  | [] -> ()
  | vs ->
      Alcotest.failf "model invariants violated:@.%a" Radio_lint.Report.pp vs

let checked_run ?max_rounds ?record_trace proto config =
  let o = Engine.run ?max_rounds ?record_trace proto config in
  assert_valid ~protocol:proto o;
  o

let runs_agree r1 r2 =
  (match (r1.Cl.verdict, r2.Cl.verdict) with
  | Cl.Infeasible, Cl.Infeasible -> true
  | Cl.Feasible { singleton_class = a }, Cl.Feasible { singleton_class = b } ->
      a = b
  | _ -> false)
  && List.for_all2
       (fun i1 i2 ->
         i1.Cl.new_class = i2.Cl.new_class && i1.Cl.reps = i2.Cl.reps)
       r1.Cl.iterations r2.Cl.iterations

(* P1: fast classifier == literal classifier, in full detail. *)
let prop_fast_equals_reference =
  QCheck.Test.make ~name:"fast classifier == literal classifier" ~count:800
    gen_config (fun params ->
      let config = build params in
      runs_agree (Cl.classify config) (Fast.classify config))

(* P2 (Theorem 3.15): on feasible configurations the dedicated algorithm
   elects exactly the classifier's predicted leader in the simulator, and
   every node stops in local round r_T + 1. *)
let prop_feasible_elects_predicted_leader =
  QCheck.Test.make ~name:"feasible => dedicated algorithm elects predicted leader"
    ~count:500 gen_config (fun params ->
      let config = build params in
      let a = Fe.analyze config in
      match Fe.verify_by_simulation ~max_rounds:3_000_000 a with
      | None -> QCheck.assume_fail () (* infeasible: checked in P3 *)
      | Some r ->
          Runner.elects_unique_leader r
          && r.Runner.leader = a.Fe.leader
          && Array.for_all
               (fun d -> d = a.Fe.election_local_rounds)
               r.Runner.outcome.Engine.done_local)

(* P3 (Lemma 3.9): the history partition after executing the canonical DRIP
   equals the classifier's final partition - feasible or not. *)
let prop_history_partition_matches =
  QCheck.Test.make ~name:"history classes == classifier partition (Lemma 3.9)"
    ~count:500 gen_config (fun params ->
      let config = build params in
      let run = Cl.classify config in
      let plan = Can.plan_of_run run in
      let o = checked_run ~max_rounds:3_000_000 (Can.protocol plan) config in
      if not o.Engine.all_terminated then false
      else begin
        let hc = Runner.history_classes o in
        let final = (Cl.last_iteration run).Cl.new_class in
        let n = C.size config in
        let ok = ref true in
        for v = 0 to n - 1 do
          for w = v + 1 to n - 1 do
            if hc.(v) = hc.(w) <> (final.(v) = final.(w)) then ok := false
          done
        done;
        !ok
      end)

(* P4 (Lemma 3.6): the canonical DRIP is patient: all wake-ups spontaneous
   and no transmission in global rounds 0..sigma. *)
let prop_canonical_patient =
  QCheck.Test.make ~name:"canonical DRIP is patient (Lemma 3.6)" ~count:500
    gen_config (fun params ->
      let config = build params in
      let plan = Can.plan_of_run (Cl.classify config) in
      let o = checked_run ~max_rounds:3_000_000 (Can.protocol plan) config in
      Array.for_all not o.Engine.forced
      &&
      match o.Engine.first_transmission with
      | Some (r, _) -> r > C.span config
      | None -> C.size config = 1)

(* P5: the schedule length respects the explicit O(n^2 sigma) constant
   (Lemma 3.10). *)
let prop_schedule_bound =
  QCheck.Test.make ~name:"schedule within explicit O(n^2 sigma) bound"
    ~count:800 gen_config (fun params ->
      let config = build params in
      let plan = Can.plan_of_run (Cl.classify config) in
      Can.local_termination_round plan
      <= Can.upper_bound_rounds ~n:(C.size config) ~sigma:(C.span config))

(* P6: feasibility is invariant under node relabelling, and the predicted
   leader maps through the permutation. *)
let prop_relabel_invariance =
  QCheck.Test.make ~name:"feasibility invariant under relabelling" ~count:200
    gen_config (fun params ->
      let kind, n, _, seed = params in
      ignore kind;
      let config = build params in
      let st = Random.State.make [| seed + 1 |] in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let a = Fe.analyze config in
      let a' = Fe.analyze (C.relabel config perm) in
      a.Fe.feasible = a'.Fe.feasible
      &&
      match (a.Fe.leader, a'.Fe.leader) with
      | None, None -> true
      | Some v, Some v' ->
          (* Both leaders have globally unique histories; relabelling maps
             unique-history nodes onto each other, though the *smallest
             singleton class* can differ in numbering: accept either exact
             mapping or both being legitimate singleton members. *)
          v' = perm.(v)
          || (let final = (Cl.last_iteration a'.Fe.run).Cl.new_class in
              let sizes = Hashtbl.create 8 in
              Array.iter
                (fun c ->
                  Hashtbl.replace sizes c
                    (1 + Option.value ~default:0 (Hashtbl.find_opt sizes c)))
                final;
              Hashtbl.find sizes final.(v') = 1
              && Hashtbl.find sizes final.(perm.(v)) = 1)
      | _ -> false)

(* P7: shifting all tags by a constant changes nothing (Section 2.1). *)
let prop_shift_invariance =
  QCheck.Test.make ~name:"verdict invariant under global tag shift" ~count:200
    gen_config (fun params ->
      let config = build params in
      let shifted =
        C.create ~normalize:false (C.graph config)
          (Array.map (fun t -> t + 5) (C.tags config))
      in
      let a = Fe.analyze config in
      let a' = Fe.analyze shifted in
      a.Fe.feasible = a'.Fe.feasible && a.Fe.leader = a'.Fe.leader)

(* P8: a patient wrap of any protocol never transmits in rounds 0..sigma. *)
let prop_patient_wrap_is_patient =
  QCheck.Test.make ~name:"patient transform is patient (Lemma 3.12 Claim 1)"
    ~count:200 gen_config (fun params ->
      let config = build params in
      let sigma = C.span config in
      let proto = Patient.make ~sigma (P.beacon ~delay:1 ()) in
      let o = checked_run ~max_rounds:10_000 proto config in
      (match o.Engine.first_transmission with
      | Some (r, _) -> r > sigma
      | None -> true)
      && Array.for_all not o.Engine.forced)

(* P9 (Observation 3.2 / Corollary 3.3): refinement along iterations. *)
let prop_refinement_monotone =
  QCheck.Test.make ~name:"class counts non-decreasing, separation persists"
    ~count:300 gen_config (fun params ->
      let config = build params in
      let run = Cl.classify config in
      let ok = ref true in
      let prev_count = ref 1 in
      List.iter
        (fun it ->
          if it.Cl.num_classes < !prev_count then ok := false;
          prev_count := it.Cl.num_classes;
          let n = Array.length it.Cl.new_class in
          for v = 0 to n - 1 do
            for w = v + 1 to n - 1 do
              if
                it.Cl.old_class.(v) <> it.Cl.old_class.(w)
                && it.Cl.new_class.(v) = it.Cl.new_class.(w)
              then ok := false
            done
          done)
        run.Cl.iterations;
      !ok)

(* P10: the pure-function transcription of the canonical DRIP (via
   block_trace replay) agrees with what the stateful instance actually did:
   transmission rounds recovered from the history coincide with the trace
   recorded by the engine. *)
let prop_replay_consistency =
  QCheck.Test.make ~name:"history replay recovers actual transmission blocks"
    ~count:150 gen_config (fun params ->
      let config = build params in
      let plan = Can.plan_of_run (Cl.classify config) in
      let o =
        checked_run ~max_rounds:3_000_000 ~record_trace:true
          (Can.protocol plan) config
      in
      let n = C.size config in
      let bounds = Can.phase_bounds plan in
      let sigma = plan.Can.sigma in
      (* Recorded transmissions per node, as (phase, block) pairs derived
         from global round and wake offset. *)
      let actual = Array.make n [] in
      List.iter
        (fun ev ->
          List.iter
            (fun (v, _) ->
              let local = ev.Radio_sim.Trace.round - o.Engine.wake_round.(v) in
              (* find the phase *)
              let rec phase j =
                if j > Can.num_phases plan then None
                else if local <= bounds.(j) then Some j
                else phase (j + 1)
              in
              match phase 1 with
              | None -> ()
              | Some j ->
                  let offset = local - bounds.(j - 1) in
                  let block = ((offset - 1) / ((2 * sigma) + 1)) + 1 in
                  actual.(v) <- (j, block) :: actual.(v))
            ev.Radio_sim.Trace.transmitters)
        o.Engine.trace;
      let ok = ref true in
      for v = 0 to n - 1 do
        let replayed = Can.block_trace plan o.Engine.histories.(v) in
        let expected =
          List.sort compare
            (List.filteri (fun _ _ -> true) (Array.to_list replayed)
            |> List.mapi (fun j tb -> (j + 1, tb))
            |> List.filter_map (fun (j, tb) ->
                   Option.map (fun b -> (j, b)) tb))
        in
        if List.sort compare actual.(v) <> expected then ok := false
      done;
      !ok)

(* P11: uniform tags on >= 2 nodes are always infeasible. *)
let prop_uniform_infeasible =
  QCheck.Test.make ~name:"uniform wake-up is infeasible for n >= 2" ~count:200
    gen_config (fun params ->
      let kind, n, _, seed = params in
      ignore kind;
      QCheck.assume (n >= 2);
      let st = Random.State.make [| seed |] in
      let g = Gen.random_connected_gnp st n 0.4 in
      not (Fe.is_feasible (C.uniform g 0)))

(* P12: decision function of the dedicated algorithm marks exactly one
   winner among the simulated histories (restating P2 through the pure
   decision interface). *)
let prop_decision_unique_winner =
  QCheck.Test.make ~name:"dedicated decision marks exactly one history"
    ~count:150 gen_config (fun params ->
      let config = build params in
      let run = Cl.classify config in
      QCheck.assume (Cl.is_feasible run);
      let plan = Can.plan_of_run run in
      let o = checked_run ~max_rounds:3_000_000 (Can.protocol plan) config in
      let winners =
        List.filter
          (fun v -> Can.decision plan o.Engine.histories.(v))
          (List.init (C.size config) Fun.id)
      in
      List.length winners = 1)

(* P13: the optimized engine and the executable specification agree on
   arbitrary scripted protocols. *)
let prop_engine_matches_spec =
  QCheck.Test.make ~name:"engine == executable specification" ~count:500
    gen_config (fun params ->
      let kind, _, _, seed = params in
      ignore kind;
      let config = build params in
      let st = Random.State.make [| seed + 99 |] in
      let length = 1 + Random.State.int st 10 in
      let script =
        Array.init length (fun _ ->
            match Random.State.int st 4 with
            | 0 -> P.Transmit "x"
            | 1 -> P.Transmit "y"
            | _ -> P.Listen)
      in
      let proto =
        P.stateful ~name:"script"
          ~init:(fun _ -> 0)
          ~decide:(fun i -> if i >= length then P.Terminate else script.(i))
          ~observe:(fun i _ -> i + 1)
      in
      let o = checked_run ~max_rounds:10_000 proto config in
      let s = Spec_engine.run ~max_rounds:10_000 proto config in
      Spec_engine.agrees_with_engine s o)

(* P14: the pure (history-function) canonical DRIP is the state machine. *)
let prop_pure_drip_equivalence =
  QCheck.Test.make ~name:"pure canonical DRIP == state machine" ~count:120
    gen_config (fun params ->
      let config = build params in
      let plan = Can.plan_of_run (Cl.classify config) in
      let o1 = checked_run ~max_rounds:1_000_000 (Can.protocol plan) config in
      let o2 = checked_run ~max_rounds:1_000_000 (Can.pure_protocol plan) config in
      Array.for_all2 H.equal o1.Engine.histories o2.Engine.histories)

(* P15: plans survive serialization, structurally and behaviourally. *)
let prop_plan_roundtrip =
  QCheck.Test.make ~name:"plan serialization roundtrip" ~count:200 gen_config
    (fun params ->
      let config = build params in
      let plan = Can.plan_of_run (Cl.classify config) in
      Election.Plan_io.of_string (Election.Plan_io.to_string plan) = plan)

(* P16: Repair's output is sound (repaired configurations are feasible and
   differ only in the reported changes). *)
let prop_repair_sound =
  QCheck.Test.make ~name:"repair output is feasible and minimalistic"
    ~count:60 gen_config (fun params ->
      let kind, n, _, _ = params in
      ignore kind;
      QCheck.assume (n <= 8);
      let config = build params in
      match Election.Repair.repair ~max_changes:2 config with
      | None -> true (* nothing within budget: acceptable *)
      | Some plan ->
          Fe.is_feasible plan.Election.Repair.repaired
          && List.length plan.Election.Repair.changes <= 2
          (* an already-feasible input yields the empty plan, and only it *)
          && Fe.is_feasible config = (plan.Election.Repair.changes = []))

(* P17: Wave_election's precondition implies a correct, on-schedule
   election of the root on random depth-tagged trees. *)
let prop_wave_correct_on_trees =
  QCheck.Test.make ~name:"wave election on depth-tagged trees" ~count:150
    gen_config (fun params ->
      let kind, n, _, seed = params in
      ignore kind;
      let st = Random.State.make [| seed |] in
      let g = Gen.random_tree st n in
      let root = Random.State.int st n in
      let dist = Radio_graph.Props.bfs_distances g root in
      let slack = Random.State.int st 3 in
      let config =
        C.create g (Array.map (fun d -> if d = 0 then 0 else d + slack) dist)
      in
      QCheck.assume (Election.Wave_election.applies config);
      let r = Runner.run ~max_rounds:10_000 Election.Wave_election.election config in
      assert_valid ~protocol:Election.Wave_election.election.Runner.protocol
        r.Runner.outcome;
      r.Runner.leader = Some root
      && r.Runner.rounds_to_elect = Election.Wave_election.election_rounds config
      && Cl.is_feasible (Cl.classify config))

(* P18: the timeline renderer never raises, for terminated and cut-off
   executions alike. *)
let prop_timeline_total =
  QCheck.Test.make ~name:"timeline renders any outcome" ~count:100 gen_config
    (fun params ->
      let config = build params in
      let plan = Can.plan_of_run (Cl.classify config) in
      let o =
        checked_run ~max_rounds:50 ~record_trace:true (Can.protocol plan) config
      in
      String.length (Radio_sim.Timeline.render_with_legend o) > 0)

(* P19: energy conservation: the per-node ledger sums to the metric. *)
let prop_energy_ledger =
  QCheck.Test.make ~name:"per-node transmissions sum to the metric" ~count:150
    gen_config (fun params ->
      let config = build params in
      let plan = Can.plan_of_run (Cl.classify config) in
      let o = checked_run ~max_rounds:1_000_000 (Can.protocol plan) config in
      Array.fold_left ( + ) 0 o.Engine.transmissions_by_node
      = o.Engine.metrics.Radio_sim.Metrics.transmissions)

(* P20: the audit battery passes on random configurations. *)
let prop_audit_passes =
  QCheck.Test.make ~name:"audit battery passes" ~count:60 gen_config
    (fun params ->
      let config = build params in
      (Election.Audit.run ~max_rounds:1_000_000 config).Election.Audit.all_passed)

(* P21: symmetry certificates are sound: certified => classifier says
   infeasible, and the returned permutation passes the elementary check. *)
let prop_symmetry_sound =
  QCheck.Test.make ~name:"automorphism certificates are sound" ~count:200
    gen_config (fun params ->
      let config = build params in
      match Election.Symmetry.find ~budget:50_000 config with
      | None -> true
      | Some cert ->
          Election.Symmetry.is_certificate config cert
          && not (Fe.is_feasible config))

(* P22: the optimal symmetry-breaking search is consistent with the
   canonical DRIP on tiny instances: Never iff infeasible, and when broken,
   optimal <= the canonical DRIP's separation round. *)
let prop_optimal_consistent =
  QCheck.Test.make ~name:"optimal breaking time consistent" ~count:80
    gen_config (fun params ->
      let _, n, span, _ = params in
      QCheck.assume (n <= 5 && span <= 3);
      let config = build params in
      match Radio_mc.Optimal.breaking_time ~max_states:100_000 config with
      | Radio_mc.Optimal.Never -> not (Fe.is_feasible config)
      | Radio_mc.Optimal.Broken_at opt -> (
          Fe.is_feasible config
          &&
          match Radio_mc.Optimal.canonical_breaking_time config with
          | Some can -> opt <= can
          | None -> false)
      | Radio_mc.Optimal.Not_within_horizon
      | Radio_mc.Optimal.Search_budget_exhausted -> true)

(* P23: repair and fragility are mutual inverses at the boundary: a
   breaking perturbation reported by Fragility is repaired back to
   feasibility by Repair with cost <= the perturbation's own cost. *)
let prop_fragility_repair_duality =
  QCheck.Test.make ~name:"fragility/repair duality" ~count:40 gen_config
    (fun params ->
      let _, n, _, _ = params in
      QCheck.assume (n <= 7);
      let config = build params in
      QCheck.assume (Fe.is_feasible config);
      let report = Election.Fragility.single_tag config in
      List.for_all
        (fun (v, t) ->
          let tags = C.tags config in
          let cost = abs (t - tags.(v)) in
          tags.(v) <- t;
          let broken = C.create (C.graph config) tags in
          match Election.Repair.repair_one ~max_tag:(C.span config + 1) broken with
          | Some plan -> plan.Election.Repair.cost <= cost
          | None -> false (* undoing the slip always works, so never None *))
        report.Election.Fragility.breaking)

(* P24: the model-conformance checker (lib/lint) accepts every traced
   canonical execution: collision semantics, termination permanence,
   forced-wake-up uniqueness, the anonymity law and fresh-spawn replay all
   hold by construction — any engine or protocol regression trips this. *)
let prop_invariant_checker_traced =
  QCheck.Test.make ~name:"traced executions satisfy all model invariants"
    ~count:200 gen_config (fun params ->
      let config = build params in
      let plan = Can.plan_of_run (Cl.classify config) in
      let proto = Can.protocol plan in
      let o = Engine.run ~max_rounds:3_000_000 ~record_trace:true proto config in
      Radio_lint.Report.ok (Radio_lint.Invariants.validate ~protocol:proto o))

(* ------------------------------------------------------------------ *)
(* Fault layer (lib/faults)                                            *)
(* ------------------------------------------------------------------ *)

module FP = Radio_sim.Fault_plan

(* P25 (the identity law): the empty-plan run of the engine's one round
   loop agrees with the independently written executable specification
   (Spec_engine, which shares no code with the loop) on the whole property
   universe, fires no fault and crashes no node. *)
let prop_empty_plan_identity =
  QCheck.Test.make
    ~name:"empty fault plan == pristine engine (executable specification)"
    ~count:300 gen_config (fun params ->
      let config = build params in
      let plan = Can.plan_of_run (Cl.classify config) in
      let proto = Can.protocol plan in
      let fo =
        Engine.run_plan ~max_rounds:3_000_000 ~record_trace:true FP.empty
          proto config
      in
      let s = Spec_engine.run ~max_rounds:3_000_000 proto config in
      Spec_engine.agrees_with_engine s fo.Engine.base
      && fo.Engine.ledger = []
      && Array.for_all (fun c -> c = -1) fo.Engine.crashed_at)

(* A seed-derived mixed plan (crashes, drops, noise, jitter) over the live
   part of the run, normalized so serialization is the identity. *)
let sampled_plan ~seed config =
  let n = C.size config in
  let horizon = (3 * (n + C.span config)) + 5 in
  FP.normalize
    (FP.sample ~seed ~crashes:(min 2 n) ~drops:4 ~noise:3 ~jitters:2 ~horizon
       config)

(* P26: faulty replay determinism — the same plan replays to the identical
   outcome and ledger, and the plan survives its own serialization. *)
let prop_faulty_replay_deterministic =
  QCheck.Test.make ~name:"faulty runs replay deterministically" ~count:150
    gen_config (fun params ->
      let _, _, _, seed = params in
      let config = build params in
      let plan = sampled_plan ~seed config in
      let cplan = Can.plan_of_run (Cl.classify config) in
      let proto = Can.protocol cplan in
      let o1 =
        Engine.run_plan ~max_rounds:3_000_000 ~record_trace:true plan proto
          config
      in
      let o2 =
        Engine.run_plan ~max_rounds:3_000_000 ~record_trace:true plan proto
          config
      in
      FP.of_string (FP.to_string plan) = plan
      && Engine.outcome_equal o1.Engine.base o2.Engine.base
      && o1.Engine.ledger = o2.Engine.ledger
      && o1.Engine.crashed_at = o2.Engine.crashed_at)

(* P27: every faulty outcome satisfies the perturbed-model invariants
   (crash silence, post-drop reception counts, noise corruption, ledger
   consistency) — the fault-aware sibling of P24. *)
let prop_faulty_outcomes_validate =
  QCheck.Test.make
    ~name:"faulty outcomes satisfy the perturbed-model invariants" ~count:150
    gen_config (fun params ->
      let _, _, _, seed = params in
      let config = build params in
      let plan = sampled_plan ~seed:(seed + 7) config in
      let cplan = Can.plan_of_run (Cl.classify config) in
      let proto = Can.protocol cplan in
      let fo =
        Engine.run_plan ~max_rounds:3_000_000 ~record_trace:true plan proto
          config
      in
      Radio_lint.Report.ok
        (Radio_lint.Invariants.validate_faulty ~protocol:proto fo))

(* P28 (text-format hardening): every nested crash schedule prefix,
   combined with sampled topology events, survives serialization exactly —
   and re-feeding the text with any line duplicated is a positioned parse
   error, not a silent dedup. *)
let prop_nested_topology_roundtrip =
  QCheck.Test.make ~name:"nested crash + topology plans roundtrip" ~count:100
    gen_config (fun params ->
      let _, _, _, seed = params in
      let config = build params in
      let n = C.size config in
      QCheck.assume (n >= 2);
      let horizon = (3 * (n + C.span config)) + 5 in
      let sched = FP.crash_schedule ~seed ~horizon config in
      let topo =
        FP.sample ~seed:(seed + 13) ~link_flaps:2 ~node_flaps:1 ~retags:2
          ~horizon config
      in
      List.for_all
        (fun k ->
          let crashes =
            List.filteri (fun i _ -> i < k) sched
            |> List.map (fun (node, round) -> FP.Crash { node; round })
          in
          let plan = FP.normalize (crashes @ topo) in
          let s = FP.to_string plan in
          let roundtrips = FP.of_string s = plan in
          let duplicate_rejected =
            (* re-append the last fault line: must be a positioned error *)
            match
              List.filter
                (fun l -> String.trim l <> "" && String.trim l <> "faults")
                (String.split_on_char '\n' s)
            with
            | [] -> true
            | lines -> (
                let last = List.nth lines (List.length lines - 1) in
                match FP.of_string (s ^ last ^ "\n") with
                | exception Failure msg ->
                    (* names the offending 1-based line *)
                    let expected =
                      Printf.sprintf "line %d" (List.length lines + 2)
                    in
                    let rec mem i =
                      i + String.length expected <= String.length msg
                      && (String.sub msg i (String.length expected) = expected
                         || mem (i + 1))
                    in
                    mem 0
                | _ -> false)
          in
          roundtrips && duplicate_rejected)
        (List.init (n + 1) Fun.id))

(* P29: runs under topology churn (link flaps, leaves/joins, retags mixed
   with crashes and drops) replay deterministically, and their outcomes
   satisfy the reduced perturbed-model invariants. *)
let prop_churn_replay_deterministic =
  QCheck.Test.make ~name:"topology-churn runs replay deterministically"
    ~count:100 gen_config (fun params ->
      let _, _, _, seed = params in
      let config = build params in
      let n = C.size config in
      QCheck.assume (n >= 2);
      let horizon = (3 * (n + C.span config)) + 5 in
      let plan =
        FP.normalize
          (FP.sample ~seed:(seed + 3) ~crashes:1 ~drops:2 ~link_flaps:2
             ~node_flaps:1 ~retags:1 ~horizon config)
      in
      let cplan = Can.plan_of_run (Cl.classify config) in
      let proto = Can.protocol cplan in
      let go () =
        Engine.run_plan ~max_rounds:3_000_000 ~record_trace:true plan proto
          config
      in
      let o1 = go () in
      let o2 = go () in
      Engine.outcome_equal o1.Engine.base o2.Engine.base
      && o1.Engine.ledger = o2.Engine.ledger
      && o1.Engine.crashed_at = o2.Engine.crashed_at
      && o1.Engine.departed_at = o2.Engine.departed_at
      && Radio_lint.Report.ok
           (Radio_lint.Invariants.validate_faulty ~protocol:proto o1))

(* ------------------------------------------------------------------ *)
(* Quiet horizons                                                      *)
(* ------------------------------------------------------------------ *)

(* The per-round view of a protocol: every quiet horizon read as [Listen],
   so the engine asks and tells the instance in every round. *)
let per_round (p : P.t) =
  {
    P.name = p.P.name ^ "-per-round";
    spawn =
      (fun () ->
        let i = p.P.spawn () in
        { i with P.decide = (fun () -> P.per_round (i.P.decide ())) });
  }

let plan_outcomes_equal (a : Engine.plan_outcome) (b : Engine.plan_outcome) =
  Engine.outcome_equal a.Engine.base b.Engine.base
  && a.Engine.ledger = b.Engine.ledger
  && a.Engine.crashed_at = b.Engine.crashed_at
  && a.Engine.departed_at = b.Engine.departed_at

(* P30: a quiet horizon changes which calls the engine makes, never the
   run: the DRIP and its per-round view produce equal outcomes (histories,
   wake-up and termination rounds, metrics, trace) and ledgers on P25's
   configurations, under cut-offs before termination, and under P26's
   sampled fault plans and plans with topology events. *)
let prop_quiet_horizons_are_invisible =
  QCheck.Test.make ~name:"quiet horizons == per-round listening" ~count:200
    gen_config (fun params ->
      let _, _, _, seed = params in
      let config = build params in
      let proto = Can.protocol (Can.plan_of_run (Cl.classify config)) in
      let eager = per_round proto in
      let same ?(max_rounds = 3_000_000) plan =
        let go p =
          Engine.run_plan ~max_rounds ~record_trace:true plan p config
        in
        plan_outcomes_equal (go proto) (go eager)
      in
      let rounds =
        (Engine.run ~max_rounds:3_000_000 proto config).Engine.rounds
      in
      let n = C.size config in
      let horizon = (3 * (n + C.span config)) + 5 in
      let topo =
        FP.normalize
          (FP.sample ~seed:(seed + 3) ~crashes:1 ~drops:2 ~noise:2
             ~link_flaps:2 ~node_flaps:1 ~retags:1 ~horizon config)
      in
      same FP.empty
      && same ~max_rounds:(max 1 (rounds / 3)) FP.empty
      && same ~max_rounds:(max 1 (rounds - 1)) FP.empty
      && same (sampled_plan ~seed config)
      && (n < 2 || (same topo && same ~max_rounds:(max 1 (rounds / 2)) topo)))

(* P31: Patient forwards the DRIP's horizons and skips to it: the wrapped
   DRIP runs on the engine as in the executable specification, whose
   per-round loop never sees a horizon. *)
let prop_patient_drip_matches_spec =
  QCheck.Test.make ~name:"patient DRIP: engine == executable specification"
    ~count:150 gen_config (fun params ->
      let config = build params in
      let drip = Can.protocol (Can.plan_of_run (Cl.classify config)) in
      List.for_all
        (fun sigma ->
          let proto = Patient.make ~sigma drip in
          let o = checked_run ~max_rounds:3_000_000 proto config in
          let s = Spec_engine.run ~max_rounds:3_000_000 proto config in
          Spec_engine.agrees_with_engine s o)
        [ C.span config; C.span config + 2 ])

(* Raw observations: distinct (block, slot) pairs with random marks,
   listed latest first as the DRIP records them (strictly descending). *)
let gen_observations =
  QCheck.make
    ~print:(fun obs ->
      String.concat " "
        (List.map
           (fun (b, s, m) ->
             Printf.sprintf "(%d,%d,%s)" b s
               (match m with Label.One -> "1" | Label.Many -> "*"))
           obs))
    QCheck.Gen.(
      map
        (fun l ->
          List.sort_uniq
            (fun (b1, s1, _) (b2, s2, _) -> compare (b2, s2) (b1, s1))
            (List.map
               (fun (b, s, many) ->
                 (b, s, if many then Label.Many else Label.One))
               l))
        (list_size (int_range 0 12)
           (triple (int_range 1 6) (int_range 1 7) bool)))

(* The sort-based reading of observations, kept as the oracle. *)
let sorted_label obs =
  List.sort Label.compare_triple
    (List.map (fun (block, slot, mark) -> { Label.block; slot; mark }) obs)

(* P32: latest-first observations take the reversal path; the label is
   the one the sort gives, in any order of the same observations. *)
let prop_observations_latest_first =
  QCheck.Test.make ~name:"of_observations latest first == sorted"
    ~count:500 gen_observations (fun obs ->
      let expected = sorted_label obs in
      Label.equal (Label.of_observations obs) expected
      && Label.equal (Label.of_observations (List.rev obs)) expected
      && Label.equal
           (Label.of_observations
              (List.sort (fun (_, s1, _) (_, s2, _) -> compare s1 s2) obs))
           expected)

(* P33: equal labels, built apart, hash equally, alone and keyed by a
   class. *)
let prop_equal_labels_hash_equally =
  QCheck.Test.make ~name:"equal labels have equal hashes" ~count:500
    (QCheck.pair gen_observations QCheck.small_nat) (fun (obs, c) ->
      let a = Label.of_observations obs and b = sorted_label obs in
      Label.equal a b
      && Label.hash a = Label.hash b
      && Label.hash_key c a = Label.hash_key c b)

let () =
  Alcotest.run "properties"
    [
      ( "cross-validation",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fast_equals_reference;
            prop_feasible_elects_predicted_leader;
            prop_history_partition_matches;
            prop_canonical_patient;
            prop_schedule_bound;
            prop_relabel_invariance;
            prop_shift_invariance;
            prop_patient_wrap_is_patient;
            prop_refinement_monotone;
            prop_replay_consistency;
            prop_uniform_infeasible;
            prop_decision_unique_winner;
          ] );
      ( "tooling",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engine_matches_spec;
            prop_pure_drip_equivalence;
            prop_plan_roundtrip;
            prop_repair_sound;
            prop_wave_correct_on_trees;
            prop_timeline_total;
            prop_energy_ledger;
            prop_audit_passes;
            prop_symmetry_sound;
            prop_optimal_consistent;
            prop_fragility_repair_duality;
            prop_invariant_checker_traced;
          ] );
      ( "faults",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_empty_plan_identity;
            prop_faulty_replay_deterministic;
            prop_faulty_outcomes_validate;
            prop_nested_topology_roundtrip;
            prop_churn_replay_deterministic;
          ] );
      ( "label",
        List.map QCheck_alcotest.to_alcotest
          [ prop_observations_latest_first; prop_equal_labels_hash_equally ] );
      ( "quiet",
        List.map QCheck_alcotest.to_alcotest
          [ prop_quiet_horizons_are_invisible; prop_patient_drip_matches_spec ]
      );
    ]
