(* Unit tests for the fault layer (lib/faults): plan data type and
   serialization, the per-fault semantics of Engine.run_plan and its
   ledger, resilience degradation curves, and the supervised
   re-election loop.  The cross-cutting laws (empty-plan identity, replay
   determinism, perturbed-model conformance) live in test_properties.ml
   (P25-P27); everything here is small and deterministic. *)

module G = Radio_graph.Graph
module C = Radio_config.Config
module F = Radio_config.Families
module H = Radio_drip.History
module P = Radio_drip.Protocol
module Engine = Radio_sim.Engine
module Fe = Election.Feasibility
module FP = Radio_sim.Fault_plan
module R = Radio_faults.Resilience
module S = Radio_faults.Supervisor
module Ch = Radio_faults.Churn

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The two standing fixtures: a 4-cycle with staggered tags (everything
   wakes spontaneously, no collisions under silent probes) and the paper's
   H_2 (path 0-1-2-3, tags 2 0 0 3, canonical leader 0). *)
let cycle4 =
  C.create (G.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ]) [| 0; 1; 2; 3 |]

let h2 = F.h_family 2

let dedicated config =
  match Fe.dedicated_election (Fe.analyze config) with
  | Some e -> e
  | None -> Alcotest.fail "expected a feasible configuration"

let frun ?(config = cycle4) plan proto =
  Engine.run_plan ~max_rounds:1_000 ~record_trace:true plan proto config

(* ------------------------------------------------------------------ *)
(* Fault_plan: data, validation, serialization, sampling               *)
(* ------------------------------------------------------------------ *)

let mixed_plan =
  [
    FP.Crash { node = 1; round = 3 };
    FP.Drop { src = 0; dst = 1; round = 2 };
    FP.Noise { node = 2; round = 4 };
    FP.Jitter { node = 3; delta = -1 };
  ]

let test_normalize () =
  let doubled = mixed_plan @ List.rev mixed_plan in
  let n = FP.normalize doubled in
  check_int "dedup" (List.length mixed_plan) (List.length n);
  check "idempotent" true (FP.normalize n = n)

let test_roundtrip () =
  let p = FP.normalize mixed_plan in
  check "to/of_string" true (FP.of_string (FP.to_string p) = p);
  check "empty roundtrip" true (FP.of_string (FP.to_string FP.empty) = [])

let test_parse_comments () =
  let p = FP.of_string "faults\n# a comment\n\ncrash 1 3\n  noise 0 2\n" in
  check "parsed" true
    (FP.normalize p
    = FP.normalize
        [ FP.Crash { node = 1; round = 3 }; FP.Noise { node = 0; round = 2 } ])

let test_parse_rejects_garbage () =
  List.iter
    (fun src ->
      match FP.of_string src with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "of_string accepted %S" src)
    [ "nonsense"; "faults\ncrash 1"; "faults\ndrop 0 x 2"; "faults\nfrob 1 2" ]

let test_validate () =
  let ok p = check "valid" true (Result.is_ok (FP.validate cycle4 p)) in
  let bad p = check "invalid" true (Result.is_error (FP.validate cycle4 p)) in
  ok mixed_plan;
  ok FP.empty;
  bad [ FP.Crash { node = 9; round = 0 } ];
  bad [ FP.Crash { node = 0; round = -1 } ];
  (* 0-2 is a chord the 4-cycle does not have: drops follow edges. *)
  bad [ FP.Drop { src = 0; dst = 2; round = 1 } ];
  bad [ FP.Noise { node = -1; round = 0 } ]

let test_jitter_lookup () =
  let p =
    [ FP.Jitter { node = 0; delta = 2 }; FP.Jitter { node = 0; delta = 1 } ]
  in
  check_int "jitter sums" 3 (FP.jitter_of p 0);
  check_int "no jitter" 0 (FP.jitter_of p 1);
  let eff = FP.apply_jitter p (F.two_cells ()) in
  check "shifted, not renormalized" true (C.tags eff = [| 3; 1 |]);
  let clamped =
    FP.apply_jitter [ FP.Jitter { node = 1; delta = -5 } ] (F.two_cells ())
  in
  check "clamped at 0" true (C.tags clamped = [| 0; 0 |])

let test_sample_deterministic () =
  let draw () =
    FP.sample ~seed:42 ~crashes:2 ~drops:3 ~noise:2 ~jitters:1 ~horizon:10
      cycle4
  in
  let p = draw () in
  check "same seed, same plan" true (p = draw ());
  check "sampled plans validate" true (Result.is_ok (FP.validate cycle4 p));
  let count f = List.length (List.filter f p) in
  check_int "crashes" 2 (count (function FP.Crash _ -> true | _ -> false));
  check_int "drops" 3 (count (function FP.Drop _ -> true | _ -> false));
  check_int "noise" 2 (count (function FP.Noise _ -> true | _ -> false));
  check_int "jitters" 1 (count (function FP.Jitter _ -> true | _ -> false))

let test_crash_schedule_nested () =
  let sched = FP.crash_schedule ~seed:7 ~horizon:12 cycle4 in
  check_int "covers every node" 4 (List.length sched);
  check "a permutation" true
    (List.sort compare (List.map fst sched) = [ 0; 1; 2; 3 ]);
  check "rounds within horizon" true
    (List.for_all (fun (_, r) -> r >= 0 && r < 12) sched);
  check "deterministic" true
    (sched = FP.crash_schedule ~seed:7 ~horizon:12 cycle4)

(* ------------------------------------------------------------------ *)
(* Fault_plan: topology events and the hardened parser                 *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let topo_plan =
  [
    FP.Link_down { u = 1; v = 0; round = 2 };
    FP.Link_up { u = 0; v = 2; round = 5 };
    FP.Leave { node = 3; round = 1 };
    FP.Join { node = 3; round = 6; tag = 2 };
    FP.Retag { node = 2; round = 0; tag = 4 };
  ]

let test_topology_roundtrip () =
  let p = FP.normalize (topo_plan @ mixed_plan) in
  check "all nine kinds roundtrip" true (FP.of_string (FP.to_string p) = p);
  check "link endpoints canonicalized" true
    (List.mem (FP.Link_down { u = 0; v = 1; round = 2 }) p);
  check "has_topology" true (FP.has_topology p);
  check "crash-only plan has none" false (FP.has_topology mixed_plan)

let test_parser_positions_errors () =
  let fails_mentioning src frag =
    match FP.of_string src with
    | exception Failure msg ->
        check (Printf.sprintf "%S in %S" frag msg) true (contains msg frag)
    | _ -> Alcotest.failf "of_string accepted %S" src
  in
  fails_mentioning "faults\ncrash 1" "line 2";
  fails_mentioning "faults\n# ok\ndrop 0 x 2" "line 3";
  fails_mentioning "faults\nlink-down 0 1 2 9" "line 2";
  fails_mentioning "faults\njoin 1 2" "line 2";
  fails_mentioning "nonsense" "line 1"

let test_parser_rejects_duplicates () =
  let dup src =
    match FP.of_string src with
    | exception Failure msg ->
        check "positions both lines" true
          (contains msg "line 3" && contains msg "line 2")
    | _ -> Alcotest.failf "of_string accepted duplicate in %S" src
  in
  dup "faults\ncrash 1 3\ncrash 1 3\n";
  dup "faults\nlink-down 0 1 2\nlink-down 1 0 2\n";
  (* two joins racing to set the same node's tag in the same round
     conflict even though the faults differ *)
  dup "faults\njoin 1 2 3\njoin 1 2 4\n";
  dup "faults\nretag 1 2 3\nretag 1 2 4\n"

let test_topology_validate () =
  let ok p = check "valid" true (Result.is_ok (FP.validate cycle4 p)) in
  let bad p = check "invalid" true (Result.is_error (FP.validate cycle4 p)) in
  ok topo_plan;
  bad [ FP.Link_down { u = 0; v = 0; round = 1 } ];
  bad [ FP.Link_up { u = 0; v = 9; round = 1 } ];
  bad [ FP.Leave { node = 4; round = 0 } ];
  bad [ FP.Join { node = 0; round = 1; tag = -1 } ];
  bad [ FP.Retag { node = 0; round = -2; tag = 1 } ]

let test_sample_topology () =
  let draw () =
    FP.sample ~seed:11 ~link_flaps:2 ~node_flaps:1 ~retags:1 ~horizon:20
      cycle4
  in
  let p = draw () in
  check "deterministic" true (p = draw ());
  check "validates" true (Result.is_ok (FP.validate cycle4 p));
  let count f = List.length (List.filter f p) in
  check_int "downs" 2 (count (function FP.Link_down _ -> true | _ -> false));
  check_int "ups" 2 (count (function FP.Link_up _ -> true | _ -> false));
  check_int "leaves" 1 (count (function FP.Leave _ -> true | _ -> false));
  check_int "joins" 1 (count (function FP.Join _ -> true | _ -> false));
  check_int "retags" 1 (count (function FP.Retag _ -> true | _ -> false));
  (* every flap is ordered: down strictly before up, leave before join *)
  List.iter
    (function
      | FP.Link_down { u; v; round } ->
          check "paired up later" true
            (List.exists
               (function
                 | FP.Link_up { u = u'; v = v'; round = r' } ->
                     u = u' && v = v' && r' > round
                 | _ -> false)
               p)
      | FP.Leave { node; round } ->
          check "paired join later" true
            (List.exists
               (function
                 | FP.Join { node = n'; round = r'; _ } ->
                     n' = node && r' > round
                 | _ -> false)
               p)
      | _ -> ())
    p

(* ------------------------------------------------------------------ *)
(* Engine.run_plan: per-fault semantics and the ledger                 *)
(* ------------------------------------------------------------------ *)

let test_crash_semantics () =
  (* Node 1 (tag 1) wakes in round 1 and crash-stops in round 3: its
     history freezes at two entries and it never terminates, yet the run
     still counts as fully terminated (crashed nodes are written off). *)
  let proto = P.silent ~lifetime:5 () in
  let fo = frun [ FP.Crash { node = 1; round = 3 } ] proto in
  check_int "crashed_at" 3 fo.Engine.crashed_at.(1);
  check_int "never terminates" (-1) fo.Engine.base.Engine.done_local.(1);
  check_int "history frozen" 2
    (Radio_drip.History.length fo.Engine.base.Engine.histories.(1));
  check "others unaffected" true fo.Engine.base.Engine.all_terminated;
  check "crash fires unobserved" true
    (fo.Engine.ledger
    = [
        {
          Engine.round = 3;
          fault = FP.Crash { node = 1; round = 3 };
          observed_by = [];
        };
      ])

let test_drop_semantics () =
  (* Pristine two_cells + beacon: node 0 transmits in round 1, force-waking
     node 1 exactly when its own tag fires.  Dropping that one copy leaves
     node 1 to wake spontaneously into silence. *)
  let config = F.two_cells () in
  let pristine = Engine.run ~max_rounds:100 (P.beacon ()) config in
  check "pristine forced wake" true pristine.Engine.forced.(1);
  let plan = [ FP.Drop { src = 0; dst = 1; round = 1 } ] in
  let fo = frun ~config plan (P.beacon ()) in
  check "drop suppresses forced wake" false fo.Engine.base.Engine.forced.(1);
  check "wakes into silence" true
    (H.equal_entry (H.get fo.Engine.base.Engine.histories.(1) 0) H.Silence);
  check "drop fires at the receiver" true
    (match fo.Engine.ledger with
    | [ { Engine.round = 1; fault = FP.Drop _; observed_by = [ 1 ] } ] -> true
    | _ -> false)

let test_noise_semantics () =
  (* A listening node hears Collision whatever its neighbours did. *)
  let fo = frun [ FP.Noise { node = 0; round = 2 } ] (P.silent ~lifetime:5 ()) in
  check "listener hears collision" true
    (H.equal_entry (H.get fo.Engine.base.Engine.histories.(0) 2) H.Collision);
  check "noise fires at the listener" true
    (match fo.Engine.ledger with
    | [ { Engine.round = 2; fault = FP.Noise _; observed_by = [ 0 ] } ] -> true
    | _ -> false)

let test_noise_suppresses_forced_wake () =
  (* Same beacon scenario as the drop test, but jamming the receiver:
     collisions do not wake, so node 1 again wakes spontaneously. *)
  let config = F.two_cells () in
  let fo = frun ~config [ FP.Noise { node = 1; round = 1 } ] (P.beacon ()) in
  check "no forced wake under noise" false fo.Engine.base.Engine.forced.(1);
  check "wakes into silence" true
    (H.equal_entry (H.get fo.Engine.base.Engine.histories.(1) 0) H.Silence)

let test_jitter_semantics () =
  let config = F.two_cells () in
  let plan = [ FP.Jitter { node = 0; delta = 2 } ] in
  let fo = frun ~config plan (P.silent ~lifetime:1 ()) in
  check "effective config jittered" true
    (C.tags fo.Engine.base.Engine.config = [| 2; 1 |]);
  check "original kept" true (C.tags fo.Engine.original = [| 0; 1 |]);
  check_int "wakes at the jittered tag" 2 fo.Engine.base.Engine.wake_round.(0);
  check "jitter fires up-front" true
    (match fo.Engine.ledger with
    | [ { Engine.round = 0; fault = FP.Jitter _; observed_by = [ 0 ] } ] -> true
    | _ -> false)

let test_inert_faults_never_fire () =
  (* Scheduled but ineffective: a crash past the end of the run, a drop on
     a silent round, noise at a long-terminated node, and a jitter whose
     clamp changes nothing.  None may enter the ledger, and the run must
     equal the pristine one. *)
  let proto = P.silent ~lifetime:2 () in
  let plan =
    [
      FP.Crash { node = 0; round = 100 };
      FP.Drop { src = 0; dst = 1; round = 0 };
      FP.Noise { node = 0; round = 20 };
      FP.Jitter { node = 0; delta = -3 };
    ]
  in
  let fo = frun plan proto in
  check "ledger empty" true (fo.Engine.ledger = []);
  check "no crash recorded" true
    (Array.for_all (fun c -> c = -1) fo.Engine.crashed_at);
  check "run equals pristine" true
    (Engine.outcome_equal fo.Engine.base
       (Engine.run ~max_rounds:1_000 ~record_trace:true proto cycle4))

let test_election_under_faults () =
  let e = dedicated h2 in
  let proto = e.Radio_sim.Runner.protocol in
  let decision = e.Radio_sim.Runner.decision in
  let clean = frun ~config:h2 FP.empty proto in
  check "empty plan elects the leader" true (Engine.elected decision clean = Some 0);
  check "leader survives" true (Engine.surviving_winners decision clean = [ 0 ]);
  (* Crash-stopping the canonical leader mid-run is fatal: the decision
     function accepts only the singleton class (docs/FAULTS.md). *)
  let crashed = frun ~config:h2 [ FP.Crash { node = 0; round = 3 } ] proto in
  check "crashed leader, no winner" true
    (Engine.surviving_winners decision crashed = []);
  check "no election" true (Engine.elected decision crashed = None)

(* ------------------------------------------------------------------ *)
(* Engine.run_plan: topology events mid-election                       *)
(* ------------------------------------------------------------------ *)

let test_leave_semantics () =
  (* Node 1 (tag 1) wakes in round 1 and leaves in round 3: like a crash,
     except departed_at (not crashed_at) records it. *)
  let proto = P.silent ~lifetime:5 () in
  let fo = frun [ FP.Leave { node = 1; round = 3 } ] proto in
  check_int "departed_at" 3 fo.Engine.departed_at.(1);
  check_int "never crashed" (-1) fo.Engine.crashed_at.(1);
  check_int "never terminates" (-1) fo.Engine.base.Engine.done_local.(1);
  check_int "history frozen" 2
    (Radio_drip.History.length fo.Engine.base.Engine.histories.(1));
  check "others unaffected" true fo.Engine.base.Engine.all_terminated;
  check "leave observed by the departing node" true
    (match fo.Engine.ledger with
    | [ { Engine.round = 3; fault = FP.Leave _; observed_by = [ 1 ] } ] -> true
    | _ -> false)

let test_join_fresh_incarnation () =
  (* Leave at round 2, rejoin at round 4 with tag 0: the alarm clamps to
     the join round, the node wakes spontaneously as a fresh instance and
     its pre-departure history is discarded. *)
  let proto = P.silent ~lifetime:5 () in
  let plan =
    [ FP.Leave { node = 1; round = 2 }; FP.Join { node = 1; round = 4; tag = 0 } ]
  in
  let fo = frun plan proto in
  check_int "rejoined" (-1) fo.Engine.departed_at.(1);
  check_int "fresh wake at the join round" 4 fo.Engine.base.Engine.wake_round.(1);
  check "spontaneous wake" false fo.Engine.base.Engine.forced.(1);
  check "fresh incarnation terminates" true
    (fo.Engine.base.Engine.done_local.(1) >= 0);
  check "everyone terminates" true fo.Engine.base.Engine.all_terminated;
  check "ledger: leave then join" true
    (match fo.Engine.ledger with
    | [
        { Engine.round = 2; fault = FP.Leave _; observed_by = [ 1 ] };
        { Engine.round = 4; fault = FP.Join _; observed_by = [ 1 ] };
      ] ->
        true
    | _ -> false)

let test_retag_moves_alarm () =
  (* Node 3 (tag 3) is still asleep in round 1; retagging it to 9 moves
     its spontaneous wake-up. *)
  let fo =
    frun [ FP.Retag { node = 3; round = 1; tag = 9 } ] (P.silent ~lifetime:2 ())
  in
  check_int "wakes at the new alarm" 9 fo.Engine.base.Engine.wake_round.(3);
  check "retag observed" true
    (match fo.Engine.ledger with
    | [ { Engine.round = 1; fault = FP.Retag _; observed_by = [ 3 ] } ] -> true
    | _ -> false)

let test_retag_of_awake_node_inert () =
  (* Node 0 wakes at round 0; a retag at round 2 is inert and the run is
     byte-identical to the pristine one even on the dynamic-graph path. *)
  let proto () = P.silent ~lifetime:3 () in
  let fo = frun [ FP.Retag { node = 0; round = 2; tag = 9 } ] (proto ()) in
  check "ledger empty" true (fo.Engine.ledger = []);
  check "run equals pristine" true
    (Engine.outcome_equal fo.Engine.base
       (Engine.run ~max_rounds:1_000 ~record_trace:true (proto ()) cycle4))

let test_link_down_suppresses_forced_wake () =
  (* The drop-test scenario, but severing the link itself: node 1 must
     wake spontaneously, and the link event fires unobserved. *)
  let config = F.two_cells () in
  let fo =
    frun ~config [ FP.Link_down { u = 0; v = 1; round = 1 } ] (P.beacon ())
  in
  check "no forced wake" false fo.Engine.base.Engine.forced.(1);
  check "wakes into silence" true
    (H.equal_entry (H.get fo.Engine.base.Engine.histories.(1) 0) H.Silence);
  check "link-down fires unobserved" true
    (match fo.Engine.ledger with
    | { Engine.round = 1; fault = FP.Link_down _; observed_by = [] } :: _ -> true
    | _ -> false)

let test_link_flap_same_round_cancels () =
  (* Down then up in the same round (normalized order) leaves the air
     unchanged: both events fire, the run equals the pristine one. *)
  let config = F.two_cells () in
  let plan =
    [
      FP.Link_up { u = 0; v = 1; round = 1 };
      FP.Link_down { u = 0; v = 1; round = 1 };
    ]
  in
  let fo = frun ~config plan (P.beacon ()) in
  check_int "both fire" 2 (List.length fo.Engine.ledger);
  check "run equals pristine" true
    (Engine.outcome_equal fo.Engine.base
       (Engine.run ~max_rounds:1_000 ~record_trace:true (P.beacon ()) config))

let test_inert_topology_events () =
  (* A link-down on a chord the cycle never had, a link-up on an existing
     edge, a join of a present node and a second leave of an absent one:
     only the first leave fires. *)
  let proto = P.silent ~lifetime:2 () in
  let plan =
    [
      FP.Link_down { u = 0; v = 2; round = 1 };
      FP.Link_up { u = 0; v = 1; round = 1 };
      FP.Join { node = 2; round = 1; tag = 5 };
      FP.Leave { node = 3; round = 1 };
      FP.Leave { node = 3; round = 2 };
    ]
  in
  let fo = frun plan proto in
  check "only the real departure fires" true
    (match fo.Engine.ledger with
    | [ { Engine.round = 1; fault = FP.Leave { node = 3; _ }; _ } ] -> true
    | _ -> false)

let test_leader_leave_kills_election () =
  (* The canonical leader walking away mid-election is as fatal as a
     crash; the engine reports it via departed_at, not crashed_at. *)
  let e = dedicated h2 in
  let fo =
    frun ~config:h2 [ FP.Leave { node = 0; round = 3 } ]
      e.Radio_sim.Runner.protocol
  in
  check "no winner" true
    (Engine.surviving_winners e.Radio_sim.Runner.decision fo = []);
  check_int "departure recorded" 3 fo.Engine.departed_at.(0)

(* ------------------------------------------------------------------ *)
(* Churn: epoch supervision                                            *)
(* ------------------------------------------------------------------ *)

let test_churn_clean_single_epoch () =
  let r = Ch.run ~plan:FP.empty ~horizon:100 h2 in
  check_int "one epoch" 1 (List.length r.Ch.epochs);
  check "cold start elects the canonical leader" true
    (r.Ch.final_leader = Some 0);
  check_int "one election" 1 r.Ch.re_elections;
  check "availability below 1 (cold start) but high" true
    (r.Ch.availability > 0.5 && r.Ch.availability < 1.0);
  let e = List.hd r.Ch.epochs in
  check "feasible, no repair" true (e.Ch.feasible && not e.Ch.repaired);
  check_int "no edits" 0 e.Ch.edits_applied

let test_churn_leader_departure_reelects () =
  let plan = [ FP.Leave { node = 0; round = 50 } ] in
  let r = Ch.run ~plan ~horizon:100 h2 in
  check_int "two epochs" 2 (List.length r.Ch.epochs);
  check_int "re-elected after the departure" 2 r.Ch.re_elections;
  check "new leader is not the departed node" true
    (match r.Ch.final_leader with Some l -> l <> 0 | None -> false);
  let e1 = List.nth r.Ch.epochs 1 in
  check_int "one edit" 1 e1.Ch.edits_applied;
  check_int "membership edit rebuilds" 1 e1.Ch.rebuilds;
  check_int "three nodes left" 3 e1.Ch.live;
  check "availability drops below the clean run" true
    (r.Ch.availability
    < (Ch.run ~plan:FP.empty ~horizon:100 h2).Ch.availability)

let test_churn_link_flap_keeps_leader () =
  (* Flapping a non-critical link never deposes the standing leader: only
     one (cold-start) election, incremental deltas reuse labels. *)
  let plan =
    [
      FP.Link_down { u = 2; v = 3; round = 30 };
      FP.Link_up { u = 2; v = 3; round = 60 };
    ]
  in
  let r = Ch.run ~plan ~horizon:90 cycle4 in
  check_int "three epochs" 3 (List.length r.Ch.epochs);
  check_int "only the cold-start election" 1 r.Ch.re_elections;
  let e1 = List.nth r.Ch.epochs 1 in
  check "leader stands through the flap" true
    (e1.Ch.leader <> None && e1.Ch.leader = r.Ch.final_leader);
  check "labels reused incrementally" true
    (e1.Ch.labels_reused > 0 && e1.Ch.rebuilds = 0);
  check "no election during the flap epoch" true (e1.Ch.attempts = 0)

let test_churn_repairs_infeasible_start () =
  (* A fully symmetric start is infeasible; the cold-start epoch must
     repair the tags (written back as incremental edits) and elect. *)
  let sym = C.create (G.of_edges 2 [ (0, 1) ]) [| 0; 0 |] in
  let r = Ch.run ~plan:FP.empty ~horizon:60 sym in
  let e0 = List.hd r.Ch.epochs in
  check "repaired" true e0.Ch.repaired;
  check "edits written back" true (e0.Ch.edits_applied > 0);
  check "elects after repair" true (r.Ch.final_leader <> None)

let test_churn_deterministic () =
  let plan =
    [
      FP.Leave { node = 0; round = 40 };
      FP.Join { node = 0; round = 70; tag = 1 };
    ]
  in
  let show () = Format.asprintf "%a" Ch.pp (Ch.run ~plan ~horizon:100 h2) in
  Alcotest.(check string) "byte-identical replay" (show ()) (show ())

let test_churn_rejects_bad_input () =
  (match Ch.run ~plan:FP.empty ~horizon:0 h2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "horizon 0 accepted");
  match Ch.run ~plan:[ FP.Leave { node = 9; round = 1 } ] ~horizon:10 h2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid plan accepted"

(* ------------------------------------------------------------------ *)
(* Resilience: degradation curves                                      *)
(* ------------------------------------------------------------------ *)

let test_resilience_baseline_point () =
  let c = R.crash_sweep ~trials:10 ~name:"h2" h2 in
  check_int "baseline leader" 0 c.R.baseline_leader;
  check_int "a point per intensity 0..n" 5 (List.length c.R.points);
  let p0 = List.hd c.R.points in
  check_int "intensity 0 always succeeds" 10 p0.R.successes;
  check_int "intensity 0 always stable" 10 p0.R.stable;
  Alcotest.(check (float 1e-9)) "intensity 0 overhead" 1.0 (R.overhead c p0)

let test_resilience_monotone () =
  let c = R.crash_sweep ~trials:10 ~name:"h2" h2 in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a.R.successes >= b.R.successes && monotone rest
    | _ -> true
  in
  check "success curve non-increasing" true (monotone c.R.points);
  check "crashing everyone kills the election" true
    ((List.nth c.R.points 4).R.successes = 0)

let test_resilience_reproducible () =
  let sweep () = R.crash_sweep ~trials:8 ~name:"h2" h2 in
  let a = sweep () and b = sweep () in
  check "csv byte-for-byte" true (R.to_csv a = R.to_csv b);
  check "chart byte-for-byte" true (R.to_chart a = R.to_chart b);
  check "csv header" true
    (String.length (R.to_csv a) > 0
    && String.sub (R.to_csv a) 0 9 = "intensity")

let test_resilience_infeasible_rejected () =
  match R.crash_sweep ~trials:2 ~name:"sym" (F.symmetric_pair ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on infeasible input"

(* ------------------------------------------------------------------ *)
(* Supervisor: bounded re-election                                     *)
(* ------------------------------------------------------------------ *)

let test_supervisor_clean_first_try () =
  let r = S.supervise ~plan:FP.empty h2 in
  check "elects" true (r.S.leader = Some 0);
  check_int "one attempt" 1 (List.length r.S.attempts);
  check_int "no reseeding" 0 r.S.reseeds;
  let a = List.hd r.S.attempts in
  check "detection" true (a.S.detection = S.Elected 0);
  check "no repair needed" false a.S.repaired;
  check_int "rounds accounted" r.S.total_rounds a.S.rounds

let test_supervisor_recovers_from_noise () =
  (* Jamming the leader's collision detection for the whole election window
     defeats the deployed tags; re-seeded jitter finds tags whose dedicated
     algorithm elects despite the jamming (deterministically: seed 0xFA17
     recovers with leader 1 after three re-seedings). *)
  let plan = List.init 12 (fun i -> FP.Noise { node = 0; round = 3 + i }) in
  let r = S.supervise ~plan h2 in
  check "recovers" true (r.S.leader = Some 1);
  check "reseeded at least once" true (r.S.reseeds >= 1);
  check "attempts = reseeds + 1" true
    (List.length r.S.attempts = r.S.reseeds + 1);
  (* Backoff: round budgets strictly double attempt over attempt. *)
  let rec doubling = function
    | a :: (b :: _ as rest) ->
        b.S.timeout = 2 * a.S.timeout && doubling rest
    | _ -> true
  in
  check "timeouts double" true (doubling r.S.attempts)

let test_supervisor_gives_up () =
  (* Crash-stopping whoever the current tags crown is fatal for that
     attempt; node 0 keeps winning the reseeded instances here, so the
     supervisor exhausts its budget and reports honestly. *)
  let plan = [ FP.Crash { node = 0; round = 3 } ] in
  let r = S.supervise ~max_attempts:3 ~plan h2 in
  check "no leader" true (r.S.leader = None);
  check_int "budget exhausted" 3 (List.length r.S.attempts);
  check "total rounds summed" true
    (r.S.total_rounds
    = List.fold_left (fun acc a -> acc + a.S.rounds) 0 r.S.attempts)

let test_supervisor_deterministic () =
  let plan = List.init 12 (fun i -> FP.Noise { node = 0; round = 3 + i }) in
  let strip r =
    ( r.S.leader,
      r.S.reseeds,
      r.S.total_rounds,
      List.map
        (fun a -> (a.S.index, a.S.timeout, a.S.rounds, a.S.detection))
        r.S.attempts )
  in
  check "same seed, same report" true
    (strip (S.supervise ~plan h2) = strip (S.supervise ~plan h2));
  check "repairs infeasible tags first" true
    ((S.supervise ~plan:FP.empty (F.symmetric_pair ())).S.leader <> None)

let test_supervisor_max_timeout_caps_backoff () =
  let plan = [ FP.Crash { node = 0; round = 3 } ] in
  let r = S.supervise ~max_attempts:4 ~max_timeout:7 ~plan h2 in
  check "every timeout capped" true
    (List.for_all (fun a -> a.S.timeout <= 7) r.S.attempts);
  check "rounds bounded by the cap" true
    (List.for_all (fun a -> a.S.rounds <= 7) r.S.attempts);
  (* without the cap the budgets double past it *)
  let free = S.supervise ~max_attempts:4 ~plan h2 in
  check "uncapped backoff exceeds the cap" true
    (List.exists (fun a -> a.S.timeout > 7) free.S.attempts)

let test_supervisor_ledger_in_report () =
  let plan = List.init 12 (fun i -> FP.Noise { node = 0; round = 3 + i }) in
  let r = S.supervise ~plan h2 in
  check "ledger length matches faults_fired" true
    (List.for_all
       (fun a -> List.length a.S.ledger = a.S.faults_fired)
       r.S.attempts);
  let rendered = Format.asprintf "%a" S.pp r in
  check "summary present" true (contains rendered "supervisor:");
  (* the winning attempt survived fired noise: its ledger is printed *)
  let elected_fired =
    List.exists
      (fun a ->
        match a.S.detection with
        | S.Elected _ -> a.S.faults_fired > 0
        | _ -> false)
      r.S.attempts
  in
  check "elected attempt's ledger rendered" elected_fired
    (contains rendered "faults survived by the elected attempt")

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "serialization roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "comments and blanks" `Quick test_parse_comments;
          Alcotest.test_case "rejects garbage" `Quick test_parse_rejects_garbage;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "jitter lookup and clamp" `Quick test_jitter_lookup;
          Alcotest.test_case "sampling deterministic" `Quick
            test_sample_deterministic;
          Alcotest.test_case "crash schedule" `Quick test_crash_schedule_nested;
        ] );
      ( "topology-plan",
        [
          Alcotest.test_case "roundtrip with topology events" `Quick
            test_topology_roundtrip;
          Alcotest.test_case "positioned parse errors" `Quick
            test_parser_positions_errors;
          Alcotest.test_case "duplicates rejected with positions" `Quick
            test_parser_rejects_duplicates;
          Alcotest.test_case "validate topology events" `Quick
            test_topology_validate;
          Alcotest.test_case "seeded flap sampling" `Quick test_sample_topology;
        ] );
      ( "engine",
        [
          Alcotest.test_case "crash-stop" `Quick test_crash_semantics;
          Alcotest.test_case "message drop" `Quick test_drop_semantics;
          Alcotest.test_case "spurious noise" `Quick test_noise_semantics;
          Alcotest.test_case "noise vs forced wake" `Quick
            test_noise_suppresses_forced_wake;
          Alcotest.test_case "tag jitter" `Quick test_jitter_semantics;
          Alcotest.test_case "inert faults" `Quick test_inert_faults_never_fire;
          Alcotest.test_case "election under faults" `Quick
            test_election_under_faults;
        ] );
      ( "topology-engine",
        [
          Alcotest.test_case "leave" `Quick test_leave_semantics;
          Alcotest.test_case "join is a fresh incarnation" `Quick
            test_join_fresh_incarnation;
          Alcotest.test_case "retag moves the alarm" `Quick
            test_retag_moves_alarm;
          Alcotest.test_case "retag of awake node inert" `Quick
            test_retag_of_awake_node_inert;
          Alcotest.test_case "link-down vs forced wake" `Quick
            test_link_down_suppresses_forced_wake;
          Alcotest.test_case "same-round flap cancels" `Quick
            test_link_flap_same_round_cancels;
          Alcotest.test_case "inert topology events" `Quick
            test_inert_topology_events;
          Alcotest.test_case "leader departure kills election" `Quick
            test_leader_leave_kills_election;
        ] );
      ( "churn",
        [
          Alcotest.test_case "clean single epoch" `Quick
            test_churn_clean_single_epoch;
          Alcotest.test_case "leader departure re-elects" `Quick
            test_churn_leader_departure_reelects;
          Alcotest.test_case "link flap keeps the leader" `Quick
            test_churn_link_flap_keeps_leader;
          Alcotest.test_case "repairs infeasible start" `Quick
            test_churn_repairs_infeasible_start;
          Alcotest.test_case "deterministic" `Quick test_churn_deterministic;
          Alcotest.test_case "rejects bad input" `Quick
            test_churn_rejects_bad_input;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "baseline point" `Quick
            test_resilience_baseline_point;
          Alcotest.test_case "monotone degradation" `Quick
            test_resilience_monotone;
          Alcotest.test_case "reproducible output" `Quick
            test_resilience_reproducible;
          Alcotest.test_case "infeasible rejected" `Quick
            test_resilience_infeasible_rejected;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "clean first try" `Quick
            test_supervisor_clean_first_try;
          Alcotest.test_case "recovers from noise" `Quick
            test_supervisor_recovers_from_noise;
          Alcotest.test_case "gives up honestly" `Quick test_supervisor_gives_up;
          Alcotest.test_case "deterministic" `Quick
            test_supervisor_deterministic;
          Alcotest.test_case "max_timeout caps backoff" `Quick
            test_supervisor_max_timeout_caps_backoff;
          Alcotest.test_case "ledger in the report" `Quick
            test_supervisor_ledger_in_report;
        ] );
    ]
