(* Gap-filling edge-case tests: the exhaustive adversary, ASCII charts,
   engine corner cases, census counting identities, and odds and ends the
   focused suites do not cover. *)

module C = Radio_config.Config
module F = Radio_config.Families
module G = Radio_graph.Graph
module Gen = Radio_graph.Gen
module H = Radio_drip.History
module P = Radio_drip.Protocol
module Patient = Radio_drip.Patient
module Engine = Radio_sim.Engine
module Runner = Radio_sim.Runner
module Timeline = Radio_sim.Timeline
module Fe = Election.Feasibility
module Adv = Election.Adversary
module Chart = Radio_analysis.Chart

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Exhaustive adversary                                                *)
(* ------------------------------------------------------------------ *)

let test_adversary_defeats_dedicated () =
  List.iter
    (fun home ->
      let candidate = Option.get (Fe.dedicated_election (Fe.analyze home)) in
      match Adv.find_failure candidate with
      | Some ce ->
          check "counterexample is feasible" true
            (Fe.is_feasible ce.Adv.config);
          check "candidate fails there" true
            (List.length ce.Adv.winners <> 1)
      | None -> Alcotest.fail "Proposition 4.4 says a failure must exist")
    [ F.h_family 1; F.h_family 2; F.two_cells () ]

let test_adversary_defeats_fast_protocols () =
  (* Min_beacon and Wave_election are also not universal. *)
  List.iter
    (fun candidate ->
      check "fails somewhere" true (Adv.find_failure candidate <> None))
    [ Election.Min_beacon.election; Election.Wave_election.election ]

let test_adversary_counts () =
  let candidate = Option.get (Fe.dedicated_election (Fe.analyze (F.h_family 2))) in
  let failures, total = Adv.count_failures candidate in
  check "some feasible configs" true (total > 100);
  check "failures positive" true (failures > 0);
  check "failures bounded" true (failures <= total)

let test_adversary_tiny_universe () =
  (* With max_n = 1 the universe is the single-node config; a protocol that
     elects it survives. *)
  let self_electing =
    {
      Runner.protocol = P.beacon ();
      decision =
        (fun h -> H.length h > 0 && H.equal_entry (H.get h 0) H.Silence);
    }
  in
  check "survives n=1 universe" true
    (Adv.find_failure ~max_n:1 self_electing = None)

(* Pinned: the first counterexample for each candidate of bench E5 (plus
   the fast protocols and dedicated(two_cells)), and dedicated(H_2)'s
   failure counts over four universes. *)
let test_adversary_pinned () =
  let dedicated config = Option.get (Fe.dedicated_election (Fe.analyze config)) in
  let render = function
    | None -> "none"
    | Some ce ->
        let c = ce.Adv.config in
        let ints l = String.concat ";" (List.map string_of_int l) in
        Printf.sprintf "n=%d tags=[%s] edges=[%s] winners=[%s]" (C.size c)
          (ints (Array.to_list (C.tags c)))
          (String.concat ";"
             (List.map
                (fun (u, v) -> Printf.sprintf "%d-%d" u v)
                (G.edges (C.graph c))))
          (ints ce.Adv.winners)
  in
  let single = "n=1 tags=[0] edges=[] winners=[]" in
  let star = "n=3 tags=[1;0;0] edges=[0-1;0-2] winners=[0;1;2]" in
  List.iter
    (fun (name, candidate, expected, failures) ->
      Alcotest.(check string) name expected (render (Adv.find_failure candidate));
      Alcotest.(check (pair int int))
        (name ^ " failures") (failures, 393)
        (Adv.count_failures candidate))
    [
      ("dedicated(H_1)", dedicated (F.h_family 1), single, 287);
      ("dedicated(H_2)", dedicated (F.h_family 2), single, 319);
      ("dedicated(H_8)", dedicated (F.h_family 8), single, 393);
      ( "dedicated(G_2)",
        dedicated (F.g_family 2),
        "n=2 tags=[1;0] edges=[0-1] winners=[]",
        320 );
      ("dedicated(staircase_5)", dedicated (F.staircase_clique 5), single, 393);
      ("dedicated(two_cells)", dedicated (F.two_cells ()), single, 239);
      ( "beacon+first-silent",
        {
          Runner.protocol = P.beacon ();
          decision =
            (fun h -> H.length h > 0 && H.equal_entry (H.get h 0) H.Silence);
        },
        star,
        280 );
      ( "silent-waiter",
        { Runner.protocol = P.silent ~lifetime:8 (); decision = (fun _ -> true) },
        "n=2 tags=[1;0] edges=[0-1] winners=[0;1]",
        392 );
      ("min-beacon", Election.Min_beacon.election, star, 308);
      ("wave", Election.Wave_election.election, star, 280);
    ];
  let h2 = dedicated (F.h_family 2) in
  List.iter
    (fun (max_n, max_span, expected) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "dedicated(H_2) at (%d, %d)" max_n max_span)
        expected
        (Adv.count_failures ~max_n ~max_span h2))
    [ (4, 2, (319, 393)); (5, 2, (3895, 4723)); (4, 3, (893, 1075));
      (3, 4, (105, 129)) ]

(* ------------------------------------------------------------------ *)
(* Charts                                                              *)
(* ------------------------------------------------------------------ *)

let test_chart_bars () =
  let s = Chart.bars ~title:"t" [ ("a", 2.0); ("bb", 4.0) ] in
  check "title" true (contains s "t");
  check "labels aligned" true (contains s " a |" && contains s "bb |");
  check "max bar full width" true (contains s (String.make 50 '#'));
  Alcotest.check_raises "negative"
    (Invalid_argument "Chart.bars: negative value") (fun () ->
      ignore (Chart.bars ~title:"x" [ ("a", -1.0) ]))

let test_chart_bars_empty () =
  Alcotest.(check string) "just the title" "t\n" (Chart.bars ~title:"t" [])

let test_chart_series () =
  let s =
    Chart.series ~title:"growth" ~x_label:"n" ~y_label:"rounds"
      [ (1.0, 1.0); (2.0, 10.0) ]
  in
  check "labels" true (contains s "rounds vs n");
  check "values" true (contains s "10");
  let logd =
    Chart.series ~log_scale:true ~title:"g" ~x_label:"n" ~y_label:"r"
      [ (1.0, 1.0); (2.0, 1000.0) ]
  in
  check "log marker" true (contains logd "(log scale)");
  Alcotest.check_raises "log zero"
    (Invalid_argument "Chart.series: invalid y value") (fun () ->
      ignore
        (Chart.series ~log_scale:true ~title:"g" ~x_label:"x" ~y_label:"y"
           [ (1.0, 0.0) ]))

(* ------------------------------------------------------------------ *)
(* Engine corner cases                                                 *)
(* ------------------------------------------------------------------ *)

let test_everyone_transmits_forever_times_out () =
  let chatty =
    P.stateful ~name:"chatty"
      ~init:(fun _ -> ())
      ~decide:(fun () -> P.Transmit "x")
      ~observe:(fun () _ -> ())
  in
  let o = Engine.run ~max_rounds:20 chatty (F.symmetric_pair ()) in
  check "cut off" false o.Engine.all_terminated;
  (* Transmitters hear nothing: everybody's history is pure silence. *)
  check "all silence" true
    (Array.for_all
       (fun h -> H.fold (fun _ _ _ -> false) true h)
       o.Engine.histories);
  check_int "energy 19 each" 19 o.Engine.transmissions_by_node.(0)

let test_completion_round_requires_termination () =
  let forever =
    P.stateful ~name:"forever"
      ~init:(fun _ -> ())
      ~decide:(fun () -> P.Listen)
      ~observe:(fun () _ -> ())
  in
  let o = Engine.run ~max_rounds:5 forever (F.two_cells ()) in
  Alcotest.check_raises "not terminated"
    (Invalid_argument "Engine.global_done_round: node has not terminated")
    (fun () -> ignore (Engine.completion_round o))

let test_forced_wake_symbol_in_timeline () =
  let config = C.create (Gen.path 2) [| 0; 5 |] in
  let o =
    Engine.run ~max_rounds:50 ~record_trace:true (P.beacon ()) config
  in
  check "W symbol" true (contains (Timeline.render o) "W")

let test_message_content_preserved () =
  let config = C.create (Gen.path 2) [| 0; 3 |] in
  let proto = P.beacon ~message:"hello world" () in
  let o = Engine.run ~max_rounds:50 proto config in
  check "payload intact" true
    (H.equal_entry (H.get o.Engine.histories.(1) 0) (H.Message "hello world"))

let test_terminate_never_reconsults () =
  (* Once decide returns Terminate the instance must not be polled again;
     a protocol that would crash on a further call proves it. *)
  let once =
    let module M = struct
      exception Poked_after_death
    end in
    {
      P.name = "landmine";
      spawn =
        (fun () ->
          let dead = ref false in
          {
            P.on_wakeup = (fun _ -> ());
            decide =
              (fun () ->
                if !dead then raise M.Poked_after_death
                else begin
                  dead := true;
                  P.Terminate
                end);
            observe = (fun _ -> ());
            skip = ignore;
          });
    }
  in
  let o = Engine.run ~max_rounds:50 once (F.two_cells ()) in
  check "terminated cleanly" true o.Engine.all_terminated

(* ------------------------------------------------------------------ *)
(* Counting identities and misc                                        *)
(* ------------------------------------------------------------------ *)

let test_tag_assignment_count_identity () =
  (* Spans 0..s: (s+1)^n - s^n assignments. *)
  List.iter
    (fun (n, s) ->
      let expected =
        int_of_float ((float_of_int (s + 1) ** float_of_int n)
                      -. (float_of_int s ** float_of_int n))
      in
      check_int
        (Printf.sprintf "n=%d s=%d" n s)
        expected
        (List.fold_left
           (fun acc span ->
             acc + List.length (Election.Census.tag_assignments ~n ~span))
           0
           (List.init (s + 1) Fun.id)))
    [ (1, 0); (2, 1); (3, 2); (4, 1); (2, 3) ]

let test_add_edge_keeps_neighbours_sorted () =
  let g = G.empty 5 in
  let g = G.add_edge g 2 4 in
  let g = G.add_edge g 2 0 in
  let g = G.add_edge g 2 3 in
  Alcotest.(check (list int)) "sorted" [ 0; 3; 4 ] (G.neighbours g 2)

let test_patient_sigma_zero_is_identity () =
  (* With sigma = 0 the patient wrap starts the inner protocol at once:
     executions coincide. *)
  let config = F.symmetric_pair () in
  let inner = P.beacon ~delay:1 () in
  let o1 = Engine.run ~max_rounds:50 inner config in
  let o2 = Engine.run ~max_rounds:50 (Patient.make ~sigma:0 inner) config in
  check "identical" true
    (Array.for_all2 H.equal o1.Engine.histories o2.Engine.histories)

let test_canonical_leader_is_min_class_singleton () =
  (* The canonical leader is always the member of the SMALLEST singleton
     class, matching Lemma 3.11's m-hat. *)
  let run = Election.Classifier.classify (F.staircase_clique 4) in
  match (run.Election.Classifier.verdict, Election.Classifier.canonical_leader run) with
  | Election.Classifier.Feasible { singleton_class }, Some leader ->
      let final = (Election.Classifier.last_iteration run).Election.Classifier.new_class in
      check_int "leader in m-hat" singleton_class final.(leader)
  | _ -> Alcotest.fail "staircase must be feasible"

let test_catalog_entries_valid () =
  let entries = Radio_config.Catalog.all () in
  check "non-empty" true (List.length entries >= 10);
  List.iter
    (fun e ->
      let config = e.Radio_config.Catalog.config in
      check (e.Radio_config.Catalog.name ^ " normalized") true
        (C.is_normalized config);
      (* every entry round-trips through the text format *)
      check
        (e.Radio_config.Catalog.name ^ " serializable")
        true
        (C.equal config
           (Radio_config.Config_io.of_string
              (Radio_config.Config_io.to_string config))))
    entries;
  (* names are unique *)
  let names = Radio_config.Catalog.names () in
  check_int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_catalog_find () =
  check "find known" true (Radio_config.Catalog.find "h2" <> None);
  check "find unknown" true (Radio_config.Catalog.find "nope" = None);
  (* verdicts advertised in the summaries hold *)
  let feasible name =
    match Radio_config.Catalog.find name with
    | Some e -> Fe.is_feasible e.Radio_config.Catalog.config
    | None -> Alcotest.fail ("missing " ^ name)
  in
  check "two-cells feasible" true (feasible "two-cells");
  check "symmetric-pair infeasible" false (feasible "symmetric-pair");
  check "rotation-trap infeasible" false (feasible "rotation-trap");
  check "broken-rotation feasible" true (feasible "broken-rotation");
  check "twin-leaves feasible" true (feasible "twin-leaves");
  check "dense-trap infeasible" false (feasible "dense-trap")

let test_metrics_pp () =
  let o = Engine.run ~max_rounds:50 (P.beacon ()) (F.two_cells ()) in
  let s = Format.asprintf "%a" Radio_sim.Metrics.pp o.Engine.metrics in
  check "mentions tx" true (contains s "tx=")

let () =
  Alcotest.run "more"
    [
      ( "adversary",
        [
          Alcotest.test_case "defeats dedicated" `Slow
            test_adversary_defeats_dedicated;
          Alcotest.test_case "defeats fast protocols" `Quick
            test_adversary_defeats_fast_protocols;
          Alcotest.test_case "counts" `Slow test_adversary_counts;
          Alcotest.test_case "tiny universe" `Quick test_adversary_tiny_universe;
          Alcotest.test_case "pinned counterexamples" `Quick
            test_adversary_pinned;
        ] );
      ( "charts",
        [
          Alcotest.test_case "bars" `Quick test_chart_bars;
          Alcotest.test_case "bars empty" `Quick test_chart_bars_empty;
          Alcotest.test_case "series" `Quick test_chart_series;
        ] );
      ( "engine-corners",
        [
          Alcotest.test_case "chatty timeout" `Quick
            test_everyone_transmits_forever_times_out;
          Alcotest.test_case "completion requires termination" `Quick
            test_completion_round_requires_termination;
          Alcotest.test_case "forced wake symbol" `Quick
            test_forced_wake_symbol_in_timeline;
          Alcotest.test_case "message payload" `Quick test_message_content_preserved;
          Alcotest.test_case "terminate is final" `Quick
            test_terminate_never_reconsults;
        ] );
      ( "misc",
        [
          Alcotest.test_case "assignment count identity" `Quick
            test_tag_assignment_count_identity;
          Alcotest.test_case "add_edge sorted" `Quick
            test_add_edge_keeps_neighbours_sorted;
          Alcotest.test_case "patient sigma 0" `Quick
            test_patient_sigma_zero_is_identity;
          Alcotest.test_case "leader = min singleton" `Quick
            test_canonical_leader_is_min_class_singleton;
          Alcotest.test_case "catalog validity" `Quick test_catalog_entries_valid;
          Alcotest.test_case "catalog verdicts" `Quick test_catalog_find;
          Alcotest.test_case "metrics pp" `Quick test_metrics_pp;
        ] );
    ]
