(* Differential testing of the optimized engine against the executable
   specification (Spec_engine): identical histories, wake-ups and
   termination rounds on scripted, canonical and randomized-deterministic
   protocols over random configurations. *)

module C = Radio_config.Config
module F = Radio_config.Families
module RC = Radio_config.Random_config
module Gen = Radio_graph.Gen
module H = Radio_drip.History
module P = Radio_drip.Protocol
module Engine = Radio_sim.Engine
module FP = Radio_sim.Fault_plan
module Spec = Spec_engine
module Cl = Election.Classifier
module Can = Election.Canonical

let check = Alcotest.(check bool)

let both ?(max_rounds = 50_000) proto config =
  let o = Engine.run ~max_rounds proto config in
  let s = Spec.run ~max_rounds proto config in
  (o, s)

let assert_agree ?max_rounds proto config =
  let o, s = both ?max_rounds proto config in
  if not (Spec.agrees_with_engine s o) then
    Alcotest.failf "engines disagree on %s (n=%d)" proto.P.name (C.size config)

(* A deterministic protocol whose action in local round i is drawn from a
   fixed pseudo-random script seeded by [seed]: much wilder behaviour than
   any hand-written protocol, including mid-run silence and varied
   messages. *)
let scripted_random ~seed ~length =
  let script =
    let st = Random.State.make [| seed |] in
    Array.init length (fun _ ->
        match Random.State.int st 4 with
        | 0 -> P.Transmit "x"
        | 1 -> P.Transmit "y"
        | _ -> P.Listen)
  in
  P.stateful
    ~name:(Printf.sprintf "script-%d" seed)
    ~init:(fun _ -> 0)
    ~decide:(fun i -> if i >= length then P.Terminate else script.(i))
    ~observe:(fun i _ -> i + 1)

(* ------------------------------------------------------------------ *)

let test_simple_protocols () =
  List.iter
    (fun config ->
      assert_agree (P.beacon ()) config;
      assert_agree (P.beacon ~delay:2 ()) config;
      assert_agree (P.silent ~lifetime:3 ()) config)
    [
      F.two_cells ();
      F.symmetric_pair ();
      F.h_family 2;
      F.s_family 3;
      F.g_family 2;
      F.staircase_clique 5;
    ]

let test_canonical_drips () =
  List.iter
    (fun config ->
      let plan = Can.plan_of_run (Cl.classify config) in
      assert_agree ~max_rounds:500_000 (Can.protocol plan) config)
    [ F.h_family 3; F.s_family 2; F.g_family 2; F.staircase_clique 4 ]

let test_canonical_on_foreign_config () =
  (* Lost-node behaviour must also coincide. *)
  let plan = Can.plan_of_run (Cl.classify (F.h_family 2)) in
  assert_agree ~max_rounds:500_000 (Can.protocol plan) (F.s_family 2)

let test_cutoff_agreement () =
  (* Non-terminating protocol cut off mid-run: both report the same
     partial state. *)
  let forever =
    P.stateful ~name:"forever"
      ~init:(fun _ -> ())
      ~decide:(fun () -> P.Listen)
      ~observe:(fun () _ -> ())
  in
  let config = F.h_family 2 in
  let o, s = both ~max_rounds:25 forever config in
  check "partial agreement" true (Spec.agrees_with_engine s o);
  check "not terminated" false s.Spec.all_terminated

let test_scripted_storm () =
  (* 60 random scripts x random configurations. *)
  let st = Random.State.make [| 1234 |] in
  for i = 1 to 60 do
    let n = 2 + Random.State.int st 10 in
    let span = Random.State.int st 4 in
    let config = RC.connected_gnp st ~n ~p:0.4 ~span in
    let proto = scripted_random ~seed:i ~length:(1 + Random.State.int st 12) in
    assert_agree proto config
  done

let test_wave_and_min_beacon () =
  assert_agree Election.Wave_election.election.Radio_sim.Runner.protocol
    (C.create (Gen.path 6) [| 0; 1; 2; 3; 4; 5 |]);
  assert_agree Election.Min_beacon.election.Radio_sim.Runner.protocol
    (F.staircase_clique 5)

let test_disconnected () =
  let g = Radio_graph.Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  assert_agree (P.beacon ()) (C.create g [| 0; 2; 1; 1 |])

(* The global rounds at which a quiet horizon of the fault-free run ends.
   A wrapper counts each instance's local rounds (one per entry told, [k]
   per [skip k]); a [Quiet k] decided in local round [l] ends at local
   round [l + k].  Instances spawn in wake-up order, ties by node, which
   maps each one to its node's wake-up round. *)
let horizon_ends proto config =
  let spawned = ref [] in
  let wrapped =
    {
      proto with
      P.spawn =
        (fun () ->
          let i = proto.P.spawn () in
          let told = ref 0 and ends = ref [] in
          spawned := ends :: !spawned;
          {
            P.on_wakeup =
              (fun e ->
                told := 1;
                i.P.on_wakeup e);
            decide =
              (fun () ->
                let a = i.P.decide () in
                (match a with
                | P.Quiet k -> ends := (!told + max 1 k) :: !ends
                | P.Transmit _ | P.Listen | P.Terminate -> ());
                a);
            observe =
              (fun e ->
                incr told;
                i.P.observe e);
            skip =
              (fun k ->
                told := !told + k;
                i.P.skip k);
          });
    }
  in
  let o = Engine.run wrapped config in
  let order =
    List.sort compare
      (List.filter_map
         (fun v ->
           let w = o.Engine.wake_round.(v) in
           if w >= 0 then Some (w, v) else None)
         (List.init (C.size config) Fun.id))
  in
  List.sort_uniq compare
    (List.concat
       (List.map2
          (fun (w, _) ends -> List.map (fun l -> w + l) !ends)
          order (List.rev !spawned)))

(* The agenda's edges: its packed key's node field changes width between
   these sizes (and is empty at n = 1), and crash, leave and join plans
   leave stale entries behind.  The DRIP and Patient agree with the
   specification on outcome and ledger with [max_rounds] at 1, at the first
   and last round a quiet horizon ends and one past each, past the
   fault-free run's end and at [max_int]. *)
let test_agenda_edges () =
  let st = Random.State.make [| 0xa6e4da |] in
  List.iter
    (fun n ->
      let config =
        let rec draw k =
          let c = RC.random_path st ~n ~span:(1 + (n mod 2)) in
          if k = 0 || Election.Classifier.is_feasible (Cl.classify c) then c
          else draw (k - 1)
        in
        draw 50
      in
      let drip = Can.protocol (Can.plan_of_run (Cl.classify config)) in
      (* faults inside the fault-free run, so that they fire *)
      let horizon = (Engine.run drip config).Engine.rounds in
      let k = 1 + (n / 8) in
      let plans =
        [
          FP.empty;
          FP.sample ~seed:n ~crashes:k ~horizon config;
          FP.sample ~seed:(n + 1) ~node_flaps:k ~horizon config;
          FP.sample ~seed:(n + 2) ~crashes:k ~node_flaps:k ~retags:k ~horizon
            config;
        ]
      in
      List.iter
        (fun proto ->
          (* [max_int] last: the finite cut-offs catch a broken agenda as a
             disagreement before an unbounded run could hang on it *)
          let cutoffs =
            match horizon_ends proto config with
            | [] when n > 2 ->
                Alcotest.failf "%s on n=%d has no quiet horizon" proto.P.name n
            | [] -> [ 1; horizon + 2; max_int ]
            | first :: _ as ends ->
                let last = List.hd (List.rev ends) in
                [ 1; first; first + 1; last; last + 1; horizon + 2; max_int ]
          in
          List.iter
            (fun max_rounds ->
              List.iter
                (fun plan ->
                  let o = Engine.run_plan ~max_rounds plan proto config in
                  let s = Spec.run ~max_rounds ~plan proto config in
                  if not (Spec.agrees_with_plan_outcome s o) then
                    Alcotest.failf
                      "engines disagree on %s (n=%d, max_rounds=%d, plan %s)"
                      proto.P.name n max_rounds (FP.to_string plan))
                plans)
            cutoffs)
        [ drip; Radio_drip.Patient.make ~sigma:(C.span config + 1) drip ])
    [ 1; 2; 62; 63; 64; 65; 127; 128; 129 ]

let () =
  Alcotest.run "spec_engine"
    [
      ( "differential",
        [
          Alcotest.test_case "simple protocols" `Quick test_simple_protocols;
          Alcotest.test_case "canonical DRIPs" `Quick test_canonical_drips;
          Alcotest.test_case "foreign execution" `Quick
            test_canonical_on_foreign_config;
          Alcotest.test_case "cutoff" `Quick test_cutoff_agreement;
          Alcotest.test_case "scripted storm" `Quick test_scripted_storm;
          Alcotest.test_case "dedicated fast protocols" `Quick
            test_wave_and_min_beacon;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "agenda edges" `Quick test_agenda_edges;
        ] );
    ]
