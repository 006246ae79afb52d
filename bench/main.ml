(* The benchmark harness: regenerates every experiment E1-E18 of DESIGN.md
   (the paper's theorems and propositions turned into measurements) and then
   times the computational kernels with Bechamel, one benchmark group per
   experiment id.

   Run with: dune exec bench/main.exe
   (Results are recorded against the paper's claims in EXPERIMENTS.md.) *)

module C = Radio_config.Config
module F = Radio_config.Families
module RC = Radio_config.Random_config
module Gen = Radio_graph.Gen
module H = Radio_drip.History
module P = Radio_drip.Protocol
module Cl = Election.Classifier
module Fast = Election.Fast_classifier
module Can = Election.Canonical
module Fe = Election.Feasibility
module Imp = Election.Impossibility
module Engine = Radio_sim.Engine
module Runner = Radio_sim.Runner
module Table = Radio_analysis.Table
module Stats = Radio_analysis.Stats
module Sweep = Radio_analysis.Sweep

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* E1 - Theorem 3.17: Classifier decides feasibility in O(n^3 Δ)       *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1  Classifier runtime and verdicts (Theorem 3.17)";
  let table =
    Table.create ~title:"Classifier on graph families (CPU ms, median of 3)"
      ~columns:
        [ "family"; "n"; "max deg"; "verdict"; "iters"; "ref ms"; "fast ms" ]
  in
  let slope_points = ref [] in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun n ->
          let st = Workloads.state () in
          let config = make st n in
          let t_ref =
            Sweep.repeat_timed 3 (fun () -> ignore (Cl.classify config))
          in
          let t_fast =
            Sweep.repeat_timed 3 (fun () -> ignore (Fast.classify config))
          in
          let run = Cl.classify config in
          if name = "path" then
            slope_points := (float_of_int n, Float.max t_ref 1e-6) :: !slope_points;
          Table.add_row table
            [
              name;
              string_of_int n;
              string_of_int (C.max_degree config);
              (if Cl.is_feasible run then "feasible" else "infeasible");
              string_of_int (Cl.num_iterations run);
              Table.cell_float ~decimals:3 (1000.0 *. t_ref);
              Table.cell_float ~decimals:3 (1000.0 *. t_fast);
            ])
        [ 16; 32; 64; 128 ])
    Workloads.named_families;
  Table.print table;
  Printf.printf
    "Reference-implementation scaling exponent on paths (log-log slope in \
     n): %.2f\n"
    (Stats.loglog_slope !slope_points);
  Printf.printf
    "Paper claim: polynomial decision procedure, O(n^3 D) worst case; both\n\
     implementations must agree on every verdict (checked in the test \
     suite).\n"

(* ------------------------------------------------------------------ *)
(* E2 - Theorem 3.15: dedicated election in O(n^2 σ) rounds            *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2  Dedicated election time (Theorem 3.15, O(n^2 sigma))";
  let table =
    Table.create ~title:"Election rounds vs n and sigma (random feasible G(n,p))"
      ~columns:
        [ "n"; "sigma"; "rounds (global)"; "schedule r_T+1"; "O(n^2 sigma) budget" ]
  in
  let st = Workloads.state () in
  List.iter
    (fun (n, span) ->
      let config = Workloads.feasible_gnp st ~n ~p:0.2 ~span in
      let a = Fe.analyze config in
      match Fe.verify_by_simulation ~max_rounds:50_000_000 a with
      | Some r when Runner.elects_unique_leader r ->
          Table.add_row table
            [
              string_of_int n;
              string_of_int (C.span config);
              string_of_int (Option.get r.Runner.rounds_to_elect);
              string_of_int a.Fe.election_local_rounds;
              string_of_int (Can.upper_bound_rounds ~n ~sigma:(C.span config));
            ]
      | _ -> Table.add_row table [ string_of_int n; "-"; "-"; "-"; "-" ])
    [ (8, 2); (16, 2); (32, 2); (8, 8); (16, 8); (32, 8); (64, 4) ];
  Table.print table;
  Printf.printf
    "Measured rounds must stay below the explicit O(n^2 sigma) budget and\n\
     typically sit far below it (few refinement iterations needed).\n"

(* ------------------------------------------------------------------ *)
(* E3 - Proposition 4.1: Ω(n) on the G_m family                        *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3  Lower-bound family G_m (Proposition 4.1, sigma = 1)";
  let table =
    Table.create ~title:"Dedicated election time on G_m"
      ~columns:[ "m"; "n = 4m+1"; "leader (centre)"; "rounds"; "lower bound" ]
  in
  let points = ref [] in
  List.iter
    (fun m ->
      let p = Imp.g_family_point m in
      points := (float_of_int p.Imp.n, float_of_int p.Imp.rounds) :: !points;
      Table.add_row table
        [
          string_of_int m;
          string_of_int p.Imp.n;
          Table.cell_opt_int p.Imp.elected;
          string_of_int p.Imp.rounds;
          string_of_int p.Imp.bound;
        ])
    [ 2; 4; 8; 16; 32 ];
  Table.print table;
  print_string
    (Radio_analysis.Chart.series ~log_scale:true
       ~title:"G_m election time growth" ~x_label:"n" ~y_label:"rounds"
       (List.rev !points));
  Printf.printf
    "Election time grows with n (measured exponent %.2f); the paper proves\n\
     it can never drop below Omega(n) on this family, and the canonical\n\
     DRIP pays Theta(n^2) here.\n"
    (Stats.loglog_slope !points)

(* ------------------------------------------------------------------ *)
(* E4 - Proposition 4.3: Ω(σ) at constant size (H_m family)            *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4  Lower-bound family H_m (Proposition 4.3, n = 4)";
  let table =
    Table.create ~title:"Dedicated election time on H_m"
      ~columns:[ "m"; "sigma = m+1"; "rounds"; "lower bound m"; "rounds/sigma" ]
  in
  let points = ref [] in
  List.iter
    (fun m ->
      let p = Imp.h_family_point m in
      points := (float_of_int p.Imp.sigma, float_of_int p.Imp.rounds) :: !points;
      Table.add_row table
        [
          string_of_int m;
          string_of_int p.Imp.sigma;
          string_of_int p.Imp.rounds;
          string_of_int p.Imp.bound;
          Table.cell_float ~decimals:2
            (float_of_int p.Imp.rounds /. float_of_int p.Imp.sigma);
        ])
    [ 1; 4; 16; 64; 256 ];
  Table.print table;
  print_string
    (Radio_analysis.Chart.series ~log_scale:true
       ~title:"H_m election time growth" ~x_label:"sigma" ~y_label:"rounds"
       (List.rev !points));
  Printf.printf
    "Time is linear in sigma at constant n = 4 (measured exponent %.2f,\n\
     paper bound: at least m rounds).\n"
    (Stats.loglog_slope !points)

(* ------------------------------------------------------------------ *)
(* E5 - Proposition 4.4: no universal algorithm                        *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5  Universality refutations (Proposition 4.4)";
  let table =
    Table.create ~title:"Adversary vs candidate universal algorithms"
      ~columns:[ "candidate"; "probe t"; "counterexample"; "refuted" ]
  in
  let dedicated name config =
    (name, Option.get (Fe.dedicated_election (Fe.analyze config)))
  in
  let candidates =
    [
      dedicated "dedicated(H_1)" (F.h_family 1);
      dedicated "dedicated(H_8)" (F.h_family 8);
      dedicated "dedicated(G_2)" (F.g_family 2);
      dedicated "dedicated(staircase_5)" (F.staircase_clique 5);
      ( "beacon+first-silent",
        {
          Runner.protocol = P.beacon ();
          decision =
            (fun h -> Array.length h > 0 && H.equal_entry h.(0) H.Silence);
        } );
      ( "silent-waiter",
        { Runner.protocol = P.silent ~lifetime:8 (); decision = (fun _ -> true) }
      );
    ]
  in
  List.iter
    (fun (name, candidate) ->
      let r = Imp.refute_universal ~max_rounds:5_000_000 candidate in
      Table.add_row table
        [
          name;
          (match r.Imp.probe_round with Some t -> string_of_int t | None -> "-");
          Printf.sprintf "H_%d"
            (match r.Imp.probe_round with Some t -> t + 1 | None -> 1);
          Table.cell_bool r.Imp.refuted;
        ])
    candidates;
  Table.print table;
  (* Beyond the proof's tailored H_{t+1}: scan the whole small universe. *)
  let candidate = Option.get (Fe.dedicated_election (Fe.analyze (F.h_family 2))) in
  (match Election.Adversary.find_failure candidate with
  | Some ce ->
      Printf.printf
        "exhaustive search: dedicated(H_2) already fails on a feasible \
         %d-node configuration with tags [%s]\n"
        (C.size ce.Election.Adversary.config)
        (String.concat "; "
           (List.map string_of_int
              (Array.to_list (C.tags ce.Election.Adversary.config))))
  | None -> Printf.printf "exhaustive search: no failure found (unexpected!)\n");
  let failures, total = Election.Adversary.count_failures candidate in
  Printf.printf
    "in fact it fails on %d of the %d feasible configurations with n <= 4,\n\
     span <= 2.  Every candidate fails somewhere, exactly as Proposition 4.4\n\
     predicts for any deterministic algorithm.\n"
    failures total

(* ------------------------------------------------------------------ *)
(* E6 - Proposition 4.5: no distributed decision algorithm             *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6  Indistinguishability H_{t+1} vs S_{t+1} (Proposition 4.5)";
  let table =
    Table.create ~title:"Per-node history equality across the feasibility line"
      ~columns:[ "protocol"; "probe t"; "m used"; "histories identical" ]
  in
  let protocols =
    [
      ("beacon(1)", P.beacon ());
      ("beacon(5)", P.beacon ~delay:4 ());
      ( "canonical(H_1)",
        Can.protocol (Can.plan_of_run (Cl.classify (F.h_family 1))) );
      ( "canonical(G_2)",
        Can.protocol (Can.plan_of_run (Cl.classify (F.g_family 2))) );
      ("silent", P.silent ~lifetime:6 ());
    ]
  in
  List.iter
    (fun (name, proto) ->
      let t = Imp.first_lonely_transmission proto in
      let w = Imp.indistinguishability_witness ~max_rounds:5_000_000 proto in
      Table.add_row table
        [
          name;
          (match t with Some t -> string_of_int t | None -> "-");
          string_of_int (C.span w.Imp.infeasible_config);
          Table.cell_bool w.Imp.histories_identical;
        ])
    protocols;
  Table.print table;
  Printf.printf
    "A feasible and an infeasible configuration generate identical local\n\
     histories for every protocol: no distributed decision algorithm exists.\n"

(* ------------------------------------------------------------------ *)
(* E7 - Lemma 3.9: centralized partition == simulated history classes  *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7  Cross-validation: Classifier partition vs simulation (Lemma 3.9)";
  let st = Workloads.state () in
  let cases = 200 in
  let agreements = ref 0 in
  let feasible = ref 0 in
  for _ = 1 to cases do
    let n = 2 + Random.State.int st 14 in
    let span = Random.State.int st 5 in
    let config = RC.connected_gnp st ~n ~p:0.35 ~span in
    let run = Cl.classify config in
    let plan = Can.plan_of_run run in
    let o = Engine.run ~max_rounds:5_000_000 (Can.protocol plan) config in
    let hc = Runner.history_classes o in
    let final = (Cl.last_iteration run).Cl.new_class in
    let agree = ref true in
    for v = 0 to n - 1 do
      for w = v + 1 to n - 1 do
        if hc.(v) = hc.(w) <> (final.(v) = final.(w)) then agree := false
      done
    done;
    if !agree then incr agreements;
    if Cl.is_feasible run then incr feasible
  done;
  Printf.printf
    "random configurations: %d;  feasible: %d;  partition agreement: %d/%d\n"
    cases !feasible !agreements cases;
  Printf.printf
    "(The two independent code paths - combinatorial refinement and radio\n\
     simulation - must agree on every single case.)\n"

(* ------------------------------------------------------------------ *)
(* E8 - Open problem 1: fast classifier speedup                        *)
(* ------------------------------------------------------------------ *)

(* CPU seconds per call: a batch grows until it takes 20 ms, so that the
   small rows measure the code and not the clock; the fastest of five
   batches, the one load from other processes disturbed least. *)
let per_call f =
  let batch k () =
    for _ = 1 to k do
      ignore (f ())
    done
  in
  let rec size k = if Sweep.repeat_timed 1 (batch k) >= 0.02 then k else size (2 * k) in
  let k = size 1 in
  List.fold_left Float.min infinity
    (List.init 5 (fun _ -> Sweep.repeat_timed 1 (batch k)))
  /. float_of_int k

let e8 () =
  section "E8  Fast classifier vs literal implementation (open problem 1)";
  let module I = Election.Incremental in
  let table =
    Table.create
      ~title:
        "Classifier paths, identical outputs (CPU ms per call; labels built; \
         doubling = time at this n / time at the previous row's n)"
      ~columns:
        [ "workload"; "n"; "impl"; "iters"; "ms"; "labels"; "doubling" ]
  in
  (* One series: one workload, one implementation, growing n. *)
  let series workload impl sizes make =
    let prev = ref None in
    List.iter
      (fun size ->
        let config = make size in
        let n = C.size config in
        let run, labels =
          match impl with
          | `Literal ->
              let run = Cl.classify config in
              (run, n * Cl.num_iterations run)
          | `Fast | `Incremental ->
              (* [Incremental.init] classifies with the kernel, no memo. *)
              let run, cost = Fast.kernel config in
              (run, cost.Fast.computed)
        in
        let t =
          per_call (fun () ->
              match impl with
              | `Literal -> ignore (Cl.classify config)
              | `Fast -> ignore (Fast.classify config)
              | `Incremental -> ignore (I.run (I.init config)))
        in
        let doubling =
          match !prev with
          | Some (n0, t0) when n >= 2 * n0 - 2 ->
              Table.cell_float ~decimals:1 (t /. Float.max t0 1e-9)
          | Some _ | None -> "-"
        in
        prev := Some (n, t);
        Table.add_row table
          [
            workload;
            string_of_int n;
            (match impl with
            | `Literal -> "literal"
            | `Fast -> "fast"
            | `Incremental -> "incremental");
            string_of_int (Cl.num_iterations run);
            Table.cell_float ~decimals:3 (1000.0 *. t);
            string_of_int labels;
            doubling;
          ])
      sizes
  in
  (* A fresh seeded state per configuration: both implementations of a
     row classify the same graph. *)
  let clique n = Workloads.clique_config (Workloads.state ()) n in
  let gnp n = Workloads.gnp_config (Workloads.state ()) n in
  series "staircase clique" `Literal [ 64; 128; 256 ] clique;
  series "staircase clique" `Fast [ 64; 128; 256 ] clique;
  series "sparse gnp" `Literal [ 64; 128; 256 ] gnp;
  series "sparse gnp" `Fast [ 64; 128; 256 ] gnp;
  (* G_m maximizes the iteration count (m iterations, n = 4m + 1): the
     regime where both Refine's rep-scan and a label per node per
     iteration cost the most. *)
  let g_sizes = [ 8; 16; 32; 64; 128; 256; 512 ] in
  series "G_m" `Literal [ 8; 16; 32; 64 ] F.g_family;
  series "G_m" `Fast g_sizes F.g_family;
  series "G_m" `Incremental g_sizes F.g_family;
  Table.print table;
  Printf.printf
    "The literal Classifier builds a label per node per iteration.  The\n\
     fast kernel rebuilds only the labels whose inputs moved at the\n\
     previous iteration: 16m - 15 of them on G_m.  A doubling near 4 is\n\
     quadratic, near 8 cubic; the fast G_m rows stay quadratic because\n\
     every iteration still refines and records all n nodes.\n"

(* ------------------------------------------------------------------ *)
(* E9 - related-work baselines: the price of determinism               *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9  Baselines: randomized CD election & labeled max-flood (related work)";
  let table =
    Table.create
      ~title:
        "Single-hop election: deterministic anonymous vs randomized vs labeled"
      ~columns:
        [
          "n";
          "deterministic (staircase)";
          "randomized mean (uniform tags)";
          "~2 log2 n";
          "labeled TDMA";
        ]
  in
  List.iter
    (fun n ->
      let det =
        let a = Fe.analyze (F.staircase_clique n) in
        match Fe.verify_by_simulation ~max_rounds:50_000_000 a with
        | Some r -> Option.get r.Runner.rounds_to_elect
        | None -> -1
      in
      let rng = Random.State.make [| Workloads.seed + n |] in
      let rand = Radio_baselines.Randomized.measure_rounds ~rng ~n ~trials:25 in
      let lab =
        (Radio_baselines.Labeled.run (C.uniform (Gen.complete n) 0))
          .Radio_baselines.Labeled.rounds
      in
      Table.add_row table
        [
          string_of_int n;
          string_of_int det;
          Table.cell_float ~decimals:1 rand;
          Table.cell_float ~decimals:1
            (2.0 *. (log (float_of_int n) /. log 2.0));
          string_of_int lab;
        ])
    [ 4; 8; 16; 32; 64 ];
  Table.print table;
  Printf.printf
    "Deterministic anonymous election needs wake-up asymmetry (here: span\n\
     n-1); randomization gets O(log n) expected with NO asymmetry; labels\n\
     make it trivial but quadratic in this naive TDMA.  This is the\n\
     contrast the paper's related-work section draws.\n"

(* ------------------------------------------------------------------ *)
(* E10 - feasibility landscape                                         *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10  Feasibility landscape (new figure)";
  let st = Workloads.state () in
  let n = 12 and batch = 30 in
  let densities = [ 0.15; 0.3; 0.6; 1.0 ] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "Feasible fraction, n = %d, %d samples per cell" n batch)
      ~columns:
        ("span \\ p" :: List.map (fun p -> Printf.sprintf "p=%.2f" p) densities)
  in
  List.iter
    (fun span ->
      Table.add_row table
        (string_of_int span
        :: List.map
             (fun p ->
               let configs =
                 List.init batch (fun _ -> RC.connected_gnp st ~n ~p ~span)
               in
               Printf.sprintf "%.2f" (Fe.feasible_fraction configs))
             densities))
    [ 0; 1; 2; 4; 8 ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E11 - exhaustive census of the small-configuration universe         *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11  Exhaustive census: all connected graphs (n <= 5) x tags (span <= 2)";
  let report = Election.Census.run ~max_n:5 ~max_span:2 () in
  let table =
    Table.create
      ~title:
        "Every configuration classified AND simulated; disagreements must be 0"
      ~columns:[ "n"; "span"; "configs"; "feasible"; "disagree"; "impl mism" ]
  in
  List.iter
    (fun c ->
      Table.add_int_row table
        [
          c.Election.Census.n;
          c.Election.Census.span;
          c.Election.Census.total;
          c.Election.Census.feasible;
          c.Election.Census.disagreements;
          c.Election.Census.impl_mismatches;
        ])
    report.Election.Census.cells;
  Table.print table;
  Printf.printf
    "total configurations: %d;  fully consistent: %b\n\
     (classifier verdict == existence of a unique history in the simulated\n\
     canonical DRIP, on the ENTIRE small universe, not a sample.)\n"
    report.Election.Census.configurations report.Election.Census.all_consistent

(* ------------------------------------------------------------------ *)
(* E12 - open problem 2: the canonical DRIP is far from optimal        *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12  Open problem 2: Min_beacon vs canonical DRIP (unique-min cliques)";
  let table =
    Table.create
      ~title:"Global rounds to elect on staircase cliques (n = sigma + 1)"
      ~columns:[ "n"; "sigma"; "canonical"; "min-beacon"; "same leader" ]
  in
  List.iter
    (fun n ->
      let config = F.staircase_clique n in
      let a = Fe.analyze config in
      let canonical_rounds =
        match Fe.verify_by_simulation ~max_rounds:50_000_000 a with
        | Some r -> Option.get r.Runner.rounds_to_elect
        | None -> -1
      in
      assert (Election.Min_beacon.applies config);
      let r = Runner.run Election.Min_beacon.election config in
      Table.add_row table
        [
          string_of_int n;
          string_of_int (C.span config);
          string_of_int canonical_rounds;
          string_of_int (Option.get r.Runner.rounds_to_elect);
          Table.cell_bool (r.Runner.leader = a.Fe.leader);
        ])
    [ 4; 8; 16; 32; 64 ];
  Table.print table;
  (* Negative control: Min_beacon outside its class fails. *)
  let bad = F.s_family 2 in
  let r = Runner.run ~max_rounds:10_000 Election.Min_beacon.election bad in
  Printf.printf
    "negative control: Min_beacon on S_2 (outside its class) elects a \
     unique leader: %b (expected: false)\n\n"
    (Runner.elects_unique_leader r);
  (* Multi-hop: Wave_election on depth-tagged trees, O(D) vs O(n^2 sigma). *)
  let wave_table =
    Table.create
      ~title:
        "Wave_election on depth-tagged binary trees (multi-hop, O(D) rounds)"
      ~columns:
        [ "n"; "sigma"; "diameter"; "canonical"; "wave"; "same leader" ]
  in
  List.iter
    (fun n ->
      let g = Gen.binary_tree n in
      let dist = Radio_graph.Props.bfs_distances g 0 in
      let config = C.create g (Array.map (fun d -> d) dist) in
      assert (Election.Wave_election.applies config);
      let a = Fe.analyze config in
      let canonical =
        match Fe.verify_by_simulation ~max_rounds:50_000_000 a with
        | Some r -> Option.get r.Runner.rounds_to_elect
        | None -> -1
      in
      let r = Runner.run ~max_rounds:100_000 Election.Wave_election.election config in
      Table.add_row wave_table
        [
          string_of_int n;
          string_of_int (C.span config);
          string_of_int (Radio_graph.Props.diameter g);
          string_of_int canonical;
          string_of_int (Option.get r.Runner.rounds_to_elect);
          Table.cell_bool (r.Runner.leader = a.Fe.leader);
        ])
    [ 7; 15; 31; 63; 127 ];
  Table.print wave_table;
  Printf.printf
    "Constant-round (Min_beacon) and O(D)-round (Wave_election) dedicated\n\
     algorithms on easy feasible sub-classes vs the canonical DRIP's\n\
     O(n^2 sigma): the gap the paper's second open problem asks about.\n"

(* ------------------------------------------------------------------ *)
(* E13 - randomized single-hop regimes: O(log n) vs O(log log n)       *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section
    "E13  Randomized single-hop regimes: splitting vs Willard vs random ids";
  let table =
    Table.create
      ~title:
        "Mean global rounds to elect (uniform tags, no wake-up asymmetry; 30 \
         trials)"
      ~columns:
        [
          "n";
          "splitting (exp O(log n))";
          "willard (exp O(log log n))";
          "bit-tournament (3log2 n + 3, whp)";
          "tournament success";
        ]
  in
  List.iter
    (fun n ->
      let rng = Random.State.make [| Workloads.seed + (7 * n) |] in
      let splitting =
        Radio_baselines.Randomized.measure_rounds ~rng ~n ~trials:30
      in
      let willard = Radio_baselines.Willard.measure_rounds ~rng ~n ~trials:30 in
      let tournament = Radio_baselines.Bit_tournament.rounds ~n in
      let success =
        Radio_baselines.Bit_tournament.success_rate ~rng ~n ~trials:30
      in
      Table.add_row table
        [
          string_of_int n;
          Table.cell_float ~decimals:1 splitting;
          Table.cell_float ~decimals:1 willard;
          string_of_int tournament;
          Table.cell_float ~decimals:2 success;
        ])
    [ 4; 16; 64; 256; 1024 ];
  Table.print table;
  Printf.printf
    "Splitting keeps growing with log n; Willard's estimation flattens out\n\
     (log log n probes); minting random identifiers gives a deterministic\n\
     3 log2 n + 3 schedule that succeeds with probability >= 1 - 1/n.\n\
     All three need zero wake-up asymmetry - randomness replaces the\n\
     symmetry breaking that the deterministic anonymous model must extract\n\
     from wake-up tags.\n"

(* ------------------------------------------------------------------ *)
(* E14 - energy: transmissions per node (the radio cost that matters)  *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14  Energy ledger: transmissions per node";
  let table =
    Table.create
      ~title:"Per-node transmissions to elect (max over nodes / mean)"
      ~columns:[ "workload"; "n"; "algorithm"; "rounds"; "max tx"; "mean tx" ]
  in
  let record label n algo_name proto config =
    let o = Engine.run ~max_rounds:10_000_000 proto config in
    let tx = o.Engine.transmissions_by_node in
    let mx = Array.fold_left max 0 tx in
    let mean =
      float_of_int (Array.fold_left ( + ) 0 tx) /. float_of_int (Array.length tx)
    in
    Table.add_row table
      [
        label;
        string_of_int n;
        algo_name;
        string_of_int o.Engine.rounds;
        string_of_int mx;
        Table.cell_float ~decimals:2 mean;
      ]
  in
  List.iter
    (fun n ->
      (* Canonical DRIP on G_m-style hard instances. *)
      let m = n / 4 in
      let g = F.g_family m in
      let plan = Can.plan_of_run (Cl.classify g) in
      record "G_m" (C.size g) "canonical" (Can.protocol plan) g;
      (* Canonical vs wave on depth-tagged trees. *)
      let tree = Gen.binary_tree n in
      let dist = Radio_graph.Props.bfs_distances tree 0 in
      let config = C.create tree dist in
      let plan_t = Can.plan_of_run (Cl.classify config) in
      record "depth tree" n "canonical" (Can.protocol plan_t) config;
      record "depth tree" n "wave" Election.Wave_election.election.Runner.protocol
        config)
    [ 15; 63 ];
  Table.print table;
  Printf.printf
    "The canonical DRIP transmits once per phase per node (energy grows\n\
     with the refinement depth); the wave algorithm transmits exactly once\n\
     per node - the minimum any relaying election can do.\n"

(* ------------------------------------------------------------------ *)
(* E15 - wired vs radio: where symmetry can be broken (intro, §1.1)    *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15  Wired (port-numbered) vs radio: topology vs time (intro contrast)";
  let module PG = Radio_wired.Port_graph in
  let module V = Radio_wired.View in
  let table =
    Table.create
      ~title:
        "Simultaneous start: can a leader be elected?  (wired = view \
         refinement; radio = Classifier with uniform tags)"
      ~columns:[ "network"; "n"; "wired classes"; "wired"; "radio (uniform)" ]
  in
  let row name pg =
    let v = V.refine pg in
    let g = PG.graph pg in
    let radio = Fe.is_feasible (C.uniform g 0) in
    Table.add_row table
      [
        name;
        string_of_int (PG.size pg);
        string_of_int (V.num_classes v);
        (if V.electable v then "elects" else "stuck");
        (if radio then "elects" else "stuck");
      ]
  in
  row "path (canonical ports)" (PG.of_graph (Gen.path 9));
  row "star (canonical ports)" (PG.of_graph (Gen.star 8));
  row "binary tree" (PG.of_graph (Gen.binary_tree 15));
  row "grid 3x4" (PG.of_graph (Gen.grid 3 4));
  row "oriented cycle" (PG.oriented_cycle 9);
  row "circulant K_8" (PG.circulant_complete 8);
  row "dimension 4-cube" (PG.dimension_hypercube 4);
  Table.print table;
  Printf.printf
    "With everyone starting at once, wired anonymous networks elect whenever\n\
     topology-plus-ports is asymmetric (Yamashita-Kameda); the radio model\n\
     NEVER can (n >= 2) - its only symmetry breaker is wake-up time, which\n\
     is the paper's starting observation.  Perfectly symmetric port\n\
     numberings (oriented cycle, circulant clique, dimension-ordered cube)\n\
     are stuck in both models.\n"

(* ------------------------------------------------------------------ *)
(* E16 - robustness: fragility of feasibility + certificate coverage   *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16  Robustness: fragility of feasibility & symmetry certificates";
  let table =
    Table.create ~title:"Single-tag fragility of feasible families"
      ~columns:[ "configuration"; "n"; "perturbations"; "breaking"; "fragility" ]
  in
  List.iter
    (fun (name, config) ->
      let r = Election.Fragility.single_tag config in
      Table.add_row table
        [
          name;
          string_of_int (C.size config);
          string_of_int r.Election.Fragility.perturbations;
          string_of_int (List.length r.Election.Fragility.breaking);
          Table.cell_float ~decimals:2 r.Election.Fragility.fragility;
        ])
    [
      ("two_cells", F.two_cells ());
      ("H_2", F.h_family 2);
      ("H_8", F.h_family 8);
      ("G_2", F.g_family 2);
      ("staircase_6", F.staircase_clique 6);
      ("broken cycle", F.tagged_cycle [| 0; 1; 0; 1; 1; 1 |]);
    ];
  Table.print table;
  (* Certificate coverage over the exhaustive n <= 4 universe. *)
  let graphs = Radio_graph.Enumerate.connected_up_to_iso 4 in
  let infeasible = ref 0 in
  let certified = ref 0 in
  let unsound = ref 0 in
  List.iter
    (fun g ->
      List.iter
        (fun tags ->
          let config = C.create g tags in
          let cert = Election.Symmetry.certified_infeasible config in
          let feas = Cl.is_feasible (Cl.classify config) in
          if not feas then incr infeasible;
          if cert then begin
            incr certified;
            if feas then incr unsound
          end)
        (Election.Census.tag_assignments ~n:(Radio_graph.Graph.size g)
           ~max_span:2))
    graphs;
  Printf.printf
    "symmetry certificates over all n<=4 configurations (span<=2):\n\
     infeasible: %d;  with a fixed-point-free automorphism certificate: %d;\n\
     soundness violations: %d (must be 0)\n"
    !infeasible !certified !unsound;
  Printf.printf
    "Feasibility is remarkably robust (a slipped clock rarely re-creates a\n\
     symmetry), and when it does break, the independent automorphism\n\
     certificate usually witnesses it.\n"

(* ------------------------------------------------------------------ *)
(* E17 - the true optimum: exhaustive symmetry-breaking-time search    *)
(* ------------------------------------------------------------------ *)

let e17 () =
  section "E17  Optimal symmetry-breaking time vs the canonical DRIP";
  let table =
    Table.create
      ~title:
        "Minimal round at which ANY deterministic algorithm can separate a \
         node (exhaustive search) vs the canonical DRIP"
      ~columns:
        [
          "configuration";
          "paper lower bound";
          "optimal (search)";
          "canonical separates";
          "canonical terminates";
        ]
  in
  let cell_outcome = function
    | Election.Optimal.Broken_at r -> string_of_int r
    | Election.Optimal.Never -> "never"
    | Election.Optimal.Not_within_horizon -> ">horizon"
    | Election.Optimal.Search_budget_exhausted -> "budget"
  in
  List.iter
    (fun (name, bound, config) ->
      let opt = Election.Optimal.breaking_time config in
      let sep = Election.Optimal.canonical_breaking_time config in
      let total =
        let a = Fe.analyze config in
        match Fe.verify_by_simulation ~max_rounds:10_000_000 a with
        | Some r -> Table.cell_opt_int r.Runner.rounds_to_elect
        | None -> "-"
      in
      Table.add_row table
        [ name; bound; cell_outcome opt; Table.cell_opt_int sep; total ])
    [
      ("two_cells", "-", F.two_cells ());
      ("H_1", "1 (Lemma 4.2)", F.h_family 1);
      ("H_2", "2 (Lemma 4.2)", F.h_family 2);
      ("H_4", "4 (Lemma 4.2)", F.h_family 4);
      ("H_6", "6 (Lemma 4.2)", F.h_family 6);
      ("staircase_4", "-", F.staircase_clique 4);
      ("S_2 (infeasible)", "-", F.s_family 2);
    ];
  Table.print table;
  Printf.printf
    "The exhaustive search meets Lemma 4.2's lower bound EXACTLY on every\n\
     H_m: the bound is tight.  Strikingly, the canonical DRIP also\n\
     separates at the optimal round - its Theta(sigma) overhead is spent\n\
     confirming and announcing the separation, not finding it.  That is\n\
     precisely the gap open problem 2 asks to close.\n"

(* ------------------------------------------------------------------ *)
(* E18 - fault layer: planned-fault run costs                          *)
(* ------------------------------------------------------------------ *)

let e18 () =
  section "E18  Fault layer: faulty-run costs";
  let table =
    Table.create
      ~title:
        "Engine.run_plan on the faults workload (seeded crash/drop/noise/\
         jitter plans)"
      ~columns:
        [ "n"; "faults"; "fired"; "rounds"; "elects"; "bare ms"; "faulty ms" ]
  in
  List.iter
    (fun n ->
      let st = Workloads.state () in
      let config = Workloads.faults_config st n in
      let a = Fe.analyze config in
      let election = Option.get (Fe.dedicated_election a) in
      let baseline = Runner.run ~max_rounds:10_000_000 election config in
      let horizon = baseline.Runner.outcome.Engine.rounds + 1 in
      let plan = Workloads.faults_plan ~horizon config in
      let fo =
        Engine.run_plan ~max_rounds:10_000_000 plan election.Runner.protocol
          config
      in
      let t_bare =
        Sweep.repeat_timed 3 (fun () ->
            ignore
              (Engine.run ~max_rounds:10_000_000 election.Runner.protocol
                 config))
      in
      let t_faulty =
        Sweep.repeat_timed 3 (fun () ->
            ignore
              (Engine.run_plan ~max_rounds:10_000_000 plan
                 election.Runner.protocol config))
      in
      Table.add_row table
        [
          string_of_int n;
          string_of_int (List.length plan);
          string_of_int (List.length fo.Engine.ledger);
          string_of_int fo.Engine.base.Engine.rounds;
          Table.cell_bool
            (Option.is_some (Engine.elected election.Runner.decision fo));
          Table.cell_float ~decimals:3 (1000.0 *. t_bare);
          Table.cell_float ~decimals:3 (1000.0 *. t_faulty);
        ])
    [ 16; 32; 64 ];
  Table.print table;
  Printf.printf
    "Engine.run is the empty-plan run of the same round loop, so 'bare'\n\
     and 'faulty' differ only by the plan's crash, drop and noise work.\n"

(* ------------------------------------------------------------------ *)
(* E19 - model checker: universal-mode exploration throughput          *)
(* ------------------------------------------------------------------ *)

let e19 () =
  section "E19  Model checker: exploration throughput and symmetry reduction";
  let module Checker = Radio_mc.Checker in
  let states = 2_000_000 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Universal-mode BFS, crash adversary k=1 (cap %d packed states)"
           states)
      ~columns:
        [
          "config";
          "n";
          "depth";
          "group";
          "states";
          "peak frontier";
          "states/s";
          "visited MB";
          "full states";
          "saved";
        ]
  in
  let json_rows = ref [] in
  let emit_row ~name ~n ~depth ~jobs ~t (s : Checker.stats) ~full_states
      ~saved ~conclusive =
    let rate = float_of_int s.Checker.states_explored /. Float.max t 1e-9 in
    json_rows :=
      Printf.sprintf
        "    {\"name\": %S, \"n\": %d, \"faults\": 1, \"depth\": %d, \
         \"state_cap\": %d, \"jobs\": %d, \"automorphisms\": %d, \
         \"states_explored\": %d, \"states_raw\": %d, \"peak_frontier\": \
         %d, \"canonicalizations\": %d, \"peak_visited_bytes\": %d, \
         \"conclusive\": %b, \"seconds\": %.6f, \"states_per_sec\": %.1f, \
         \"states_no_reduction\": %d, \"reduction_saving\": %.4f}"
        name n depth states jobs s.Checker.automorphisms
        s.Checker.states_explored s.Checker.states_raw
        s.Checker.peak_frontier s.Checker.canonicalizations
        s.Checker.visited_bytes conclusive t rate full_states saved
      :: !json_rows;
    rate
  in
  List.iter
    (fun (name, depth, config) ->
      let run ?pool ~reduction () =
        Checker.explore ~depth ~states ~reduction ~faults:1 ?pool config
      in
      let reduced = run ~reduction:true () in
      let t =
        Sweep.repeat_timed 3 (fun () -> ignore (run ~reduction:true ()))
      in
      let full = run ~reduction:false () in
      let s = reduced.Checker.stats in
      let sf = full.Checker.stats in
      let conclusive =
        match reduced.Checker.exhausted with
        | Some `States -> false
        | None | Some `Depth -> true
      in
      (* The hot-path contract: the single-probe visited set canonicalizes
         each raw successor exactly once (plus the initial state) — the
         old path canonicalized on every dedup probe too. *)
      if conclusive then
        assert (s.Checker.canonicalizations = s.Checker.states_raw + 1);
      let saved =
        1.0
        -. float_of_int s.Checker.states_explored
           /. float_of_int (max sf.Checker.states_explored 1)
      in
      let rate =
        emit_row ~name ~n:(C.size config) ~depth ~jobs:1 ~t s
          ~full_states:sf.Checker.states_explored ~saved ~conclusive
      in
      Table.add_row table
        [
          name;
          string_of_int (C.size config);
          string_of_int depth;
          string_of_int s.Checker.automorphisms;
          string_of_int s.Checker.states_explored;
          string_of_int s.Checker.peak_frontier;
          Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.1f"
            (float_of_int s.Checker.visited_bytes /. 1048576.0);
          string_of_int sf.Checker.states_explored;
          Printf.sprintf "%.1f%%" (100.0 *. saved);
        ];
      (* Parallel frontier expansion on the big rows: identical stats at
         every job count (the wave-determinism contract), throughput per
         pool size recorded alongside.  On a single-core host the extra
         domains only add scheduling overhead — host_cores in the JSON
         says which regime a row was measured in. *)
      if s.Checker.states_explored >= 100_000 then
        List.iter
          (fun jobs ->
            Radio_exec.Pool.with_pool ~jobs (fun pool ->
                let e = run ~pool ~reduction:true () in
                let tp =
                  Sweep.repeat_timed 3 (fun () ->
                      ignore (run ~pool ~reduction:true ()))
                in
                let sp = e.Checker.stats in
                assert (
                  sp.Checker.states_explored = s.Checker.states_explored
                  && sp.Checker.states_raw = s.Checker.states_raw
                  && sp.Checker.peak_frontier = s.Checker.peak_frontier
                  && sp.Checker.canonicalizations
                     = s.Checker.canonicalizations
                  && sp.Checker.visited_bytes = s.Checker.visited_bytes);
                ignore
                  (emit_row ~name ~n:(C.size config) ~depth ~jobs ~t:tp sp
                     ~full_states:sf.Checker.states_explored ~saved
                     ~conclusive)))
          [ 2; 4 ])
    [
      ("cycle4", 10, C.uniform (Radio_graph.Gen.cycle 4) 0);
      ("cycle5", 10, C.uniform (Radio_graph.Gen.cycle 5) 0);
      ("cycle6", 10, C.uniform (Radio_graph.Gen.cycle 6) 0);
      (* Feasible, staggered tags: the frontier genuinely explodes here.
         Under the old 120k cap this row always tripped; the packed
         visited set runs it to conclusion (~850k states at depth 8). *)
      ("H_2", 8, F.h_family 2);
      (* n = 6 feasible ring (one tag flipped): conclusive at ~420k
         states — the scale the boxed hashtable path could not reach. *)
      ("ring6_broken", 6, C.create (Radio_graph.Gen.cycle 6)
         [| 0; 1; 0; 1; 1; 1 |]);
    ];
  Table.print table;
  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"E19\",\n\
      \  \"kernel\": \"Radio_mc.Checker.explore\",\n\
      \  \"host_cores\": %d,\n\
      \  \"workloads\": [\n"
      (Domain.recommended_domain_count ())
    ^ String.concat ",\n" (List.rev !json_rows)
    ^ "\n  ]\n}\n"
  in
  Out_channel.with_open_text "BENCH_mc.json" (fun oc ->
      output_string oc json);
  Printf.printf
    "wrote BENCH_mc.json\n\
     On uniform cycles every tag-preserving rotation/reflection survives,\n\
     so the quotient collapses the crash adversary's choice of victim -\n\
     the reduction column is the visited-set saving it buys.  Conclusive\n\
     rows verified canonicalizations = states_raw + 1 (one quotient map\n\
     per successor); parallel rows verified bit-identical to jobs 1.\n"

(* ------------------------------------------------------------------ *)
(* E20 - lib/exec: domain-pool sweeps, sequential vs parallel          *)
(* ------------------------------------------------------------------ *)

let e20 ?(quick = false) () =
  section "E20  Domain pool: sequential vs parallel sweeps (lib/exec)";
  let module Pool = Radio_exec.Pool in
  let jobs = if quick then 2 else 4 in
  let reps = if quick then 1 else 5 in
  let census_n = if quick then 3 else 4 in
  let oracle_n = if quick then 3 else 4 in
  let trials = if quick then 10 else 25 in
  let horizon = if quick then 8 else 10 in
  (* Each workload renders its full report to a string so the equality
     column below really is the byte-identity contract of docs/PARALLEL.md,
     not a spot check. *)
  let workloads =
    [
      ( "census",
        fun pool ->
          Format.asprintf "%a" Election.Census.pp_report
            (Election.Census.run ?pool ~max_n:census_n ~max_span:1 ()) );
      ( "mc-oracle",
        fun pool ->
          Format.asprintf "%a" Radio_mc.Oracle.pp_report
            (Radio_mc.Oracle.run ?pool ~max_n:oracle_n ()) );
      ( "resilience",
        fun pool ->
          Radio_faults.Resilience.to_csv
            (Radio_faults.Resilience.crash_sweep ?pool ~trials ~name:"h3"
               (F.h_family 3)) );
      ( "optimal",
        fun pool ->
          match
            Election.Optimal.breaking_time ?pool ~horizon (F.h_family 2)
          with
          | Election.Optimal.Broken_at r -> Printf.sprintf "broken@%d" r
          | Election.Optimal.Never -> "never"
          | Election.Optimal.Not_within_horizon -> "not-within-horizon"
          | Election.Optimal.Search_budget_exhausted -> "budget-exhausted" );
    ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "sequential vs %d-worker pool (wall-clock s, median of %d)" jobs
           reps)
      ~columns:[ "workload"; "seq s"; "par s"; "speedup"; "equal" ]
  in
  let wall reps f =
    (* The fast workloads finish in microseconds, below the resolution a
       single [Unix.gettimeofday] pair can measure honestly, so each
       sample repeats the workload until it spans [min_span] and reports
       the per-iteration time; the samples' median is returned. *)
    let min_span = 0.2 in
    let sample () =
      let t0 = Unix.gettimeofday () in
      let rec go n =
        ignore (Sys.opaque_identity (f ()));
        let dt = Unix.gettimeofday () -. t0 in
        if dt < min_span then go (n + 1) else dt /. float_of_int n
      in
      go 1
    in
    let times = List.init reps (fun _ -> sample ()) in
    List.nth (List.sort compare times) (reps / 2)
  in
  let json_rows = ref [] in
  let pool = Pool.create ~jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (name, work) ->
          let seq_out = work None in
          let par_out = work (Some pool) in
          let equal = String.equal seq_out par_out in
          let seq_s = wall reps (fun () -> work None) in
          let par_s = wall reps (fun () -> work (Some pool)) in
          let speedup = seq_s /. Float.max par_s 1e-9 in
          Table.add_row table
            [
              name;
              Printf.sprintf "%.3f" seq_s;
              Printf.sprintf "%.3f" par_s;
              Printf.sprintf "%.2fx" speedup;
              Table.cell_bool equal;
            ];
          json_rows :=
            Printf.sprintf
              "    {\"workload\": %S, \"jobs\": %d, \"seq_s\": %.6f, \
               \"par_s\": %.6f, \"speedup\": %.4f, \"equal\": %b}"
              name jobs seq_s par_s speedup equal
            :: !json_rows)
        workloads;
      Table.print table;
      Format.printf "pool telemetry: %a@." Pool.pp_stats (Pool.stats pool));
  let json =
    "{\n  \"experiment\": \"E20\",\n  \"kernel\": \
     \"Radio_exec.Pool\",\n  \"workloads\": [\n"
    ^ String.concat ",\n" (List.rev !json_rows)
    ^ "\n  ]\n}\n"
  in
  Out_channel.with_open_text "BENCH_parallel.json" (fun oc ->
      output_string oc json);
  Printf.printf
    "wrote BENCH_parallel.json\n\
     The equal column is the determinism contract: a pooled sweep renders\n\
     byte-for-byte the sequential report.  Speedups track the machine's\n\
     core count - on a single-core container par ~ seq plus scheduling\n\
     overhead, and that honest number is recorded as-is.\n"

(* ------------------------------------------------------------------ *)
(* E21 - Churn: incremental re-classification + supervised            *)
(* re-election under link/node flaps                                   *)
(* ------------------------------------------------------------------ *)

let e21 ?(quick = false) ?(jobs = 2) () =
  section "E21  Churn: incremental re-classification + re-election";
  let module G = Radio_graph.Graph in
  let module FP = Radio_sim.Fault_plan in
  let module Ch = Radio_faults.Churn in
  let module I = Election.Incremental in
  let module Pool = Radio_exec.Pool in
  (* Two path families: [churn_config] keeps the span at 2 so the dedicated
     election fits inside an inter-event epoch (local rounds ~8, supervisor
     base timeout ~20); [dense_config] spreads tags over [0..16] to give the
     single-edit re-classification a non-trivial refinement to replay. *)
  let path n tags =
    let g = G.of_edges n (List.init (n - 1) (fun i -> (i, i + 1))) in
    C.create g (Array.init n tags)
  in
  let churn_config n = path n (fun i -> i mod 3) in
  let dense_config n = path n (fun i -> i * 31 mod 17) in
  (* Wall-clock sampler (same honesty rules as E20): repeat until the
     sample spans 50ms, report per-iteration time, take the median. *)
  let wall f =
    let min_span = 0.05 in
    let sample () =
      let t0 = Unix.gettimeofday () in
      let rec go n =
        ignore (Sys.opaque_identity (f ()));
        let dt = Unix.gettimeofday () -. t0 in
        if dt < min_span then go (n + 1) else dt /. float_of_int n
      in
      go 1
    in
    let times = List.init 3 (fun _ -> sample ()) in
    List.nth (List.sort compare times) 1
  in
  (* 1. Seeded churn schedules: availability and re-election economics. *)
  let churn_sizes = if quick then [ 8; 16 ] else [ 16; 32; 64 ] in
  let churn_table =
    Table.create ~title:"supervised churn (seeded flap schedules)"
      ~columns:
        [
          "n"; "horizon"; "events"; "epochs"; "avail"; "re-elect";
          "elect rounds"; "computed"; "reused"; "rebuilds";
        ]
  in
  let churn_rows =
    List.map
      (fun n ->
        let config = churn_config n in
        let horizon = 16 * n in
        let plan =
          FP.sample ~seed:(0xC0FF + n)
            ~link_flaps:(max 1 (n / 16))
            ~node_flaps:1
            ~retags:(max 1 (n / 16))
            ~horizon config
        in
        let r = Ch.run ~plan ~horizon config in
        (* The attempt sequence witnesses byte-identical supervision. *)
        let attempt_seq =
          String.concat ","
            (List.map
               (fun e -> string_of_int e.Ch.attempts)
               r.Ch.epochs)
        in
        let st = r.Ch.stats in
        Table.add_row churn_table
          [
            string_of_int n;
            string_of_int horizon;
            string_of_int (List.length plan);
            string_of_int (List.length r.Ch.epochs);
            Printf.sprintf "%.3f" r.Ch.availability;
            string_of_int r.Ch.re_elections;
            string_of_int r.Ch.total_election_rounds;
            string_of_int st.I.computed;
            string_of_int st.I.reused;
            string_of_int st.I.full_rebuilds;
          ];
        Printf.sprintf
          "    {\"n\": %d, \"horizon\": %d, \"events\": %d, \"epochs\": %d, \
           \"availability\": %.4f, \"re_elections\": %d, \
           \"election_rounds\": %d, \"attempt_sequence\": %S, \"edits\": \
           %d, \"labels_computed\": %d, \"labels_reused\": %d, \
           \"full_rebuilds\": %d, \"elected\": %b}"
          n horizon (List.length plan)
          (List.length r.Ch.epochs)
          r.Ch.availability r.Ch.re_elections r.Ch.total_election_rounds
          attempt_seq st.I.edits st.I.computed st.I.reused st.I.full_rebuilds
          (r.Ch.final_leader <> None))
      churn_sizes
  in
  Table.print churn_table;
  (* 2. Single-edit re-classification vs from-scratch at n >= 64.  The
     JSON speedup column is the deterministic label-cost ratio (scratch
     recomputes n labels per refinement iteration; the incremental path
     recomputes only the dirty ball); wall-clock medians are printed for
     the honest physical check but kept out of the replayable series. *)
  let speedup_sizes = if quick then [ 64 ] else [ 64; 128; 256 ] in
  let speedup_table =
    Table.create ~title:"single-edit re-classification (span-preserving retag)"
      ~columns:
        [
          "n"; "iters"; "scratch labels"; "incr labels"; "speedup";
          "scratch ms"; "incr ms"; "wall speedup";
        ]
  in
  let speedup_rows =
    List.map
      (fun n ->
        let st0 = I.init (dense_config n) in
        let edit = I.Set_tag (n / 2, 3) in
        let st1 = I.apply st0 edit in
        let d = I.last st1 in
        let run1 =
          match I.run st1 with
          | Some r -> r
          | None -> failwith "e21: empty incremental run"
        in
        let iters = List.length run1.Cl.iterations in
        let scratch_cost = n * iters in
        let incr_cost = max 1 d.I.labels_computed in
        let speedup = float_of_int scratch_cost /. float_of_int incr_cost in
        let edited =
          match I.current st1 with
          | Some c -> c
          | None -> failwith "e21: no induced configuration"
        in
        let scratch_s = wall (fun () -> Fast.classify edited) in
        let incr_s = wall (fun () -> I.apply st0 edit) in
        Table.add_row speedup_table
          [
            string_of_int n;
            string_of_int iters;
            string_of_int scratch_cost;
            string_of_int d.I.labels_computed;
            Printf.sprintf "%.1fx" speedup;
            Printf.sprintf "%.3f" (scratch_s *. 1e3);
            Printf.sprintf "%.3f" (incr_s *. 1e3);
            Printf.sprintf "%.1fx" (scratch_s /. Float.max incr_s 1e-9);
          ];
        Printf.sprintf
          "    {\"n\": %d, \"iterations\": %d, \"scratch_label_cost\": %d, \
           \"incremental_label_cost\": %d, \"labels_reused\": %d, \
           \"speedup\": %.2f, \"unit\": \"labels\"}"
          n iters scratch_cost d.I.labels_computed d.I.labels_reused speedup)
      speedup_sizes
  in
  Table.print speedup_table;
  (* 3. The differential oracle through the domain pool: the report is a
     pure function of its parameters, so this section is byte-identical
     at every jobs level. *)
  let sequences = if quick then 8 else 32 in
  let report =
    let pool = Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> I.Oracle.run ~pool ~sequences ~seed:0x1CE ())
  in
  Format.printf "%a@." I.Oracle.pp report;
  let oracle_json =
    Printf.sprintf
      "  {\"sequences\": %d, \"edits\": %d, \"mismatches\": %d, \
       \"verdict_flips\": %d, \"labels_computed\": %d, \"labels_reused\": \
       %d, \"full_rebuilds\": %d}"
      report.I.Oracle.sequences report.I.Oracle.edits
      (List.length report.I.Oracle.mismatches)
      report.I.Oracle.verdict_flips report.I.Oracle.computed
      report.I.Oracle.reused report.I.Oracle.full_rebuilds
  in
  let json =
    "{\n  \"experiment\": \"E21\",\n  \"kernel\": \"Election.Incremental + \
     Radio_faults.Churn\",\n  \"churn\": [\n"
    ^ String.concat ",\n" churn_rows
    ^ "\n  ],\n  \"speedup\": [\n"
    ^ String.concat ",\n" speedup_rows
    ^ "\n  ],\n  \"oracle\":\n" ^ oracle_json ^ "\n}\n"
  in
  Out_channel.with_open_text "BENCH_churn.json" (fun oc ->
      output_string oc json);
  print_endline
    "wrote BENCH_churn.json\n\
     The series is a pure function of (schedule, seed): `make churn-smoke`\n\
     asserts the file is byte-identical at --jobs 1 and 2.  Wall-clock\n\
     medians above are the physical check that a single-edit incremental\n\
     re-classification beats the from-scratch classifier at n >= 64."

(* ------------------------------------------------------------------ *)
(* E22 - lib/serve: request service, cold vs warm cache                *)
(* ------------------------------------------------------------------ *)

let e22 ?(quick = false) ?(jobs = 2) () =
  section "E22  Serve: batched request service, cold vs warm cache";
  let module Server = Radio_serve.Server in
  let module Service = Radio_serve.Service in
  let module Json = Radio_serve.Json in
  let module Pool = Radio_exec.Pool in
  let timed_k = if quick then 1 else 3 in
  (* One classify stream per row: [variants] label-rotated copies of the
     config (isomorphic, so below the iso bound they share one cache
     entry), each requested [reps] times, interleaved.  Request lines are
     built with the serve JSON printer, so the stream is exactly what a
     client would send over --stdio. *)
  let rotate config k =
    let n = C.size config in
    C.relabel config (Array.init n (fun v -> (v + k) mod n))
  in
  let stream_of config ~variants ~reps =
    let lines = ref [] in
    let id = ref 0 in
    for _ = 1 to reps do
      for k = 0 to variants - 1 do
        incr id;
        lines :=
          Json.to_string
            (Json.Obj
               [
                 ("id", Json.Int !id);
                 ("kind", Json.Str "classify");
                 ("config", Json.Str (Radio_config.Config_io.to_string (rotate config k)));
               ])
          :: !lines
      done
    done;
    String.concat "\n" (List.rev !lines) ^ "\n"
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Classify request streams through Service.process_wave (jobs %d, \
            median CPU s of %d)"
           jobs timed_k)
      ~columns:
        [
          "stream";
          "n";
          "requests";
          "variants";
          "cold req/s";
          "warm req/s";
          "speedup";
          "hit rate";
          "bytes equal";
        ]
  in
  let json_rows = ref [] in
  let st = Workloads.state () in
  let small_reps = if quick then 4 else 16 in
  let big_reps = if quick then 4 else 12 in
  let rows =
    (* The small rows exercise isomorphism sharing (n <= iso bound, the
       rotations collapse onto one entry; the hit-rate column is their
       point).  The large rows are the throughput headline: n > 8 dedups
       on the raw key only, and a hit buys back an O(n^3) classifier run
       that dwarfs the O(n) request parse. *)
    [
      ("h2", F.h_family 2, 4, small_reps);
      ("cycle6", C.uniform (Radio_graph.Gen.cycle 6) 0, 6, small_reps);
      ("path128", Workloads.path_config st 128, 1, big_reps);
    ]
    @
    if quick then []
    else
      [
        ("path256", Workloads.path_config st 256, 1, big_reps);
        ("path512", Workloads.path_config st 512, 1, 6);
      ]
  in
  let pool = Pool.create ~jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (name, config, variants, reps) ->
          let input = stream_of config ~variants ~reps in
          let requests = reps * variants in
          (* Both runs use waves of one request, so wave-local sharing is
             out of the picture and the cold/warm difference is exactly
             the cache: cold analyzes every request, warm hits on every
             resolution after the fill pass. *)
          let opts cache =
            {
              Server.default_options with
              jobs = Some jobs;
              cache_entries = cache;
              max_batch = 1;
            }
          in
          (* Cold: cache disabled, every request runs the classifier. *)
          let cold_out = Server.run_string ~pool (opts 0) input in
          let t_cold =
            Sweep.repeat_timed timed_k (fun () ->
                ignore (Server.run_string ~pool (opts 0) input))
          in
          (* Warm: one persistent service; the first pass fills the cache,
             the timed replays hit on every resolution. *)
          let service = Service.create ~cache_entries:256 in
          let warm_out = Server.run_string ~service ~pool (opts 256) input in
          let t_warm =
            Sweep.repeat_timed timed_k (fun () ->
                ignore (Server.run_string ~service ~pool (opts 256) input))
          in
          let replay_out = Server.run_string ~service ~pool (opts 256) input in
          (* The headline invariant, measured not assumed: cold, warm and
             a different jobs level all render the same bytes. *)
          let other_jobs_out =
            Pool.with_pool ~jobs:1 (fun p1 ->
                Server.run_string ~pool:p1
                  { (opts 256) with jobs = Some 1 }
                  input)
          in
          let equal =
            String.equal cold_out warm_out
            && String.equal cold_out replay_out
            && String.equal cold_out other_jobs_out
          in
          let telemetry = Service.telemetry service in
          let hit_rate = Service.hit_rate telemetry in
          let rps t = float_of_int requests /. Float.max t 1e-9 in
          let speedup = rps t_warm /. Float.max (rps t_cold) 1e-9 in
          json_rows :=
            Printf.sprintf
              "    {\"name\": %S, \"n\": %d, \"requests\": %d, \"variants\": \
               %d, \"jobs\": %d, \"cold_seconds\": %.6f, \"cold_rps\": %.1f, \
               \"warm_seconds\": %.6f, \"warm_rps\": %.1f, \"speedup\": \
               %.2f, \"hit_rate\": %.4f, \"byte_identical\": %b}"
              name (C.size config) requests variants jobs t_cold (rps t_cold)
              t_warm (rps t_warm) speedup hit_rate equal
            :: !json_rows;
          Table.add_row table
            [
              name;
              string_of_int (C.size config);
              string_of_int requests;
              string_of_int variants;
              Printf.sprintf "%.0f" (rps t_cold);
              Printf.sprintf "%.0f" (rps t_warm);
              Printf.sprintf "%.1fx" speedup;
              Printf.sprintf "%.1f%%" (100.0 *. hit_rate);
              string_of_bool equal;
            ])
        rows);
  Table.print table;
  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"E22\",\n\
      \  \"kernel\": \"Radio_serve.Service.process_wave\",\n\
      \  \"host_cores\": %d,\n\
      \  \"workloads\": [\n"
      (Domain.recommended_domain_count ())
    ^ String.concat ",\n" (List.rev !json_rows)
    ^ "\n  ]\n}\n"
  in
  Out_channel.with_open_text "BENCH_serve.json" (fun oc ->
      output_string oc json);
  print_endline
    "wrote BENCH_serve.json\n\
     Below the iso bound (n <= 8) the label-rotated variants of a row\n\
     share one cache entry via the canonical key; above it the raw key\n\
     still dedups byte-identical requests.  Small rows are parse-bound\n\
     (a classify there costs less than reading the request), so their\n\
     column of interest is the hit rate; the path rows are the throughput\n\
     claim, warm >= 5x cold.  The bytes-equal column is the serve\n\
     determinism contract checked end to end: cold, warm, replayed and\n\
     jobs-1 streams all rendered identical responses."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one group per experiment kernel          *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let st = Workloads.state () in
  let path64 = Workloads.path_config st 64 in
  let clique64 = Workloads.clique_config st 64 in
  let gnp64 = Workloads.gnp_config st 64 in
  let g8 = F.g_family 8 in
  let h64 = F.h_family 64 in
  let plan_g8 = Can.plan_of_run (Cl.classify g8) in
  let plan_h64 = Can.plan_of_run (Cl.classify h64) in
  let candidate =
    Option.get (Fe.dedicated_election (Fe.analyze (F.h_family 2)))
  in
  [
    (* E1: classifier kernels *)
    Test.make ~name:"E1/classifier-ref/path64"
      (Staged.stage (fun () -> ignore (Cl.classify path64)));
    Test.make ~name:"E1/classifier-ref/clique64"
      (Staged.stage (fun () -> ignore (Cl.classify clique64)));
    Test.make ~name:"E1/classifier-ref/gnp64"
      (Staged.stage (fun () -> ignore (Cl.classify gnp64)));
    (* E8: fast classifier kernels *)
    Test.make ~name:"E8/classifier-fast/path64"
      (Staged.stage (fun () -> ignore (Fast.classify path64)));
    Test.make ~name:"E8/classifier-fast/clique64"
      (Staged.stage (fun () -> ignore (Fast.classify clique64)));
    Test.make ~name:"E8/classifier-fast/gnp64"
      (Staged.stage (fun () -> ignore (Fast.classify gnp64)));
    (* E2/E3: full dedicated-election simulations *)
    Test.make ~name:"E3/simulate-canonical/G8"
      (Staged.stage (fun () ->
           ignore (Engine.run ~max_rounds:10_000_000 (Can.protocol plan_g8) g8)));
    (* E4: sigma-dominated simulation *)
    Test.make ~name:"E4/simulate-canonical/H64"
      (Staged.stage (fun () ->
           ignore
             (Engine.run ~max_rounds:10_000_000 (Can.protocol plan_h64) h64)));
    (* E5: the adversary pipeline *)
    Test.make ~name:"E5/refute-universal/dedicated-H2"
      (Staged.stage (fun () ->
           ignore (Imp.refute_universal ~max_rounds:5_000_000 candidate)));
    (* E11: census kernel *)
    Test.make ~name:"E11/census/n4-span1"
      (Staged.stage (fun () ->
           ignore (Election.Census.run ~max_n:4 ~max_span:1 ())));
    (* E12: constant-round dedicated election *)
    Test.make ~name:"E12/min-beacon/staircase32"
      (let cfg = F.staircase_clique 32 in
       Staged.stage (fun () ->
           ignore (Runner.run Election.Min_beacon.election cfg)));
    (* E18: fault layer kernels *)
    Test.make ~name:"E18/faulty-engine-planned/H64"
      (let plan =
         Radio_sim.Fault_plan.sample ~seed:Workloads.seed ~crashes:2
           ~drops:8 ~noise:8 ~horizon:600 h64
       in
       Staged.stage (fun () ->
           ignore
             (Engine.run_plan ~max_rounds:10_000_000 plan
                (Can.protocol plan_h64) h64)));
    (* E9: randomized baseline *)
    Test.make ~name:"E9/randomized-election/n32"
      (let rng = Random.State.make [| 1 |] in
       let cfg32 = C.uniform (Gen.complete 32) 0 in
       Staged.stage (fun () ->
           ignore
             (Runner.run ~max_rounds:1_000_000
                (Radio_baselines.Randomized.election ~rng)
                cfg32)));
  ]

let run_bechamel () =
  section "Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let table =
    Table.create ~title:"time per run (OLS on monotonic clock)"
      ~columns:[ "benchmark"; "time per run" ]
  in
  let rows = ref [] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | _ -> nan
          in
          let pretty =
            if Float.is_nan estimate then "n/a"
            else if estimate > 1e9 then Printf.sprintf "%.2f s" (estimate /. 1e9)
            else if estimate > 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
            else if estimate > 1e3 then Printf.sprintf "%.2f us" (estimate /. 1e3)
            else Printf.sprintf "%.0f ns" estimate
          in
          rows := (name, pretty) :: !rows)
        results)
    (bechamel_tests ());
  List.iter
    (fun (name, pretty) -> Table.add_row table [ name; pretty ])
    (List.sort compare !rows);
  Table.print table

let () =
  (* `dune exec bench/main.exe -- mc` regenerates only the E19 model-checker
     series (and BENCH_mc.json) — the workload `make mc-smoke` depends on. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "mc" then begin
    e19 ();
    exit 0
  end;
  (* `dune exec bench/main.exe -- par [--quick]` regenerates only the E20
     domain-pool series (and BENCH_parallel.json); --quick shrinks the
     workloads for `make par-smoke` and the test suite. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "par" then begin
    e20 ~quick:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--quick") ();
    exit 0
  end;
  (* `dune exec bench/main.exe -- churn [--quick] [--jobs N]` regenerates
     only the E21 churn series (and BENCH_churn.json).  The JSON carries
     deterministic quantities only, so `make churn-smoke` can assert it is
     byte-identical at --jobs 1 and 2. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "churn" then begin
    let quick = ref false and jobs = ref 2 in
    let i = ref 2 in
    while !i < Array.length Sys.argv do
      (match Sys.argv.(!i) with
      | "--quick" -> quick := true
      | "--jobs" when !i + 1 < Array.length Sys.argv ->
          incr i;
          jobs := int_of_string Sys.argv.(!i)
      | a -> failwith ("bench churn: unknown argument " ^ a));
      incr i
    done;
    e21 ~quick:!quick ~jobs:!jobs ();
    exit 0
  end;
  (* `dune exec bench/main.exe -- serve [--quick] [--jobs N]` regenerates
     only the E22 serve series (and BENCH_serve.json) — the workload
     `make serve-smoke` and the acceptance gate (warm >= 5x cold classify
     throughput) depend on. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "serve" then begin
    let quick = ref false and jobs = ref 2 in
    let i = ref 2 in
    while !i < Array.length Sys.argv do
      (match Sys.argv.(!i) with
      | "--quick" -> quick := true
      | "--jobs" when !i + 1 < Array.length Sys.argv ->
          incr i;
          jobs := int_of_string Sys.argv.(!i)
      | a -> failwith ("bench serve: unknown argument " ^ a));
      incr i
    done;
    e22 ~quick:!quick ~jobs:!jobs ();
    exit 0
  end;
  print_endline
    "anorad benchmark harness - reproduces the evaluation of Miller, Pelc,\n\
     Yadav: 'Deterministic Leader Election in Anonymous Radio Networks'\n\
     (SPAA 2020).  Experiment ids E1-E22 are indexed in DESIGN.md; measured\n\
     vs paper-claimed results are recorded in EXPERIMENTS.md.";
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  e18 ();
  e19 ();
  e20 ();
  e21 ();
  e22 ();
  run_bechamel ();
  print_endline "\nDone.  All series regenerated."
