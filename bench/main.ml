(* The benchmark harness: regenerates every experiment E1-E22 of DESIGN.md
   (the paper's theorems and propositions turned into measurements) and
   writes the BENCH_*.json series of E2 and E19-E22.

   Run with: dune exec bench/main.exe -- [--quick] [--jobs N] [SUITE ...]
   where SUITE is e1 ... e22 or an alias (mc = e19, par = e20, churn = e21,
   serve = e22); no SUITE runs every suite.  (Results are recorded against
   the paper's claims in EXPERIMENTS.md.) *)

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

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* The one clock: wall-clock seconds per call of [f].  The batch doubles
   until one batch spans 20 ms, so that the small rows measure the code and
   not the clock; then five batches of that size are timed, and the median
   and interquartile range of their per-call times are returned. *)
type timing = { median : float; iqr : float }

let time f =
  let batch k =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (f ()))
    done;
    Unix.gettimeofday () -. t0
  in
  let rec size k = if batch k >= 0.02 then k else size (2 * k) in
  let k = size 1 in
  let s = Array.init 5 (fun _ -> batch k /. float_of_int k) in
  Array.sort Float.compare s;
  { median = s.(2); iqr = s.(3) -. s.(1) }

let ms t = Table.cell_float ~decimals:3 (1000.0 *. t.median)

(* The one BENCH writer: every BENCH_*.json is a header naming the
   experiment, its kernel and the host's core count, then named sections
   of rows, one row per line.  A row is a list of (field, JSON text)
   pairs; a timing field gets an [_iqr] sibling. *)
let j_str = Printf.sprintf "%S"
let j_num decimals x = Printf.sprintf "%.*f" decimals x
let j_time name t = [ (name, j_num 6 t.median); (name ^ "_iqr", j_num 6 t.iqr) ]

let write_bench file ~experiment ~kernel sections =
  let row fields =
    "    {"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}"
  in
  let section (name, rows) =
    Printf.sprintf "  %S: [\n%s\n  ]" name
      (String.concat ",\n" (List.map row rows))
  in
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc
        "{\n  \"experiment\": %S,\n  \"kernel\": %S,\n  \"host_cores\": %d,\n%s\n}\n"
        experiment kernel
        (Domain.recommended_domain_count ())
        (String.concat ",\n" (List.map section sections)));
  Printf.printf "wrote %s\n" file

(* ------------------------------------------------------------------ *)
(* E1 - Theorem 3.17: Classifier decides feasibility in O(n^3 Δ)       *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1  Classifier runtime and verdicts (Theorem 3.17)";
  let table =
    Table.create ~title:"Classifier on graph families (wall ms per call)"
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
          let t_ref = time (fun () -> Cl.classify config) in
          let t_fast = time (fun () -> Fast.classify config) in
          let run = Cl.classify config in
          if name = "path" then
            slope_points :=
              (float_of_int n, Float.max t_ref.median 1e-6) :: !slope_points;
          Table.add_row table
            [
              name;
              string_of_int n;
              string_of_int (C.max_degree config);
              (if Cl.is_feasible run then "feasible" else "infeasible");
              string_of_int (Cl.num_iterations run);
              ms t_ref;
              ms t_fast;
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

let e2 ~quick =
  section "E2  Dedicated election time (Theorem 3.15, O(n^2 sigma))";
  let table =
    Table.create
      ~title:
        "Election rounds vs n and sigma (random feasible G(n,p), paths and \
         trees, G_m), the engine's cost per node-round, and the same \
         outcome read off the classifier run"
      ~columns:
        [
          "config"; "n"; "sigma"; "rounds (global)"; "schedule r_T+1";
          "O(n^2 sigma) budget"; "node-rounds"; "tx"; "engine ms";
          "ns/node-round"; "words/node-round"; "outcome us";
        ]
  in
  let json_rows = ref [] in
  let st = Workloads.state () in
  let row name config =
    let n = C.size config in
    let sigma = C.span config in
    let a = Fe.analyze config in
    match Fe.verify_by_simulation ~max_rounds:50_000_000 a with
    | Some r when Runner.elects_unique_leader r ->
        (* The engine alone: node-rounds = n x global rounds simulated. *)
        let proto = Can.protocol a.Fe.plan in
        let run () = Engine.run ~max_rounds:50_000_000 proto config in
        let o = run () in
        let node_rounds = n * o.Engine.rounds in
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (run ()));
        let words = Gc.minor_words () -. w0 in
        let t = time run in
        let t_outcome =
          time (fun () ->
              Can.outcome a.Fe.run a.Fe.plan ~hi:(C.max_tag config))
        in
        let per x = x /. float_of_int (max 1 node_rounds) in
        let m = o.Engine.metrics in
        Table.add_row table
          [
            name;
            string_of_int n;
            string_of_int sigma;
            string_of_int (Option.get r.Runner.rounds_to_elect);
            string_of_int a.Fe.election_local_rounds;
            string_of_int (Can.upper_bound_rounds ~n ~sigma);
            string_of_int node_rounds;
            string_of_int m.Radio_sim.Metrics.transmissions;
            ms t;
            Table.cell_float ~decimals:1 (per (t.median *. 1e9));
            Table.cell_float ~decimals:2 (per words);
            Table.cell_float ~decimals:1 (1e6 *. t_outcome.median);
          ];
        json_rows :=
          ([
             ("family", j_str name);
             ("n", string_of_int n);
             ("sigma", string_of_int sigma);
             ("rounds", string_of_int o.Engine.rounds);
             ("node_rounds", string_of_int node_rounds);
             ("transmissions", string_of_int m.Radio_sim.Metrics.transmissions);
             ("deliveries", string_of_int m.Radio_sim.Metrics.deliveries);
           ]
          @ j_time "engine_ms"
              { median = 1000.0 *. t.median; iqr = 1000.0 *. t.iqr }
          @ [
              ("ns_per_node_round", j_num 2 (per (t.median *. 1e9)));
              ("words_per_node_round", j_num 3 (per words));
            ]
          @ j_time "outcome_us"
              { median = 1e6 *. t_outcome.median; iqr = 1e6 *. t_outcome.iqr })
          :: !json_rows
    | _ ->
        Table.add_row table
          (name :: string_of_int n :: List.init 10 (fun _ -> "-"))
  in
  let small (n, _) = (not quick) || n <= 64 in
  List.iter
    (fun (n, span) -> row "G(n,p)" (Workloads.feasible_gnp st ~n ~p:0.2 ~span))
    (List.filter small
       [ (8, 2); (16, 2); (32, 2); (8, 8); (16, 8); (32, 8); (64, 4) ]);
  (* serve-distinct's path and tree families *)
  let sizes =
    List.filter small
      (List.concat_map
         (fun n -> List.map (fun span -> (n, span)) [ 1; 2; 3 ])
         [ 64; 128; 256 ])
  in
  List.iter
    (fun (n, span) ->
      row "path" (Workloads.feasible (fun () -> RC.random_path st ~n ~span)))
    sizes;
  List.iter
    (fun (n, span) ->
      row "tree" (Workloads.feasible (fun () -> RC.random_tree st ~n ~span)))
    sizes;
  List.iter
    (fun m -> row (Printf.sprintf "G_%d" m) (F.g_family m))
    (if quick then [ 8 ] else [ 8; 16; 32; 64 ]);
  Table.print table;
  write_bench "BENCH_elect.json" ~experiment:"E2" ~kernel:"Radio_sim.Engine.run"
    [ ("rows", List.rev !json_rows) ];
  Printf.printf
    "Measured rounds must stay below the explicit O(n^2 sigma) budget and\n\
     typically sit far below it (few refinement iterations needed on G(n,p);\n\
     G_m needs m of them).  The engine visits a node only when it decides,\n\
     hears something or wakes, so its cost per node-round falls as the\n\
     phases, and the quiet stretches between transmissions, grow.  The\n\
     outcome column is Canonical.outcome: the same metrics and election\n\
     round read off the classifier run (Lemma 3.9), with no simulation.\n"

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
            (fun h -> H.length h > 0 && H.equal_entry (H.get h 0) H.Silence);
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

let e8 () =
  section "E8  Fast classifier vs literal implementation (open problem 1)";
  let module I = Election.Incremental in
  let table =
    Table.create
      ~title:
        "Classifier paths, identical outputs (wall ms per call; labels \
         built; minor words allocated per call, kernel rows; doubling = \
         time at this n / time at the previous row's n)"
      ~columns:
        [
          "workload"; "n"; "impl"; "iters"; "ms"; "labels"; "words";
          "doubling";
        ]
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
        let call () =
          match impl with
          | `Literal -> ignore (Cl.classify config)
          | `Fast -> ignore (Fast.classify config)
          | `Incremental -> ignore (I.run (I.init config))
        in
        let t = time call in
        (* Deterministic: the same calls allocate the same words, whatever
           the host's load or core count. *)
        let words =
          match impl with
          | `Literal -> "-"
          | `Fast | `Incremental ->
              let w0 = Gc.minor_words () in
              call ();
              Printf.sprintf "%.0f" (Gc.minor_words () -. w0)
        in
        let doubling =
          match !prev with
          | Some (n0, t0) when n >= 2 * n0 - 2 ->
              Table.cell_float ~decimals:1 (t.median /. Float.max t0 1e-9)
          | Some _ | None -> "-"
        in
        prev := Some (n, t.median);
        Table.add_row table
          [
            workload;
            string_of_int n;
            (match impl with
            | `Literal -> "literal"
            | `Fast -> "fast"
            | `Incremental -> "incremental");
            string_of_int (Cl.num_iterations run);
            ms t;
            string_of_int labels;
            words;
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
     every iteration still refines and records all n nodes.  Words are\n\
     the minor-heap words one call allocates (arrays over 256 words go\n\
     to the major heap and are not counted): a kernel allocation\n\
     regression shows there on any host.\n"

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
  (* Certificate coverage over the n = 4 cells of the small universe. *)
  let infeasible = ref 0 in
  let certified = ref 0 in
  let unsound = ref 0 in
  List.iter
    (fun (n, _, configs) ->
      if n = 4 then
        List.iter
          (fun config ->
            let cert = Election.Symmetry.certified_infeasible config in
            let feas = Cl.is_feasible (Cl.classify config) in
            if not feas then incr infeasible;
            if cert then begin
              incr certified;
              if feas then incr unsound
            end)
          configs)
    (Election.Census.universe ~max_n:4 ~max_span:2);
  Printf.printf
    "symmetry certificates over the n = 4 configurations (span<=2):\n\
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
    | Radio_mc.Optimal.Broken_at r -> string_of_int r
    | Radio_mc.Optimal.Never -> "never"
    | Radio_mc.Optimal.Not_within_horizon -> ">horizon"
    | Radio_mc.Optimal.Search_budget_exhausted -> "budget"
  in
  List.iter
    (fun (name, bound, config) ->
      let opt = Radio_mc.Optimal.breaking_time config in
      let sep = Radio_mc.Optimal.canonical_breaking_time config in
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
        time (fun () ->
            Engine.run ~max_rounds:10_000_000 election.Runner.protocol config)
      in
      let t_faulty =
        time (fun () ->
            Engine.run_plan ~max_rounds:10_000_000 plan
              election.Runner.protocol config)
      in
      Table.add_row table
        [
          string_of_int n;
          string_of_int (List.length plan);
          string_of_int (List.length fo.Engine.ledger);
          string_of_int fo.Engine.base.Engine.rounds;
          Table.cell_bool
            (Option.is_some (Engine.elected election.Runner.decision fo));
          ms t_bare;
          ms t_faulty;
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
    let rate =
      float_of_int s.Checker.states_explored /. Float.max t.median 1e-9
    in
    json_rows :=
      ([
         ("name", j_str name);
         ("n", string_of_int n);
         ("faults", string_of_int 1);
         ("depth", string_of_int depth);
         ("state_cap", string_of_int states);
         ("jobs", string_of_int jobs);
         ("automorphisms", string_of_int s.Checker.automorphisms);
         ("states_explored", string_of_int s.Checker.states_explored);
         ("states_raw", string_of_int s.Checker.states_raw);
         ("peak_frontier", string_of_int s.Checker.peak_frontier);
         ("canonicalizations", string_of_int s.Checker.canonicalizations);
         ("peak_visited_bytes", string_of_int s.Checker.visited_bytes);
         ("conclusive", string_of_bool conclusive);
       ]
      @ j_time "seconds" t
      @ [
          ("states_per_sec", j_num 1 rate);
          ("states_no_reduction", string_of_int full_states);
          ("reduction_saving", j_num 4 saved);
        ])
      :: !json_rows;
    rate
  in
  List.iter
    (fun (name, depth, config) ->
      let run ?pool ~reduction () =
        Checker.explore ~depth ~states ~reduction ~faults:1 ?pool config
      in
      let reduced = run ~reduction:true () in
      let t = time (fun () -> run ~reduction:true ()) in
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
                let tp = time (fun () -> run ~pool ~reduction:true ()) in
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
  write_bench "BENCH_mc.json" ~experiment:"E19"
    ~kernel:"Radio_mc.Checker.explore"
    [ ("workloads", List.rev !json_rows) ];
  Printf.printf
    "On uniform cycles every tag-preserving rotation/reflection survives,\n\
     so the quotient collapses the crash adversary's choice of victim -\n\
     the reduction column is the visited-set saving it buys.  Conclusive\n\
     rows verified canonicalizations = states_raw + 1 (one quotient map\n\
     per successor); parallel rows verified bit-identical to jobs 1.\n"

(* ------------------------------------------------------------------ *)
(* E20 - lib/exec: domain-pool sweeps, sequential vs parallel          *)
(* ------------------------------------------------------------------ *)

let e20 ~quick ~jobs =
  section "E20  Domain pool: sequential vs parallel sweeps (lib/exec)";
  let module Pool = Radio_exec.Pool in
  let jobs = Option.value jobs ~default:(if quick then 2 else 4) in
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
            Radio_mc.Optimal.breaking_time ?pool ~horizon (F.h_family 2)
          with
          | Radio_mc.Optimal.Broken_at r -> Printf.sprintf "broken@%d" r
          | Radio_mc.Optimal.Never -> "never"
          | Radio_mc.Optimal.Not_within_horizon -> "not-within-horizon"
          | Radio_mc.Optimal.Search_budget_exhausted -> "budget-exhausted" );
    ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "sequential vs %d-worker pool (wall-clock s per run)"
           jobs)
      ~columns:[ "workload"; "seq s"; "par s"; "speedup"; "equal" ]
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
          let seq_s = time (fun () -> work None) in
          let par_s = time (fun () -> work (Some pool)) in
          let speedup = seq_s.median /. Float.max par_s.median 1e-9 in
          Table.add_row table
            [
              name;
              Printf.sprintf "%.3f" seq_s.median;
              Printf.sprintf "%.3f" par_s.median;
              Printf.sprintf "%.2fx" speedup;
              Table.cell_bool equal;
            ];
          json_rows :=
            ([ ("workload", j_str name); ("jobs", string_of_int jobs) ]
            @ j_time "seq_s" seq_s @ j_time "par_s" par_s
            @ [ ("speedup", j_num 4 speedup); ("equal", string_of_bool equal) ])
            :: !json_rows)
        workloads;
      Table.print table;
      Format.printf "pool telemetry: %a@." Pool.pp_stats (Pool.stats pool));
  write_bench "BENCH_parallel.json" ~experiment:"E20" ~kernel:"Radio_exec.Pool"
    [ ("workloads", List.rev !json_rows) ];
  Printf.printf
    "The equal column is the determinism contract: a pooled sweep renders\n\
     byte-for-byte the sequential report.  Speedups track the machine's\n\
     core count - on a single-core container par ~ seq plus scheduling\n\
     overhead, and that honest number is recorded as-is.\n"

(* ------------------------------------------------------------------ *)
(* E21 - Churn: incremental re-classification + supervised            *)
(* re-election under link/node flaps                                   *)
(* ------------------------------------------------------------------ *)

let e21 ~quick ~jobs =
  section "E21  Churn: incremental re-classification + re-election";
  let jobs = Option.value jobs ~default:2 in
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
        [
          ("n", string_of_int n);
          ("horizon", string_of_int horizon);
          ("events", string_of_int (List.length plan));
          ("epochs", string_of_int (List.length r.Ch.epochs));
          ("availability", j_num 4 r.Ch.availability);
          ("re_elections", string_of_int r.Ch.re_elections);
          ("election_rounds", string_of_int r.Ch.total_election_rounds);
          ("attempt_sequence", j_str attempt_seq);
          ("edits", string_of_int st.I.edits);
          ("labels_computed", string_of_int st.I.computed);
          ("labels_reused", string_of_int st.I.reused);
          ("full_rebuilds", string_of_int st.I.full_rebuilds);
          ("elected", string_of_bool (r.Ch.final_leader <> None));
        ])
      churn_sizes
  in
  Table.print churn_table;
  (* 2. Single-edit re-classification vs from-scratch at n >= 64.  The
     JSON speedup column is the deterministic label-cost ratio: the labels
     the kernel builds classifying the edited configuration from scratch
     over the labels the incremental path rebuilds (the dirty ball).
     Wall-clock medians are printed for the physical check but kept out of
     the replayable series. *)
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
        let edited =
          match I.current st1 with
          | Some c -> c
          | None -> failwith "e21: no induced configuration"
        in
        let scratch_cost = (snd (Fast.kernel edited)).Fast.computed in
        let incr_cost = max 1 d.I.labels_computed in
        let speedup = float_of_int scratch_cost /. float_of_int incr_cost in
        let scratch_s = time (fun () -> Fast.classify edited) in
        let incr_s = time (fun () -> I.apply st0 edit) in
        Table.add_row speedup_table
          [
            string_of_int n;
            string_of_int iters;
            string_of_int scratch_cost;
            string_of_int d.I.labels_computed;
            Printf.sprintf "%.1fx" speedup;
            ms scratch_s;
            ms incr_s;
            Printf.sprintf "%.1fx"
              (scratch_s.median /. Float.max incr_s.median 1e-9);
          ];
        [
          ("n", string_of_int n);
          ("iterations", string_of_int iters);
          ("scratch_label_cost", string_of_int scratch_cost);
          ("incremental_label_cost", string_of_int d.I.labels_computed);
          ("labels_reused", string_of_int d.I.labels_reused);
          ("speedup", j_num 2 speedup);
          ("unit", j_str "labels");
        ])
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
  let oracle_row =
    [
      ("sequences", string_of_int report.I.Oracle.sequences);
      ("edits", string_of_int report.I.Oracle.edits);
      ("mismatches", string_of_int (List.length report.I.Oracle.mismatches));
      ("verdict_flips", string_of_int report.I.Oracle.verdict_flips);
      ("labels_computed", string_of_int report.I.Oracle.computed);
      ("labels_reused", string_of_int report.I.Oracle.reused);
      ("full_rebuilds", string_of_int report.I.Oracle.full_rebuilds);
    ]
  in
  write_bench "BENCH_churn.json" ~experiment:"E21"
    ~kernel:"Election.Incremental + Radio_faults.Churn"
    [
      ("churn", churn_rows);
      ("speedup", speedup_rows);
      ("oracle", [ oracle_row ]);
    ];
  print_endline
    "The series is a pure function of (schedule, seed): `make churn-smoke`\n\
     asserts the file is byte-identical at --jobs 1 and 2.  Wall-clock\n\
     medians above time a single-edit incremental re-classification\n\
     against the from-scratch kernel on the edited configuration."

(* ------------------------------------------------------------------ *)
(* E22 - lib/serve: request service, cold vs warm cache                *)
(* ------------------------------------------------------------------ *)

let e22 ~quick ~jobs =
  section "E22  Serve: batched request service, cold vs warm cache";
  let jobs = Option.value jobs ~default:2 in
  let module Server = Radio_serve.Server in
  let module Service = Radio_serve.Service in
  let module Json = Radio_serve.Json in
  let module Pool = Radio_exec.Pool in
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
            wall clock)"
           jobs)
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
       point).  The large rows price a hit: n > 8 dedups on the raw key
       only, and a hit buys back the classifier run and the response
       render, not the request parse. *)
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
          let t_cold = time (fun () -> Server.run_string ~pool (opts 0) input) in
          (* Warm: one persistent service; the first pass fills the cache,
             the timed replays hit on every resolution. *)
          let service = Service.create ~cache_entries:256 in
          let warm_out = Server.run_string ~service ~pool (opts 256) input in
          let replay_out = Server.run_string ~service ~pool (opts 256) input in
          (* The hit rate of the fill pass and one replay, read before the
             timed replays so that it does not depend on how many ran. *)
          let hit_rate = Service.hit_rate (Service.telemetry service) in
          let t_warm =
            time (fun () -> Server.run_string ~service ~pool (opts 256) input)
          in
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
          let rps t = float_of_int requests /. Float.max t.median 1e-9 in
          let speedup = rps t_warm /. Float.max (rps t_cold) 1e-9 in
          json_rows :=
            ([
               ("name", j_str name);
               ("n", string_of_int (C.size config));
               ("requests", string_of_int requests);
               ("variants", string_of_int variants);
               ("jobs", string_of_int jobs);
             ]
            @ j_time "cold_seconds" t_cold
            @ [ ("cold_rps", j_num 1 (rps t_cold)) ]
            @ j_time "warm_seconds" t_warm
            @ [
                ("warm_rps", j_num 1 (rps t_warm));
                ("speedup", j_num 2 speedup);
                ("hit_rate", j_num 4 hit_rate);
                ("byte_identical", string_of_bool equal);
              ])
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
  write_bench "BENCH_serve.json" ~experiment:"E22"
    ~kernel:"Radio_serve.Service.process_wave"
    [ ("workloads", List.rev !json_rows) ];
  print_endline
    "Below the iso bound (n <= 8) the label-rotated variants of a row\n\
     share one cache entry via the canonical key; above it the raw key\n\
     still dedups byte-identical requests.  Small rows are parse-bound\n\
     (a classify there costs less than reading the request), so their\n\
     column of interest is the hit rate; the path rows show what a hit\n\
     saves once the classifier is a share of the request, not all of\n\
     it.  The bytes-equal column is the serve determinism contract\n\
     checked end to end: cold, warm, replayed and jobs-1 streams all\n\
     rendered identical responses."

(* ------------------------------------------------------------------ *)
(* Command line: [--quick] [--jobs N] [SUITE ...]                     *)
(* ------------------------------------------------------------------ *)

(* Every suite in run order.  --quick shrinks E2 and E20-E22 for the
   smokes and the test suite; --jobs sets the pool size of E20-E22 (E20
   defaults to 4 workers, 2 under --quick; E21 and E22 to 2). *)
let suites =
  let plain f ~quick:_ ~jobs:_ = f () in
  [
    ("e1", plain e1); ("e2", fun ~quick ~jobs:_ -> e2 ~quick);
    ("e3", plain e3); ("e4", plain e4);
    ("e5", plain e5); ("e6", plain e6); ("e7", plain e7); ("e8", plain e8);
    ("e9", plain e9); ("e10", plain e10); ("e11", plain e11);
    ("e12", plain e12); ("e13", plain e13); ("e14", plain e14);
    ("e15", plain e15); ("e16", plain e16); ("e17", plain e17);
    ("e18", plain e18); ("e19", plain e19); ("e20", e20); ("e21", e21);
    ("e22", e22);
  ]

let aliases = [ ("mc", "e19"); ("par", "e20"); ("churn", "e21"); ("serve", "e22") ]

let () =
  let quick = ref false and jobs = ref None and chosen = ref [] in
  let usage =
    "usage: main.exe [--quick] [--jobs N] [SUITE ...]\n\
     SUITE is e1 ... e22, mc (= e19), par (= e20), churn (= e21) or serve\n\
     (= e22); no SUITE runs every suite.  Options:"
  in
  let specs =
    [
      ( "--quick",
        Arg.Set quick,
        " smaller E2 and E20-E22 workloads (smoke runs)" );
      ( "--jobs",
        Arg.Int
          (fun j ->
            if j < 1 then raise (Arg.Bad "--jobs: N must be >= 1");
            jobs := Some j),
        "N pool size for E20-E22" );
    ]
  in
  Arg.parse specs
    (fun arg ->
      let name = Option.value (List.assoc_opt arg aliases) ~default:arg in
      if not (List.mem_assoc name suites) then
        raise (Arg.Bad ("unknown suite " ^ arg));
      chosen := name :: !chosen)
    usage;
  if !chosen = [] then
    print_endline
      "anorad benchmark harness - reproduces the evaluation of Miller, Pelc,\n\
       Yadav: 'Deterministic Leader Election in Anonymous Radio Networks'\n\
       (SPAA 2020).  Experiment ids E1-E22 are indexed in DESIGN.md; measured\n\
       vs paper-claimed results are recorded in EXPERIMENTS.md.";
  List.iter
    (fun (name, run) ->
      if !chosen = [] || List.mem name !chosen then
        run ~quick:!quick ~jobs:!jobs)
    suites
