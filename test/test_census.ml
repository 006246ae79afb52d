(* Tests for graph enumeration, the exhaustive census (E11), the Min_beacon
   fast dedicated algorithm (E12) and the pure-DRIP transcription. *)

module C = Radio_config.Config
module F = Radio_config.Families
module G = Radio_graph.Graph
module Gen = Radio_graph.Gen
module E = Radio_graph.Enumerate
module H = Radio_drip.History
module Cl = Election.Classifier
module Can = Election.Canonical
module Census = Election.Census
module MB = Election.Min_beacon
module Engine = Radio_sim.Engine
module Runner = Radio_sim.Runner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)
(* ------------------------------------------------------------------ *)

let test_all_labelled_counts () =
  (* 2^(n(n-1)/2) labelled graphs. *)
  check_int "n=0" 1 (List.length (E.all_labelled 0));
  check_int "n=1" 1 (List.length (E.all_labelled 1));
  check_int "n=2" 2 (List.length (E.all_labelled 2));
  check_int "n=3" 8 (List.length (E.all_labelled 3));
  check_int "n=4" 64 (List.length (E.all_labelled 4))

let test_connected_labelled_counts () =
  (* OEIS A001187: 1, 1, 1, 4, 38, 728 connected labelled graphs. *)
  check_int "n=1" 1 (List.length (E.all_connected_labelled 1));
  check_int "n=2" 1 (List.length (E.all_connected_labelled 2));
  check_int "n=3" 4 (List.length (E.all_connected_labelled 3));
  check_int "n=4" 38 (List.length (E.all_connected_labelled 4));
  check_int "n=5" 728 (List.length (E.all_connected_labelled 5))

let test_iso_counts () =
  (* OEIS A001349: 1, 1, 2, 6, 21, 112 connected graphs up to isomorphism. *)
  check_int "n=1" 1 (E.count_up_to_iso 1);
  check_int "n=2" 1 (E.count_up_to_iso 2);
  check_int "n=3" 2 (E.count_up_to_iso 3);
  check_int "n=4" 6 (E.count_up_to_iso 4);
  check_int "n=5" 21 (E.count_up_to_iso 5);
  check_int "n=6" 112 (E.count_up_to_iso 6)

(* The canonical form (uniform colours unless given): the edge list of
   the relabelled graph, each pair ordered, sorted. *)
let form ?colours g =
  let n = G.size g in
  let colours = Option.value colours ~default:(Array.make n 0) in
  let perm = Radio_graph.Props.canonical_labelling ~colours g in
  List.sort compare
    (List.map
       (fun (u, v) -> (min perm.(u) perm.(v), max perm.(u) perm.(v)))
       (G.edges g))

let relabel g perm =
  G.of_edges (G.size g) (List.map (fun (u, v) -> (perm.(u), perm.(v))) (G.edges g))

let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let test_canonical_labelling () =
  (* The path 0-1-2 relabelled has the same form; the triangle doesn't. *)
  let p1 = G.of_edges 3 [ (0, 1); (1, 2) ] in
  let p2 = G.of_edges 3 [ (1, 0); (0, 2) ] in
  let tri = G.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  check "isomorphic paths" true (form p1 = form p2);
  check "path vs triangle" false (form p1 = form tri);
  (* Colours restrict the maps: the path's two ends may swap, the middle
     may not trade places with an end. *)
  check "coloured mirror" true
    (form ~colours:[| 1; 0; 0 |] p1 = form ~colours:[| 0; 0; 1 |] p1);
  check "colour on the middle" false
    (form ~colours:[| 1; 0; 0 |] p1 = form ~colours:[| 0; 1; 0 |] p1);
  (* Random relabellings of every connected graph on five vertices keep
     its form, and the class representatives have pairwise distinct
     forms. *)
  let rng = Random.State.make [| 5 |] in
  List.iter
    (fun g ->
      check "relabelled copy" true (form g = form (relabel g (shuffle rng 5))))
    (E.all_connected_labelled 5);
  List.iter
    (fun n ->
      let forms = List.map form (E.connected_up_to_iso n) in
      check_int "distinct forms" (List.length forms)
        (List.length (List.sort_uniq compare forms)))
    [ 4; 5; 6 ]

(* An independent deduplication, kept as an oracle: the lexicographically
   smallest upper-triangle adjacency string over all [n!] permutations. *)
module Oracle = struct
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y <> x) l in
            List.map (fun p -> x :: p) (permutations rest))
          l

  let canonical_key g =
    let n = G.size g in
    let pairs =
      List.concat
        (List.init n (fun u -> List.init (n - u - 1) (fun i -> (u, u + i + 1))))
    in
    let key_under perm =
      let perm = Array.of_list perm in
      String.concat ""
        (List.map
           (fun (u, v) -> if G.mem_edge g perm.(u) perm.(v) then "1" else "0")
           pairs)
    in
    List.fold_left
      (fun best p -> min best (key_under p))
      (key_under (List.init n Fun.id))
      (permutations (List.init n Fun.id))

  let connected_up_to_iso n =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun g ->
        let key = canonical_key g in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      (E.all_connected_labelled n)
end

let test_iso_matches_oracle () =
  List.iter
    (fun n ->
      let edges gs = List.map G.edges gs in
      check (Printf.sprintf "n=%d graph for graph" n) true
        (edges (E.connected_up_to_iso n) = edges (Oracle.connected_up_to_iso n)))
    [ 0; 1; 2; 3; 4; 5 ]

let test_enumerate_bounds () =
  try
    ignore (E.all_labelled 7);
    Alcotest.fail "n=7 accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Census                                                              *)
(* ------------------------------------------------------------------ *)

(* Spans 0..s together: the [(s+1)^n - s^n] vectors containing a 0. *)
let tags_up_to ~n ~max_span =
  List.concat_map
    (fun span -> Census.tag_assignments ~n ~span)
    (List.init (max_span + 1) Fun.id)

let test_tag_assignments () =
  check_int "n=2 span=1" 3 (List.length (tags_up_to ~n:2 ~max_span:1));
  check_int "n=3 span=2" 19 (List.length (tags_up_to ~n:3 ~max_span:2));
  List.iter
    (fun tags ->
      check "contains a zero" true (Array.exists (fun t -> t = 0) tags))
    (tags_up_to ~n:3 ~max_span:2)

(* The former cell builder, kept as an oracle: count in base (span + 1)
   and keep the vectors whose least value is 0 and largest is [span]. *)
let oracle_cell ~n ~span =
  let base = span + 1 in
  let count = int_of_float (float_of_int base ** float_of_int n) in
  List.filter_map
    (fun v ->
      let tags = Array.make n 0 in
      let x = ref v in
      for i = 0 to n - 1 do
        tags.(i) <- !x mod base;
        x := !x / base
      done;
      if Array.exists (fun t -> t = 0) tags && Array.fold_left max 0 tags = span
      then Some tags
      else None)
    (List.init count Fun.id)

let test_tag_assignments_oracle () =
  List.iter
    (fun n ->
      List.iter
        (fun span ->
          check
            (Printf.sprintf "n=%d span=%d" n span)
            true
            (oracle_cell ~n ~span = Census.tag_assignments ~n ~span))
        [ 0; 1; 2; 3; 4 ])
    [ 1; 2; 3; 4; 5; 6 ]

let test_universe_bound () =
  let refused max_n max_span =
    match Census.universe ~max_n ~max_span with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  (* (4, 100) holds 6 (101^4 - 100^4) + ... configurations; (6, 3) holds
     112 (4^6 - 3^6) = 377,104 at n = 6 alone *)
  check "(4, 100) refused" true (refused 4 100);
  check "(6, 3) refused" true (refused 6 3);
  check "(2, max_int) refused" true (refused 2 max_int);
  (* one configuration, but a cell per span *)
  check "(1, max_int) refused" true (refused 1 max_int);
  check "(1, 100_001) refused" true (refused 1 100_001);
  check_int "(5, 4) fits" 46_467
    (List.fold_left
       (fun acc (_, _, configs) -> acc + List.length configs)
       0
       (Census.universe ~max_n:5 ~max_span:4))

let test_universe_order () =
  (* One cell per (n, exact span), n outer; inside a cell the tag vectors
     in [tag_assignments] order, and for each the graphs in
     [connected_up_to_iso] order (the 3-path centred at 0, then the
     triangle). *)
  let u = Census.universe ~max_n:3 ~max_span:1 in
  Alcotest.(check (list (triple int int int)))
    "cells"
    [ (1, 0, 1); (1, 1, 0); (2, 0, 1); (2, 1, 2); (3, 0, 2); (3, 1, 12) ]
    (List.map (fun (n, span, configs) -> (n, span, List.length configs)) u);
  let path = [ (0, 1); (0, 2) ] and tri = [ (0, 1); (0, 2); (1, 2) ] in
  let expected =
    List.concat_map
      (fun tags -> [ (tags, path); (tags, tri) ])
      [ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 1; 1; 0 ]; [ 0; 0; 1 ]; [ 1; 0; 1 ]; [ 0; 1; 1 ] ]
  in
  let cell =
    List.concat_map
      (fun (n, span, configs) -> if n = 3 && span = 1 then configs else [])
      u
  in
  check "cell (3, 1) in order" true
    (expected
    = List.map (fun c -> (Array.to_list (C.tags c), G.edges (C.graph c))) cell)

let test_census_consistency () =
  let report = Census.run ~max_n:4 ~max_span:2 () in
  check "all consistent" true report.Census.all_consistent;
  check_int "434 configurations" 434 report.Census.configurations

let test_census_known_cells () =
  let report = Census.run ~max_n:3 ~max_span:1 () in
  let find n span =
    List.find
      (fun c -> c.Census.n = n && c.Census.span = span)
      report.Census.cells
  in
  (* n=2, span=0: the symmetric pair - infeasible. *)
  let c = find 2 0 in
  check_int "pair total" 1 c.Census.total;
  check_int "pair feasible" 0 c.Census.feasible;
  (* n=2, span=1: both orientations of two_cells - feasible. *)
  let c = find 2 1 in
  check_int "two_cells total" 2 c.Census.total;
  check_int "two_cells feasible" 2 c.Census.feasible;
  (* n=3, span=1: 2 graphs x 6 asymmetric-ish assignments, all feasible. *)
  let c = find 3 1 in
  check_int "n3 span1 total" 12 c.Census.total;
  check_int "n3 span1 feasible" 12 c.Census.feasible

let test_census_span_zero_never_feasible_beyond_one () =
  let report = Census.run ~max_n:4 ~max_span:0 () in
  List.iter
    (fun c ->
      if c.Census.n >= 2 then check_int "span0 infeasible" 0 c.Census.feasible
      else check_int "n=1 feasible" 1 c.Census.feasible)
    report.Census.cells

let test_census_rejects_bad_args () =
  (try
     ignore (Census.run ~max_n:0 ());
     Alcotest.fail "max_n=0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Census.run ~max_span:(-1) ());
    Alcotest.fail "negative span accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Min_beacon (E12)                                                    *)
(* ------------------------------------------------------------------ *)

let test_applies () =
  check "staircase clique" true (MB.applies (F.staircase_clique 5));
  check "single node" true (MB.applies (C.create (G.empty 1) [| 0 |]));
  check "uniform clique (no unique min)" false
    (MB.applies (C.uniform (Gen.complete 4) 0));
  check "two_cells is K_2, so it applies" true (MB.applies (F.two_cells ()));
  check "3-path (not single-hop)" false
    (MB.applies (F.tagged_path [| 0; 1; 2 |]));
  check "clique with twin minima" false
    (MB.applies (C.create (Gen.complete 3) [| 0; 0; 1 |]))

let test_predicted_leader () =
  Alcotest.(check (option int)) "argmin" (Some 2)
    (MB.predicted_leader (C.create (Gen.complete 4) [| 3; 2; 1; 5 |]));
  Alcotest.(check (option int)) "none outside class" None
    (MB.predicted_leader (F.tagged_path [| 0; 1; 2 |]))

let test_elects_in_two_rounds () =
  List.iter
    (fun config ->
      let r = Runner.run ~max_rounds:1_000 MB.election config in
      check "unique leader" true (Runner.elects_unique_leader r);
      Alcotest.(check (option int))
        "leader = argmin" (MB.predicted_leader config) r.Runner.leader;
      Alcotest.(check (option int))
        "two global rounds"
        (Some (MB.election_rounds config))
        r.Runner.rounds_to_elect)
    [
      F.staircase_clique 4;
      F.staircase_clique 16;
      C.create (Gen.complete 5) [| 9; 3; 7; 8; 9 |];
      C.create (G.empty 1) [| 0 |];
    ]

let test_agrees_with_classifier () =
  (* On its class, Min_beacon elects a node the classifier confirms has a
     unique history (applicability implies feasibility). *)
  List.iter
    (fun config ->
      check "classifier confirms feasible" true
        (Cl.is_feasible (Cl.classify config)))
    [ F.staircase_clique 3; C.create (Gen.complete 4) [| 2; 0; 2; 2 |] ]

let test_negative_control () =
  (* Outside its class the protocol must NOT be trusted: on the symmetric
     S_2 it elects nobody (or several). *)
  let r = Runner.run ~max_rounds:1_000 MB.election (F.s_family 2) in
  check "no unique leader on S_2" false (Runner.elects_unique_leader r);
  (* Uniform clique: everyone spontaneous, everyone decides leader. *)
  let r2 =
    Runner.run ~max_rounds:1_000 MB.election (C.uniform (Gen.complete 3) 0)
  in
  check "several claimants" true (List.length r2.Runner.winners > 1)

let test_speedup_vs_canonical () =
  let config = F.staircase_clique 12 in
  let a = Election.Feasibility.analyze config in
  let canonical =
    match Election.Feasibility.verify_by_simulation a with
    | Some r -> Option.get r.Runner.rounds_to_elect
    | None -> Alcotest.fail "staircase should be feasible"
  in
  let fast =
    Option.get
      (Runner.run ~max_rounds:1_000 MB.election config).Runner.rounds_to_elect
  in
  check "min-beacon strictly faster" true (fast < canonical);
  check_int "constant" 2 fast

(* ------------------------------------------------------------------ *)
(* Pure DRIP transcription                                             *)
(* ------------------------------------------------------------------ *)

let test_pure_equals_stateful () =
  List.iter
    (fun config ->
      let plan = Can.plan_of_run (Cl.classify config) in
      let o1 = Engine.run ~max_rounds:200_000 (Can.protocol plan) config in
      let o2 = Engine.run ~max_rounds:200_000 (Can.pure_protocol plan) config in
      check "identical executions" true
        (Array.for_all2 H.equal o1.Engine.histories o2.Engine.histories);
      check "identical termination" true
        (o1.Engine.done_local = o2.Engine.done_local))
    [
      F.two_cells ();
      F.h_family 2;
      F.s_family 2;
      F.g_family 2;
      F.staircase_clique 4;
      F.tagged_cycle [| 0; 1; 0; 1; 1; 1 |];
    ]

let test_pure_rejects_empty_prefix () =
  let plan = Can.plan_of_run (Cl.classify (F.two_cells ())) in
  Alcotest.check_raises "empty prefix"
    (Invalid_argument "Canonical.pure_drip: empty history prefix") (fun () ->
      ignore (Can.pure_drip plan (Radio_drip.History.of_array [||])))

let () =
  Alcotest.run "census"
    [
      ( "enumerate",
        [
          Alcotest.test_case "labelled counts" `Quick test_all_labelled_counts;
          Alcotest.test_case "connected labelled (A001187)" `Quick
            test_connected_labelled_counts;
          Alcotest.test_case "iso counts (A001349)" `Quick test_iso_counts;
          Alcotest.test_case "canonical key" `Quick test_canonical_labelling;
          Alcotest.test_case "iso = n! oracle" `Quick test_iso_matches_oracle;
          Alcotest.test_case "bounds" `Quick test_enumerate_bounds;
        ] );
      ( "census",
        [
          Alcotest.test_case "tag assignments" `Quick test_tag_assignments;
          Alcotest.test_case "tag assignments = oracle" `Quick
            test_tag_assignments_oracle;
          Alcotest.test_case "universe bound" `Quick test_universe_bound;
          Alcotest.test_case "universe order" `Quick test_universe_order;
          Alcotest.test_case "full consistency n<=4" `Quick
            test_census_consistency;
          Alcotest.test_case "known cells" `Quick test_census_known_cells;
          Alcotest.test_case "span 0" `Quick
            test_census_span_zero_never_feasible_beyond_one;
          Alcotest.test_case "bad args" `Quick test_census_rejects_bad_args;
        ] );
      ( "min-beacon",
        [
          Alcotest.test_case "applies" `Quick test_applies;
          Alcotest.test_case "predicted leader" `Quick test_predicted_leader;
          Alcotest.test_case "two-round election" `Quick
            test_elects_in_two_rounds;
          Alcotest.test_case "classifier agrees" `Quick
            test_agrees_with_classifier;
          Alcotest.test_case "negative control" `Quick test_negative_control;
          Alcotest.test_case "speedup" `Quick test_speedup_vs_canonical;
        ] );
      ( "pure-drip",
        [
          Alcotest.test_case "pure == stateful" `Quick test_pure_equals_stateful;
          Alcotest.test_case "empty prefix" `Quick test_pure_rejects_empty_prefix;
        ] );
    ]
