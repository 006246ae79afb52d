(* Unit and property tests for the radio_graph substrate. *)

module G = Radio_graph.Graph
module Gen = Radio_graph.Gen
module Props = Radio_graph.Props
module Io = Radio_graph.Io

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  let g = G.empty 5 in
  check_int "size" 5 (G.size g);
  check_int "edges" 0 (G.num_edges g);
  check_int "max degree" 0 (G.max_degree g)

let test_empty_zero () =
  let g = G.empty 0 in
  check_int "size" 0 (G.size g);
  Alcotest.check_raises "negative count" (G.Invalid_edge "negative vertex count -1")
    (fun () -> ignore (G.empty (-1)))

let test_of_edges () =
  let g = G.of_edges 4 [ (0, 1); (1, 2); (3, 2) ] in
  check_int "m" 3 (G.num_edges g);
  check "0-1" true (G.mem_edge g 0 1);
  check "1-0 symmetric" true (G.mem_edge g 1 0);
  check "2-3 symmetric" true (G.mem_edge g 2 3);
  check "0-2 absent" false (G.mem_edge g 0 2)

let test_self_loop_rejected () =
  (try
     ignore (G.of_edges 3 [ (1, 1) ]);
     Alcotest.fail "self-loop accepted"
   with G.Invalid_edge _ -> ());
  try
    ignore (G.of_edges 3 [ (0, 3) ]);
    Alcotest.fail "out-of-range accepted"
  with G.Invalid_edge _ -> ()

let test_duplicate_rejected () =
  (try
     ignore (G.of_edges 3 [ (0, 1); (1, 0) ]);
     Alcotest.fail "duplicate (reversed) accepted"
   with G.Invalid_edge _ -> ());
  try
    ignore (G.of_edges 3 [ (0, 1); (0, 1) ]);
    Alcotest.fail "duplicate accepted"
  with G.Invalid_edge _ -> ()

(* [of_edge_array] against edge-at-a-time [Builder] insertion on random
   edge lists, a fifth of them spoiled by a repeat, a self-loop or an
   out-of-range endpoint: the same graph, or the first refused edge with
   the same message. *)
let test_of_edge_array () =
  let st = Random.State.make [| 0xED6E |] in
  for _ = 1 to 300 do
    let n = 1 + Random.State.int st 30 in
    let m = Random.State.int st (2 * n) in
    let ends = Array.make (2 * m) 0 in
    for i = 0 to (2 * m) - 1 do
      ends.(i) <-
        (if Random.State.int st 50 = 0 then n + Random.State.int st 3 - 1
         else Random.State.int st n)
    done;
    let sequential =
      let b = G.Builder.create n in
      let rec go i =
        if i = m then Ok (G.Builder.finish b)
        else
          match G.Builder.add_edge b ends.(2 * i) ends.((2 * i) + 1) with
          | () -> go (i + 1)
          | exception G.Invalid_edge msg -> Error (i, msg)
      in
      go 0
    in
    match (sequential, G.of_edge_array n ends m) with
    | Ok a, Ok b -> check "same graph" true (G.equal a b)
    | Error (i, msg), Error (j, msg') ->
        check_int "first refused edge" i j;
        Alcotest.(check string) "same message" msg msg'
    | Ok _, Error (_, msg) -> Alcotest.failf "refused (%s), builder accepts" msg
    | Error (_, msg), Ok _ -> Alcotest.failf "accepted, builder refuses (%s)" msg
  done

let test_add_remove () =
  let g = G.empty 3 in
  let g = G.add_edge g 2 0 in
  check "added" true (G.mem_edge g 0 2);
  check_int "m" 1 (G.num_edges g);
  let g2 = G.remove_edge g 0 2 in
  check "removed" false (G.mem_edge g2 0 2);
  check "original untouched" true (G.mem_edge g 0 2);
  (try
     ignore (G.add_edge g 0 2);
     Alcotest.fail "re-add accepted"
   with G.Invalid_edge _ -> ());
  try
    ignore (G.remove_edge g2 0 2);
    Alcotest.fail "re-remove accepted"
  with G.Invalid_edge _ -> ()

let test_neighbours_sorted () =
  let g = G.of_edges 5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3; 4 ] (G.neighbours g 2);
  check_int "degree" 4 (G.degree g 2);
  check_int "leaf degree" 1 (G.degree g 0)

let test_edges_listing () =
  let g = G.of_edges 4 [ (3, 1); (0, 2); (1, 0) ] in
  Alcotest.(check (list (pair int int)))
    "lexicographic u<v" [ (0, 1); (0, 2); (1, 3) ] (G.edges g)

let test_builder_mem () =
  let b = G.Builder.create 3 in
  G.Builder.add_edge b 0 1;
  check "builder mem" true (G.Builder.mem_edge b 1 0);
  check "builder not mem" false (G.Builder.mem_edge b 1 2);
  let g = G.Builder.finish b in
  check_int "finished" 1 (G.num_edges g)

let test_equal () =
  let g1 = G.of_edges 3 [ (0, 1); (1, 2) ] in
  let g2 = G.of_edges 3 [ (1, 2); (0, 1) ] in
  let g3 = G.of_edges 3 [ (0, 1); (0, 2) ] in
  check "order-insensitive equal" true (G.equal g1 g2);
  check "different edge sets" false (G.equal g1 g3)

let test_fold_iter () =
  let g = Gen.star 5 in
  let sum = G.fold_neighbours g 0 ~init:0 ~f:( + ) in
  check_int "fold over star centre" 10 sum;
  let count = ref 0 in
  G.iter_neighbours g 3 ~f:(fun _ -> incr count);
  check_int "iter over leaf" 1 !count

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_path () =
  let g = Gen.path 6 in
  check_int "n" 6 (G.size g);
  check_int "m" 5 (G.num_edges g);
  check_int "max degree" 2 (G.max_degree g);
  check "connected" true (Props.connected g);
  check_int "diameter" 5 (Props.diameter g)

let test_path_singleton () =
  let g = Gen.path 1 in
  check_int "n" 1 (G.size g);
  check_int "m" 0 (G.num_edges g);
  check "connected" true (Props.connected g)

let test_cycle () =
  let g = Gen.cycle 7 in
  check_int "m" 7 (G.num_edges g);
  check "regular" true (Props.is_regular g);
  check_int "diameter" 3 (Props.diameter g)

let test_complete () =
  let g = Gen.complete 6 in
  check_int "m" 15 (G.num_edges g);
  check_int "max degree" 5 (G.max_degree g);
  check_int "diameter" 1 (Props.diameter g)

let test_star () =
  let g = Gen.star 9 in
  check_int "m" 8 (G.num_edges g);
  check_int "centre degree" 8 (G.degree g 0);
  check_int "diameter" 2 (Props.diameter g)

let test_complete_bipartite () =
  let g = Gen.complete_bipartite 3 4 in
  check_int "n" 7 (G.size g);
  check_int "m" 12 (G.num_edges g);
  check "no intra-left edge" false (G.mem_edge g 0 1);
  check "cross edge" true (G.mem_edge g 0 5)

let test_binary_tree () =
  let g = Gen.binary_tree 7 in
  check_int "m" 6 (G.num_edges g);
  check "connected" true (Props.connected g);
  check_int "root degree" 2 (G.degree g 0);
  check "heap parent" true (G.mem_edge g 6 2)

let test_caterpillar () =
  let g = Gen.caterpillar 4 2 in
  check_int "n" 12 (G.size g);
  check_int "m" 11 (G.num_edges g);
  check "connected" true (Props.connected g);
  check_int "inner spine degree" 4 (G.degree g 1)

let test_grid () =
  let g = Gen.grid 3 4 in
  check_int "n" 12 (G.size g);
  check_int "m" ((2 * 4) + (3 * 3)) (G.num_edges g);
  check_int "corner degree" 2 (G.degree g 0);
  check_int "diameter" 5 (Props.diameter g)

let test_hypercube () =
  let g = Gen.hypercube 4 in
  check_int "n" 16 (G.size g);
  check_int "m" 32 (G.num_edges g);
  check "regular" true (Props.is_regular g);
  check_int "diameter" 4 (Props.diameter g);
  check "transitive candidate" true (Props.is_vertex_transitive_candidate g)

let test_petersen () =
  let g = Gen.petersen () in
  check_int "n" 10 (G.size g);
  check_int "m" 15 (G.num_edges g);
  check "3-regular" true (Props.is_regular g);
  check_int "degree" 3 (G.max_degree g);
  check_int "diameter" 2 (Props.diameter g);
  check "transitive candidate" true (Props.is_vertex_transitive_candidate g);
  (* girth 5: no triangles among any adjacent pair *)
  List.iter
    (fun (u, v) ->
      List.iter
        (fun w ->
          if w <> v && G.mem_edge g v w then
            check "triangle-free" false (G.mem_edge g u w))
        (G.neighbours g u))
    (G.edges g)

let test_gnp_extremes () =
  let st = Random.State.make [| 7 |] in
  let g0 = Gen.random_gnp st 10 0.0 in
  check_int "p=0 no edges" 0 (G.num_edges g0);
  let g1 = Gen.random_gnp st 10 1.0 in
  check_int "p=1 complete" 45 (G.num_edges g1)

let test_connected_gnp () =
  let st = Random.State.make [| 11 |] in
  for _ = 1 to 10 do
    let g = Gen.random_connected_gnp st 20 0.05 in
    check "connected" true (Props.connected g)
  done

let test_random_tree () =
  let st = Random.State.make [| 13 |] in
  for n = 1 to 20 do
    let g = Gen.random_tree st n in
    check_int "tree edges" (n - 1) (G.num_edges g);
    check "tree connected" true (Props.connected g)
  done

let test_random_geometric () =
  let st = Random.State.make [| 17 |] in
  let g, coords = Gen.random_geometric st 30 0.3 in
  check_int "n" 30 (G.size g);
  check_int "coords" 30 (Array.length coords);
  (* Every edge respects the radius. *)
  List.iter
    (fun (u, v) ->
      let xu, yu = coords.(u) and xv, yv = coords.(v) in
      let d = sqrt (((xu -. xv) ** 2.0) +. ((yu -. yv) ** 2.0)) in
      check "edge within radius" true (d <= 0.3 +. 1e-9))
    (G.edges g)

let test_connected_geometric () =
  let st = Random.State.make [| 19 |] in
  let g, _ = Gen.random_connected_geometric st 25 0.2 in
  check "connected" true (Props.connected g)

(* ------------------------------------------------------------------ *)
(* Properties (BFS & co)                                               *)
(* ------------------------------------------------------------------ *)

let test_bfs () =
  let g = Gen.path 5 in
  Alcotest.(check (array int)) "path distances" [| 2; 1; 0; 1; 2 |]
    (Props.bfs_distances g 2)

let test_bfs_unreachable () =
  let g = G.of_edges 4 [ (0, 1) ] in
  let d = Props.bfs_distances g 0 in
  check_int "reachable" 1 d.(1);
  check_int "unreachable" (-1) d.(2)

let test_components () =
  let g = G.of_edges 5 [ (0, 1); (3, 4) ] in
  let comp, k = Props.components g in
  check_int "three components" 3 k;
  check_int "0 and 1 together" comp.(0) comp.(1);
  check_int "3 and 4 together" comp.(3) comp.(4);
  check "2 alone" true (comp.(2) <> comp.(0) && comp.(2) <> comp.(3))

let test_disconnected_flag () =
  check "disconnected" false (Props.connected (G.of_edges 3 [ (0, 1) ]));
  check "empty connected" true (Props.connected (G.empty 0));
  check "singleton connected" true (Props.connected (G.empty 1))

let test_eccentricity_raises () =
  Alcotest.check_raises "disconnected eccentricity"
    (Invalid_argument "Props.eccentricity: disconnected graph") (fun () ->
      ignore (Props.eccentricity (G.empty 2) 0))

let test_distance_matrix () =
  let g = Gen.cycle 6 in
  let m = Props.distance_matrix g in
  check_int "opposite" 3 m.(0).(3);
  check_int "adjacent" 1 m.(0).(1);
  check_int "self" 0 m.(4).(4)

let test_degree_histogram () =
  let g = Gen.star 5 in
  Alcotest.(check (list (pair int int)))
    "star histogram" [ (1, 4); (4, 1) ] (Props.degree_histogram g)

(* ------------------------------------------------------------------ *)
(* DOT export                                                          *)
(* ------------------------------------------------------------------ *)

let test_dot () =
  let s = Io.to_dot ~name:"T" (Gen.path 3) in
  check "has header" true (String.length s > 0 && String.sub s 0 7 = "graph T");
  check "has edge" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.trim l = "0 -- 1;"))

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let arbitrary_gnp =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 1 40) (int_range 0 10_000))

let prop_degree_sum =
  QCheck.Test.make ~name:"sum of degrees = 2m" ~count:100 arbitrary_gnp
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let g = Gen.random_gnp st n 0.3 in
      let sum = List.fold_left (fun a v -> a + G.degree g v) 0 (G.vertices g) in
      sum = 2 * G.num_edges g)

let prop_edge_symmetry =
  QCheck.Test.make ~name:"mem_edge is symmetric" ~count:100 arbitrary_gnp
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let g = Gen.random_gnp st n 0.4 in
      List.for_all (fun (u, v) -> G.mem_edge g u v && G.mem_edge g v u) (G.edges g))

let prop_connected_gnp_connected =
  QCheck.Test.make ~name:"random_connected_gnp is connected" ~count:60
    arbitrary_gnp (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      Props.connected (Gen.random_connected_gnp st n 0.1))

let prop_tree_is_tree =
  QCheck.Test.make ~name:"random_tree is a spanning tree" ~count:100
    arbitrary_gnp (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let g = Gen.random_tree st n in
      G.num_edges g = n - 1 && Props.connected g)

let prop_bfs_triangle =
  QCheck.Test.make ~name:"BFS satisfies triangle inequality over edges"
    ~count:60 arbitrary_gnp (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let g = Gen.random_connected_gnp st n 0.2 in
      let d = Props.bfs_distances g 0 in
      List.for_all (fun (u, v) -> abs (d.(u) - d.(v)) <= 1) (G.edges g))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_degree_sum;
      prop_edge_symmetry;
      prop_connected_gnp_connected;
      prop_tree_is_tree;
      prop_bfs_triangle;
    ]

let () =
  Alcotest.run "radio_graph"
    [
      ( "construction",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "empty zero / negative" `Quick test_empty_zero;
          Alcotest.test_case "of_edges" `Quick test_of_edges;
          Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
          Alcotest.test_case "duplicate rejected" `Quick test_duplicate_rejected;
          Alcotest.test_case "of_edge_array = builder" `Quick test_of_edge_array;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "neighbours sorted" `Quick test_neighbours_sorted;
          Alcotest.test_case "edges listing" `Quick test_edges_listing;
          Alcotest.test_case "builder mem" `Quick test_builder_mem;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "fold/iter" `Quick test_fold_iter;
        ] );
      ( "generators",
        [
          Alcotest.test_case "path" `Quick test_path;
          Alcotest.test_case "singleton path" `Quick test_path_singleton;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "complete bipartite" `Quick test_complete_bipartite;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "caterpillar" `Quick test_caterpillar;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "petersen" `Quick test_petersen;
          Alcotest.test_case "gnp extremes" `Quick test_gnp_extremes;
          Alcotest.test_case "connected gnp" `Quick test_connected_gnp;
          Alcotest.test_case "random tree" `Quick test_random_tree;
          Alcotest.test_case "random geometric" `Quick test_random_geometric;
          Alcotest.test_case "connected geometric" `Quick test_connected_geometric;
        ] );
      ( "properties",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "connected flag" `Quick test_disconnected_flag;
          Alcotest.test_case "eccentricity raises" `Quick test_eccentricity_raises;
          Alcotest.test_case "distance matrix" `Quick test_distance_matrix;
          Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
        ] );
      ( "io",
        [
          Alcotest.test_case "dot" `Quick test_dot;
        ] );
      ("qcheck", qcheck_cases);
    ]
