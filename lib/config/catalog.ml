module Gen = Radio_graph.Gen
module G = Radio_graph.Graph

type entry = {
  name : string;
  summary : string;
  config : Config.t;
}

let entry name summary config = { name; summary; config }

(* radiolint: allow partiality — entries are built from in-range constants *)
let all () =
  [
    entry "two-cells" "the smallest feasible configuration: one edge, tags 0/1"
      (Families.two_cells ());
    entry "symmetric-pair"
      "the smallest infeasible configuration: one edge, equal tags"
      (Families.symmetric_pair ());
    entry "h2" "the paper's H_2: feasible 4-path, every node separable"
      (Families.h_family 2);
    entry "s2"
      "the paper's S_2: mirror-symmetric 4-path, provably infeasible"
      (Families.s_family 2);
    entry "g3"
      "the paper's G_3 (n=13, span 1): feasible but needs m=3 refinement \
       iterations; the centre leads"
      (Families.g_family 3);
    entry "staircase-6"
      "6-clique with distinct tags: the easy single-hop case (Min_beacon \
       elects in 2 rounds)"
      (Families.staircase_clique 6);
    entry "uniform-ring"
      "8-ring, simultaneous wake-up: symmetric forever, infeasible"
      (Config.uniform (Gen.cycle 8) 0);
    entry "twin-leaves"
      "star whose two leaves share a tag: feasible via the centre even \
       though the leaves are inseparable - only ONE node must be unique"
      (Config.create (Gen.star 3) [| 0; 1; 1 |]);
    entry "depth-tree"
      "depth-tagged binary tree (15 nodes): in Wave_election's class, \
       elects in ecc+2 rounds"
      (let g = Gen.binary_tree 15 in
       let dist = Radio_graph.Props.bfs_distances g 0 in
       Config.create g dist);
    entry "rotation-trap"
      "6-cycle with alternating tags 0/1: rotationally symmetric, \
       infeasible despite span 1"
      (Families.tagged_cycle [| 0; 1; 0; 1; 0; 1 |]);
    entry "broken-rotation"
      "the same cycle with one tag flipped: feasible - a minimal repair"
      (Families.tagged_cycle [| 0; 1; 0; 1; 1; 1 |]);
    entry "dense-trap"
      "complete graph with tags 0/1: cliques need wide spans because \
       tag-twins are interchangeable"
      (Config.create (Gen.complete 4) [| 0; 0; 1; 1 |]);
  ]

let find name = List.find_opt (fun e -> String.equal e.name name) (all ())

let names () = List.map (fun e -> e.name) (all ())
