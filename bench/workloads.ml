(* Deterministic workload construction for the benchmark harness: every
   configuration is derived from a fixed seed so runs are reproducible. *)

module C = Radio_config.Config
module RC = Radio_config.Random_config
module Gen = Radio_graph.Gen

let seed = 0xC0FFEE

let state () = Random.State.make [| seed |]

(* A feasible random configuration: redraw until the classifier says yes
   (a handful of draws at most for span >= 2). *)
let feasible draw =
  let rec attempt k =
    if k > 50 then
      invalid_arg "Workloads.feasible: could not find a feasible config"
    else
      let config = draw () in
      if Election.Feasibility.is_feasible config then config else attempt (k + 1)
  in
  attempt 0

let feasible_gnp st ~n ~p ~span =
  feasible (fun () -> RC.connected_gnp st ~n ~p ~span)

let path_config st n = RC.random_path st ~n ~span:3

let cycle_config st n = RC.on_graph st ~span:3 (Gen.cycle n)

let clique_config _st n = Radio_config.Families.staircase_clique n

let gnp_config st n = RC.connected_gnp st ~n ~p:(8.0 /. float_of_int n) ~span:3

let tree_config st n = RC.random_tree st ~n ~span:3

let named_families =
  [
    ("path", path_config);
    ("cycle", cycle_config);
    ("clique", clique_config);
    ("gnp", gnp_config);
    ("tree", tree_config);
  ]

(* The faults workload (E18): a feasible configuration paired with a
   seed-derived fault plan spanning its dedicated-election schedule.  The
   plan is a pure function of [seed], so the workload is as reproducible as
   the others. *)
let faults_config st n = feasible_gnp st ~n ~p:0.3 ~span:3

let faults_plan ~horizon config =
  Radio_sim.Fault_plan.sample ~seed ~crashes:2 ~drops:8 ~noise:8
    ~jitters:2 ~horizon config
