type analysis = {
  run : Classifier.run;
  plan : Canonical.plan;
  feasible : bool;
  leader : int option;
  election_local_rounds : int;
}

let analyze_run run =
  let plan = Canonical.plan_of_run run in
  {
    run;
    plan;
    feasible = Classifier.is_feasible run;
    leader = Classifier.canonical_leader run;
    election_local_rounds = Canonical.local_termination_round plan;
  }

let analyze config = analyze_run (Fast_classifier.classify config)

let is_feasible config =
  Classifier.is_feasible (Fast_classifier.classify config)

let dedicated_election a =
  if a.feasible then Some (Canonical.election a.plan) else None

let verify_by_simulation ?max_rounds a =
  Option.map
    (fun e -> Radio_sim.Runner.run ?max_rounds e a.run.Classifier.config)
    (dedicated_election a)

let feasible_fraction configs =
  match configs with
  | [] -> invalid_arg "Feasibility.feasible_fraction: empty batch"
  | _ ->
      let feasible =
        List.length (List.filter is_feasible configs)
      in
      float_of_int feasible /. float_of_int (List.length configs)
