module C = Radio_config.Config
module H = Radio_drip.History
module Engine = Radio_sim.Engine
module Runner = Radio_sim.Runner

type check = {
  name : string;
  passed : bool;
  detail : string;
}

type report = {
  config : C.t;
  feasible : bool;
  checks : check list;
  all_passed : bool;
}

let ok name detail = { name; passed = true; detail }
let bad name detail = { name; passed = false; detail }

let verdict name passed ~yes ~no =
  if passed then ok name yes else bad name no

let check_impl_agreement run_ref run_fast =
  let agree =
    Classifier.is_feasible run_ref = Classifier.is_feasible run_fast
    && Classifier.canonical_leader run_ref = Classifier.canonical_leader run_fast
    && List.for_all2
         (fun (i1 : Classifier.iteration) (i2 : Classifier.iteration) ->
           i1.Classifier.new_class = i2.Classifier.new_class
           && i1.Classifier.reps = i2.Classifier.reps)
         run_ref.Classifier.iterations run_fast.Classifier.iterations
  in
  verdict "impl-agreement" agree
    ~yes:"literal and hash-based classifiers produced identical runs"
    ~no:"classifier implementations disagree"

let check_iteration_bound config run =
  let iters = Classifier.num_iterations run in
  let bound = (C.size config + 1) / 2 in
  verdict "lemma-3.4-iteration-bound"
    (iters <= bound)
    ~yes:(Printf.sprintf "%d iterations <= ceil(n/2) = %d" iters bound)
    ~no:(Printf.sprintf "%d iterations exceed ceil(n/2) = %d" iters bound)

let check_refinement run =
  let monotone = ref true in
  let refines = ref true in
  let prev = ref 1 in
  List.iter
    (fun (it : Classifier.iteration) ->
      if it.Classifier.num_classes < !prev then monotone := false;
      prev := it.Classifier.num_classes;
      let n = Array.length it.Classifier.new_class in
      for v = 0 to n - 1 do
        for w = v + 1 to n - 1 do
          if
            it.Classifier.old_class.(v) <> it.Classifier.old_class.(w)
            && it.Classifier.new_class.(v) = it.Classifier.new_class.(w)
          then refines := false
        done
      done)
    run.Classifier.iterations;
  verdict "obs-3.2-cor-3.3-refinement"
    (!monotone && !refines)
    ~yes:"class counts non-decreasing; separated nodes never merged"
    ~no:"refinement violated (merge or decreasing class count)"

let check_patience config outcome =
  let sigma = C.span config in
  let quiet =
    match outcome.Engine.first_transmission with
    | Some (r, _) -> r > sigma
    | None -> true
  in
  let spontaneous = Array.for_all not outcome.Engine.forced in
  verdict "lemma-3.6-patience" (quiet && spontaneous)
    ~yes:
      (Printf.sprintf
         "no transmission in global rounds 0..%d; all wake-ups spontaneous"
         sigma)
    ~no:"canonical DRIP transmitted early or forced a wake-up"

let check_blocks run plan outcome =
  let iterations = Array.of_list run.Classifier.iterations in
  let okay = ref true in
  let block_trace = Canonical.block_trace plan in
  Array.iteri
    (fun v h ->
      let trace = block_trace h in
      Array.iteri
        (fun j_minus_1 tb ->
          let expected =
            if j_minus_1 = 0 then 1
            else iterations.(j_minus_1 - 1).Classifier.new_class.(v)
          in
          if not (Option.equal Int.equal tb (Some expected)) then
            okay := false)
        trace)
    outcome.Engine.histories;
  verdict "lemma-3.8-blocks" !okay
    ~yes:"every node transmitted in the block of its class, every phase"
    ~no:"transmission block disagrees with the classifier's class"

let check_partition run outcome =
  let hc = Runner.history_classes outcome in
  let final = (Classifier.last_iteration run).Classifier.new_class in
  let n = Array.length final in
  let okay = ref true in
  for v = 0 to n - 1 do
    for w = v + 1 to n - 1 do
      if hc.(v) = hc.(w) <> (final.(v) = final.(w)) then okay := false
    done
  done;
  verdict "lemma-3.9-partition" !okay
    ~yes:"equal histories <=> same final class, for every pair"
    ~no:"history partition disagrees with the classifier partition"

let check_schedule config plan =
  let t = Canonical.local_termination_round plan in
  let bound =
    Canonical.upper_bound_rounds ~n:(C.size config) ~sigma:(C.span config)
  in
  verdict "lemma-3.10-schedule-bound" (t <= bound)
    ~yes:(Printf.sprintf "termination round %d <= bound %d" t bound)
    ~no:(Printf.sprintf "termination round %d exceeds bound %d" t bound)

let check_election run plan outcome =
  let decide = Canonical.decision plan in
  let winners =
    List.filter
      (fun v -> decide outcome.Engine.histories.(v))
      (List.init (Array.length outcome.Engine.histories) Fun.id)
  in
  match Classifier.canonical_leader run with
  | None ->
      verdict "lemma-3.11-election" (winners = [])
        ~yes:"infeasible: decision function elects nobody"
        ~no:"infeasible configuration elected someone"
  | Some leader ->
      verdict "lemma-3.11-election"
        (List.equal Int.equal winners [ leader ])
        ~yes:(Printf.sprintf "unique winner = predicted leader (node %d)" leader)
        ~no:"simulation winners differ from the predicted leader"

let check_uniform_done plan outcome =
  let expected = Canonical.local_termination_round plan in
  verdict "uniform-termination-round"
    (Array.for_all (fun d -> d = expected) outcome.Engine.done_local)
    ~yes:(Printf.sprintf "every node terminated in local round %d" expected)
    ~no:"nodes terminated in different local rounds"

let check_pure_drip ?max_rounds config plan outcome =
  let pure = Engine.run ?max_rounds (Canonical.pure_protocol plan) config in
  verdict "pure-vs-stateful-drip"
    (Array.for_all2 H.equal outcome.Engine.histories pure.Engine.histories)
    ~yes:"the literal history-function DRIP matches the state machine"
    ~no:"pure and stateful canonical DRIPs diverge"

let check_plan_roundtrip plan =
  let same =
    (* radiolint: allow catch-all-exception — audit probe: any parse or
       validation failure simply means the roundtrip check fails. *)
    try Plan_io.of_string (Plan_io.to_string plan) = plan with _ -> false
  in
  verdict "plan-serialization" same
    ~yes:"plan survives a serialization roundtrip"
    ~no:"plan serialization roundtrip failed"

let check_fast_classes ?max_rounds config run =
  let checks = ref [] in
  (if Min_beacon.applies config then
     let r = Runner.run ?max_rounds Min_beacon.election config in
     checks :=
       verdict "min-beacon-agreement"
         (Classifier.is_feasible run
         && r.Runner.leader = Min_beacon.predicted_leader config)
         ~yes:"Min_beacon applies and elects the unique minimum"
         ~no:"Min_beacon disagrees with the classifier"
       :: !checks);
  (if Wave_election.applies config then
     let r = Runner.run ?max_rounds Wave_election.election config in
     checks :=
       verdict "wave-election-agreement"
         (Classifier.is_feasible run
         && r.Runner.leader = Wave_election.predicted_leader config
         && r.Runner.rounds_to_elect = Wave_election.election_rounds config)
         ~yes:"Wave_election applies, elects the root on schedule"
         ~no:"Wave_election disagrees with the classifier or its schedule"
       :: !checks);
  !checks

let run ?max_rounds config =
  let config =
    if C.is_normalized config then config
    else C.create (C.graph config) (C.tags config)
  in
  let run_ref = Classifier.classify config in
  let run_fast = Fast_classifier.classify config in
  let plan = Canonical.plan_of_run run_ref in
  let outcome = Engine.run ?max_rounds (Canonical.protocol plan) config in
  (* Block traces and decisions read whole histories: on a run cut off by
     [max_rounds] those two checks fail without reading them. *)
  let whole name check =
    if outcome.Engine.all_terminated then check ()
    else
      bad name (Printf.sprintf "cut off after %d rounds" outcome.Engine.rounds)
  in
  let checks =
    [
      check_impl_agreement run_ref run_fast;
      check_iteration_bound config run_ref;
      check_refinement run_ref;
      check_patience config outcome;
      whole "lemma-3.8-blocks" (fun () -> check_blocks run_ref plan outcome);
      check_partition run_ref outcome;
      check_schedule config plan;
      whole "lemma-3.11-election" (fun () ->
          check_election run_ref plan outcome);
      check_uniform_done plan outcome;
      check_pure_drip ?max_rounds config plan outcome;
      check_plan_roundtrip plan;
    ]
    @ check_fast_classes ?max_rounds config run_ref
  in
  {
    config;
    feasible = Classifier.is_feasible run_ref;
    checks;
    all_passed = List.for_all (fun c -> c.passed) checks;
  }

let pp ppf r =
  Format.fprintf ppf "@[<v>audit of n=%d, span=%d (%s):" (C.size r.config)
    (C.span r.config)
    (if r.feasible then "feasible" else "infeasible");
  List.iter
    (fun c ->
      Format.fprintf ppf "@ %s %-28s %s"
        (if c.passed then "PASS" else "FAIL")
        c.name c.detail)
    r.checks;
  Format.fprintf ppf "@ overall: %s@]"
    (if r.all_passed then "ALL CHECKS PASSED" else "FAILURES PRESENT")
