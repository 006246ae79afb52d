module Config = Radio_config.Config
module Engine = Radio_sim.Engine
module Fault_plan = Radio_sim.Fault_plan
module Runner = Radio_sim.Runner
module Fe = Election.Feasibility

type point = {
  intensity : int;
  trials : int;
  successes : int;
  stable : int;
  mean_rounds : float;
}

type curve = {
  name : string;
  config : Config.t;
  seed : int;
  baseline_leader : int;
  baseline_rounds : int;
  points : point list;
}

let success_rate p =
  if p.trials = 0 then 0.0 else float_of_int p.successes /. float_of_int p.trials

let stability_rate p =
  if p.trials = 0 then 0.0 else float_of_int p.stable /. float_of_int p.trials

let overhead c p = p.mean_rounds /. float_of_int c.baseline_rounds

let crash_sweep ?pool ?(seed = 0xFA17) ?(trials = 20) ?max_intensity
    ?max_rounds ~name config =
  let n = Config.size config in
  let a = Fe.analyze config in
  if not a.Fe.feasible then
    (* radiolint: allow partiality — anorad resilience checks feasibility *)
    invalid_arg "Resilience.crash_sweep: configuration is infeasible";
  let election = Election.Canonical.election a.Fe.plan in
  let max_rounds =
    match max_rounds with
    | Some m -> m
    | None -> 10 * Election.Canonical.local_termination_round a.Fe.plan + 10
  in
  let baseline = Runner.run ~max_rounds election config in
  (* radiolint: allow partiality — feasible: elects in budget (Lemma 3.11) *)
  let baseline_leader = Option.get baseline.Runner.leader in
  (* Engine rounds, not [rounds_to_elect]: trials measure engine rounds, so
     the intensity-0 overhead must come out as exactly 1.0. *)
  let baseline_rounds = baseline.Runner.outcome.Engine.rounds in
  let horizon = baseline_rounds + 1 in
  let max_intensity = Option.value ~default:n max_intensity in
  let max_intensity = min max_intensity n in
  (* One nested crash schedule per trial: intensity k takes its first k
     entries, so raising the intensity only ever adds faults. *)
  let schedules =
    Array.init trials (fun t ->
        Array.of_list
          (Fault_plan.crash_schedule ~seed:(seed + (7919 * t)) ~horizon config))
  in
  (* One intensity level is an independent unit of work: every trial's
     plan is derived from the precomputed (read-only) schedules, and
     Engine.run_plan allocates all run state per call.  Mapping over the
     levels with a pool preserves the ascending-intensity order, so the
     curve is byte-identical at any jobs count. *)
  let point_at k =
    let successes = ref 0 and stable = ref 0 in
    let rounds_sum = ref 0 in
    for t = 0 to trials - 1 do
      let plan =
        Array.to_list (Array.sub schedules.(t) 0 k)
        |> List.map (fun (node, round) -> Fault_plan.Crash { node; round })
      in
      let o =
        Engine.run_plan ~max_rounds plan election.Runner.protocol config
      in
      match Engine.elected election.Runner.decision o with
      | Some v ->
          incr successes;
          if v = baseline_leader then incr stable;
          rounds_sum := !rounds_sum + o.Engine.base.Engine.rounds
      | None -> ()
    done;
    {
      intensity = k;
      trials;
      successes = !successes;
      stable = !stable;
      mean_rounds =
        (if !successes = 0 then nan
         else float_of_int !rounds_sum /. float_of_int !successes);
    }
  in
  let intensities = List.init (max_intensity + 1) (fun k -> k) in
  let points =
    match pool with
    | None -> List.map point_at intensities
    | Some pool -> Radio_exec.Pool.map pool ~chunk:1 ~f:point_at intensities
  in
  { name; config; seed; baseline_leader; baseline_rounds; points }

let float_cell f =
  if Float.is_nan f then "-" else Printf.sprintf "%.3f" f

let to_csv c =
  Radio_analysis.Csv.to_string
    ~header:
      [
        "intensity";
        "trials";
        "successes";
        "success_rate";
        "stable";
        "stability_rate";
        "mean_rounds";
        "overhead";
      ]
    (List.map
       (fun p ->
         [
           string_of_int p.intensity;
           string_of_int p.trials;
           string_of_int p.successes;
           float_cell (success_rate p);
           string_of_int p.stable;
           float_cell (stability_rate p);
           float_cell p.mean_rounds;
           float_cell (overhead c p);
         ])
       c.points)

let to_chart c =
  (* radiolint: allow partiality — success rates lie in [0, 100] *)
  Radio_analysis.Chart.series
    ~title:
      (Printf.sprintf "%s: election success vs crash intensity (seed %d)"
         c.name c.seed)
    ~x_label:"crashes" ~y_label:"success %"
    (List.map
       (fun p -> (float_of_int p.intensity, 100.0 *. success_rate p))
       c.points)

let pp ppf c =
  let table =
    Radio_analysis.Table.create
      ~title:
        (Printf.sprintf
           "%s (n=%d): degradation under crash-stop faults, %d trials/point, \
            baseline leader %d in %d rounds"
           c.name (Config.size c.config)
           (match c.points with p :: _ -> p.trials | [] -> 0)
           c.baseline_leader c.baseline_rounds)
      ~columns:
        [ "crashes"; "success"; "stability"; "mean rounds"; "overhead" ]
  in
  List.iter
    (fun p ->
      (* radiolint: allow partiality — one cell per column *)
      Radio_analysis.Table.add_row table
        [
          string_of_int p.intensity;
          Printf.sprintf "%d/%d" p.successes p.trials;
          Printf.sprintf "%d/%d" p.stable p.trials;
          float_cell p.mean_rounds;
          float_cell (overhead c p);
        ])
    c.points;
  Format.pp_print_string ppf (Radio_analysis.Table.render table)
