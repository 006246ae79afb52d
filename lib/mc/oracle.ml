module C = Radio_config.Config
module Census = Election.Census

type disagreement = {
  config : C.t;
  classifier_feasible : bool;
  verdict : Checker.verdict;
  detail : string;
}

type report = {
  configurations : int;
  feasible : int;
  infeasible : int;
  replayed : int;
  max_completion_round : int;
  disagreements : disagreement list;
}

let agrees = function [] -> true | _ :: _ -> false

(* Everything the oracle learns from one configuration.  [examine] is
   side-effect free and independent across configurations, so it is the
   unit of parallelism; the fold below runs on the orchestrating domain
   in submission order. *)
type verdict_one = {
  one_feasible : bool;
  one_disagreement : disagreement option;
  one_round : int;  (* completion round on feasible configs, else 0 *)
}

let examine ~replay config =
  let a = Election.Feasibility.analyze config in
  let is_feasible = a.feasible in
  let machine = Machine.drip a.plan in
  let res = Checker.verify ~machine a in
  let fail detail =
    Some { config; classifier_feasible = is_feasible; verdict = res.Checker.verdict; detail }
  in
  let disagreement =
    match res.Checker.verdict with
    | Checker.Elected { round; _ } when is_feasible ->
        (* verify already enforced leader identity and the liveness bound *)
        ignore round;
        None
    | Checker.Non_election { classes } when not is_feasible ->
        if List.for_all (fun cls -> List.length cls >= 2) classes then None
        else
          fail
            "infeasible, but the terminal state holds a singleton history \
             class"
    | Checker.Elected _ -> fail "MC elected on an infeasible configuration"
    | Checker.Non_election _ -> fail "MC saw no election on a feasible configuration"
    | Checker.Violated v ->
        fail (Format.asprintf "%a" Checker.pp_violation v)
    | Checker.Exhausted `Depth -> fail "depth budget exhausted"
    | Checker.Exhausted `States -> fail "state budget exhausted"
  in
  let disagreement =
    match disagreement with
    | Some _ -> disagreement
    | None when replay -> (
        let rp = Checker.replay ~machine res in
        match
          ( rp.Checker.trace_matches,
            Radio_lint.Report.ok rp.Checker.report )
        with
        | true, true -> None
        | false, _ -> fail "engine replay produced a different trace"
        | _, false -> fail "engine replay failed model validation")
    | None -> None
  in
  let one_round =
    match res.Checker.verdict with
    | Checker.Elected { round; _ } -> round
    | _ -> 0
  in
  { one_feasible = is_feasible; one_disagreement = disagreement; one_round }

let fold_one ~replay acc one =
  let configurations, feasible, infeasible, replayed, max_round, disags =
    acc
  in
  ( configurations + 1,
    (feasible + (if one.one_feasible then 1 else 0)),
    (infeasible + (if one.one_feasible then 0 else 1)),
    (replayed + (if replay then 1 else 0)),
    (if one.one_round > max_round then one.one_round else max_round),
    match one.one_disagreement with Some d -> d :: disags | None -> disags )

let run ?pool ?progress ?(max_n = 5) ?(max_span = 2) ?(replay = false) () =
  let configs =
    List.concat_map
      (fun (_, _, configs) -> configs)
      (Census.universe ~max_n ~max_span)
  in
  let total = List.length configs in
  let acc = ref (0, 0, 0, 0, 0, []) in
  let commit one =
    acc := fold_one ~replay !acc one;
    match progress with
    | Some f ->
        let finished, _, _, _, _, _ = !acc in
        f finished total
    | None -> ()
  in
  (match pool with
  | None -> List.iter (fun config -> commit (examine ~replay config)) configs
  | Some pool ->
      (* radiolint: allow partiality -- examine replays configurations the
         sweep already validated; an escape at the batch join signals a
         replay-divergence bug that must abort the oracle run *)
      Radio_exec.Pool.run_batch pool
        ~f:(fun _ config -> examine ~replay config)
        ~commit:(fun _ one -> commit one)
        (Array.of_list configs));
  let configurations, feasible, infeasible, replayed, max_round, disags =
    !acc
  in
  {
    configurations;
    feasible;
    infeasible;
    replayed;
    max_completion_round = max_round;
    disagreements = List.rev disags;
  }

let consistent r = agrees r.disagreements

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>differential oracle over %d configurations (%d feasible, %d \
     infeasible%s):@ max completion round %d@ %s@]"
    r.configurations r.feasible r.infeasible
    (if r.replayed > 0 then Printf.sprintf ", %d replayed" r.replayed else "")
    r.max_completion_round
    (match r.disagreements with
    | [] -> "MC and Classifier agree everywhere"
    | ds -> Printf.sprintf "%d DISAGREEMENTS" (List.length ds))

let pp_disagreement ppf d =
  Format.fprintf ppf "@[<v 2>%s configuration disagrees (%s):@ %a@ verdict: %a@]"
    (if d.classifier_feasible then "feasible" else "infeasible")
    d.detail C.pp d.config Checker.pp_verdict d.verdict
