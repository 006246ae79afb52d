module C = Radio_config.Config
module Runner = Radio_sim.Runner

type counterexample = {
  config : C.t;
  winners : int list;
}

(* The feasible configurations of the universe, in its (n, span) order:
   small witnesses first. *)
let feasible ~max_n ~max_span =
  List.concat_map
    (fun (_, _, configs) ->
      List.filter
        (fun config -> Classifier.is_feasible (Fast_classifier.classify config))
        configs)
    (Census.universe ~max_n ~max_span)

let run_candidate ?max_rounds candidate config =
  let r = Runner.run ?max_rounds candidate config in
  if Runner.elects_unique_leader r then None
  else Some { config; winners = r.Runner.winners }

let find_failure ?(max_n = 4) ?(max_span = 2) ?(max_rounds = 500_000) candidate =
  List.find_map (run_candidate ~max_rounds candidate) (feasible ~max_n ~max_span)

let count_failures ?(max_n = 4) ?(max_span = 2) ?(max_rounds = 500_000) candidate =
  let universe = feasible ~max_n ~max_span in
  let failures =
    List.length
      (List.filter
         (fun config -> run_candidate ~max_rounds candidate config <> None)
         universe)
  in
  (failures, List.length universe)
