module C = Radio_config.Config
module H = Radio_drip.History
module Engine = Radio_sim.Engine
module Canonical = Election.Canonical

type outcome =
  | Broken_at of int
  | Never
  | Not_within_horizon
  | Search_budget_exhausted

let breaking_time ?pool ?(horizon = 24) ?(max_states = 200_000) config =
  let config =
    if C.is_normalized config then config
    else C.create (C.graph config) (C.tags config)
  in
  if C.size config = 0 then
    (* radiolint: allow partiality — n > 0: anorad refuses it at load *)
    invalid_arg "Optimal.breaking_time: empty configuration";
  (* Infeasible configurations never separate (Lemma 3.16): skip the
     search, which would otherwise chase growing histories forever. *)
  if not (Election.Feasibility.is_feasible config) then Never
  else
    (* Without crashes every reachable state is invariant under every
       tag-preserving automorphism, so the quotient is the identity and
       reduction would only pay for computing the group. *)
    let e =
      Checker.explore ~until_separated:true ~reduction:false
        ~depth:(horizon + 1) ~states:max_states ?pool config
    in
    match (e.Checker.separated_at, e.Checker.exhausted) with
    | Some r, _ -> Broken_at r
    | None, Some `States -> Search_budget_exhausted
    | None, (Some `Depth | None) -> Not_within_horizon

let canonical_breaking_time ?(max_rounds = 1_000_000) config =
  let plan =
    Canonical.plan_of_run (Election.Fast_classifier.classify config)
  in
  let o = Engine.run ~max_rounds (Canonical.protocol plan) config in
  if not o.Engine.all_terminated then None
  else begin
    let module Tbl = Hashtbl.Make (H) in
    (* Some node's history prefix at the end of global round [r] is held
       by no other awake node. *)
    let sep_at r =
      let prefixes =
        List.filter_map
          (fun v ->
            let wake = o.Engine.wake_round.(v) in
            if wake < 0 || r < wake then None
            else Some (H.sub o.Engine.histories.(v) 0 (r - wake + 1)))
          (List.init (C.size config) Fun.id)
      in
      let count = Tbl.create 16 in
      List.iter
        (fun h ->
          let c = Option.value ~default:0 (Tbl.find_opt count h) in
          Tbl.replace count h (c + 1))
        prefixes;
      List.exists
        (fun h -> Option.equal Int.equal (Tbl.find_opt count h) (Some 1))
        prefixes
    in
    let limit = Engine.completion_round o in
    let rec find r =
      if r > limit then None else if sep_at r then Some r else find (r + 1)
    in
    find 0
  end
