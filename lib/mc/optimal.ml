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
    let n = C.size config in
    let prefix v r =
      (* node v's history prefix at the end of global round r; None = ⊥ *)
      let wake = o.Engine.wake_round.(v) in
      if wake < 0 || r < wake then None
      else
        let len = min (r - wake + 1) (Array.length o.Engine.histories.(v)) in
        Some (Array.sub o.Engine.histories.(v) 0 len)
    in
    let sep_at r =
      let keys = Array.init n (fun v -> prefix v r) in
      let unique v =
        match keys.(v) with
        | None -> false
        | Some h ->
            let rec check w =
              w >= n
              || ((w = v
                  ||
                  match keys.(w) with
                  | None -> true
                  | Some h' -> not (H.equal h h'))
                 && check (w + 1))
            in
            check 0
      in
      let rec any v = v < n && (unique v || any (v + 1)) in
      any 0
    in
    let limit = Engine.completion_round o in
    let rec find r =
      if r > limit then None else if sep_at r then Some r else find (r + 1)
    in
    find 0
  end
