module Config = Radio_config.Config
module Families = Radio_config.Families
module History = Radio_drip.History
module Protocol = Radio_drip.Protocol
module Engine = Radio_sim.Engine
module Runner = Radio_sim.Runner

let first_lonely_transmission ?(horizon = 10_000) proto =
  let inst = proto.Protocol.spawn () in
  inst.Protocol.on_wakeup History.Silence;
  let rec probe round =
    if round > horizon then None
    else
      match Protocol.per_round (inst.Protocol.decide ()) with
      | Protocol.Transmit _ -> Some round
      | Protocol.Terminate -> None
      | Protocol.Listen | Protocol.Quiet _ ->
          inst.Protocol.observe History.Silence;
          probe (round + 1)
  in
  probe 1

type refutation = {
  probe_round : int option;
  counterexample : Config.t;
  counterexample_feasible : bool;
  result : Runner.result;
  refuted : bool;
}

let refute_universal ?horizon ?max_rounds (candidate : Runner.election) =
  let probe_round = first_lonely_transmission ?horizon candidate.Runner.protocol in
  (* The proof of Proposition 4.4: if the candidate's tag-0 nodes first
     transmit in round t, then on H_{t+1} the end nodes a and d are woken by
     those (identical) first messages and the pairs {a, d} and {b, c} stay
     forever symmetric.  A candidate that never transmits keeps all four
     histories of H_1 identical, failing just the same. *)
  let m = match probe_round with Some t -> t + 1 | None -> 1 in
  (* radiolint: allow partiality — m >= 1, since a probe round is >= 0 *)
  let counterexample = Families.h_family m in
  let counterexample_feasible =
    Feasibility.is_feasible counterexample
  in
  let result = Runner.run ?max_rounds candidate counterexample in
  {
    probe_round;
    counterexample;
    counterexample_feasible;
    result;
    refuted = not (Runner.elects_unique_leader result);
  }

type indistinguishability = {
  feasible_config : Config.t;
  infeasible_config : Config.t;
  histories_identical : bool;
  feasible_outcome : Engine.outcome;
  infeasible_outcome : Engine.outcome;
}

let indistinguishability_witness ?horizon ?max_rounds proto =
  let t = first_lonely_transmission ?horizon proto in
  let m = match t with Some t -> t + 1 | None -> 1 in
  let feasible_config = Families.h_family m in
  let infeasible_config = Families.s_family m in
  let feasible_outcome = Engine.run ?max_rounds proto feasible_config in
  let infeasible_outcome = Engine.run ?max_rounds proto infeasible_config in
  let histories_identical =
    Array.length feasible_outcome.Engine.histories
    = Array.length infeasible_outcome.Engine.histories
    && Array.for_all2 History.equal feasible_outcome.Engine.histories
         infeasible_outcome.Engine.histories
  in
  {
    feasible_config;
    infeasible_config;
    histories_identical;
    feasible_outcome;
    infeasible_outcome;
  }

type lower_bound_point = {
  parameter : int;
  n : int;
  sigma : int;
  elected : int option;
  rounds : int;
  bound : int;
}

let dedicated_point config ~parameter ~bound =
  let a = Feasibility.analyze config in
  match Feasibility.verify_by_simulation a with
  | None ->
      invalid_arg "Impossibility.dedicated_point: configuration not feasible"
  | Some result ->
      {
        parameter;
        n = Config.size config;
        sigma = Config.span config;
        elected = result.Runner.leader;
        rounds = Option.value ~default:(-1) result.Runner.rounds_to_elect;
        bound;
      }

let g_family_point m =
  dedicated_point (Families.g_family m) ~parameter:m ~bound:(m - 1)

let h_family_point m =
  dedicated_point (Families.h_family m) ~parameter:m ~bound:m
