module Protocol = Radio_drip.Protocol
module Canonical = Election.Canonical

let greedy_decision plan =
  let final_class = Canonical.final_class plan in
  {
    Machine.name = "mutant-greedy-decision";
    protocol = Canonical.protocol plan;
    decide = Canonical.pure_drip plan;
    decision = (fun h -> Option.is_some (final_class h));
  }

let early_stop plan =
  let stop =
    match Canonical.local_termination_round plan - 1 with
    | s when s < 1 -> 1
    | s -> s
  in
  let decide h =
    if Radio_drip.History.length h >= stop then Protocol.Terminate
    else Canonical.pure_drip plan h
  in
  let decision = Canonical.decision plan in
  {
    Machine.name = "mutant-early-stop";
    protocol = Protocol.of_pure ~name:"mutant-early-stop" decide;
    decide;
    decision =
      (fun h ->
        (* Truncated histories fall off the plan's schedule. *)
        try decision h with Invalid_argument _ -> false);
  }

let of_name plan = function
  | "mutant-greedy-decision" -> Some (greedy_decision plan)
  | "mutant-early-stop" -> Some (early_stop plan)
  | _ -> None

let names = [ "mutant-greedy-decision"; "mutant-early-stop" ]
