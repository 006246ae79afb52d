module Config = Radio_config.Config
module Engine = Radio_sim.Engine
module Fault_plan = Radio_sim.Fault_plan
module Runner = Radio_sim.Runner
module Fe = Election.Feasibility

type detection =
  | Elected of int
  | No_unique_winner of int list
  | Timed_out

type attempt = {
  index : int;
  config : Config.t;
  repaired : bool;
  timeout : int;
  rounds : int;
  faults_fired : int;
  ledger : Engine.fired list;
  detection : detection;
}

type report = {
  attempts : attempt list;
  leader : int option;
  total_rounds : int;
  reseeds : int;
}

(* Repair the tags when the classifier rejects the configuration; an
   infeasible deployment has no dedicated election to even attempt. *)
let prepare config =
  let a = Fe.analyze config in
  if a.Fe.feasible then (config, a, false)
  else
    match Election.Repair.repair config with
    | Some p ->
        let repaired = p.Election.Repair.repaired in
        (repaired, Fe.analyze repaired, true)
    | None -> (config, a, false)

let reseed ~seed ~attempt original =
  let jitter =
    Fault_plan.sample
      ~seed:(seed + (1_000 * attempt))
      ~jitters:(Config.size original)
      ~horizon:1 original
  in
  Fault_plan.apply_jitter jitter original

let supervise ?(seed = 0xFA17) ?(max_attempts = 5) ?base_timeout ?max_timeout
    ~plan config =
  let max_attempts = max 1 max_attempts in
  let original = config in
  let base_timeout = ref base_timeout in
  let attempts = ref [] in
  let reseeds = ref 0 in
  let leader = ref None in
  let finished = ref false in
  let current = ref config in
  let k = ref 0 in
  while (not !finished) && !k < max_attempts do
    let cfg, analysis, repaired = prepare !current in
    let base =
      match !base_timeout with
      | Some b -> b
      | None ->
          let b =
            (2 * analysis.Fe.election_local_rounds) + Config.span cfg + 2
          in
          base_timeout := Some b;
          b
    in
    let timeout =
      let t = base * (1 lsl min !k 16) in
      match max_timeout with Some m -> min t (max 1 m) | None -> t
    in
    let rounds, ledger, detection =
      match Fe.dedicated_election analysis with
      | None ->
          (* Unrepairable: nothing to run, record the dead attempt. *)
          (0, [], No_unique_winner [])
      | Some election ->
          let o =
            Engine.run_plan ~max_rounds:timeout plan
              election.Runner.protocol cfg
          in
          let detection =
            match Engine.elected election.Runner.decision o with
            | Some v -> Elected v
            | None ->
                if o.Engine.base.Engine.all_terminated then
                  No_unique_winner
                    (Engine.surviving_winners
                       election.Runner.decision o)
                else Timed_out
          in
          ( o.Engine.base.Engine.rounds,
            o.Engine.ledger,
            detection )
    in
    attempts :=
      {
        index = !k;
        config = cfg;
        repaired;
        timeout;
        rounds;
        faults_fired = List.length ledger;
        ledger;
        detection;
      }
      :: !attempts;
    (match detection with
    | Elected v ->
        leader := Some v;
        finished := true
    | No_unique_winner _ | Timed_out ->
        if !k + 1 < max_attempts then begin
          current := reseed ~seed ~attempt:(!k + 1) original;
          incr reseeds
        end);
    incr k
  done;
  let attempts = List.rev !attempts in
  {
    attempts;
    leader = !leader;
    total_rounds = List.fold_left (fun s a -> s + a.rounds) 0 attempts;
    reseeds = !reseeds;
  }

let pp_detection ppf = function
  | Elected v -> Format.fprintf ppf "elected node %d" v
  | No_unique_winner [] -> Format.fprintf ppf "no winner"
  | No_unique_winner ws ->
      Format.fprintf ppf "no unique winner (%s)"
        (String.concat "," (List.map string_of_int ws))
  | Timed_out -> Format.fprintf ppf "timed out"

let pp ppf r =
  List.iter
    (fun a ->
      Format.fprintf ppf
        "attempt %d: timeout %d, %d rounds, %d faults fired%s -> %a@."
        a.index a.timeout a.rounds a.faults_fired
        (if a.repaired then ", tags repaired" else "")
        pp_detection a.detection)
    r.attempts;
  (match r.leader with
  | Some v ->
      Format.fprintf ppf "supervisor: leader %d after %d attempt(s)" v
        (List.length r.attempts)
  | None ->
      Format.fprintf ppf "supervisor: gave up after %d attempt(s)"
        (List.length r.attempts));
  Format.fprintf ppf ", %d total rounds, %d reseed(s)@." r.total_rounds
    r.reseeds;
  (* The winning attempt's fired-fault ledger: what the elected leader
     actually survived. *)
  match
    (r.leader, List.filter (fun a -> match a.detection with Elected _ -> true | _ -> false) r.attempts)
  with
  | Some _, [ a ] when a.ledger <> [] ->
      Format.fprintf ppf "faults survived by the elected attempt:@.  @[<v>%a@]@."
        Engine.pp_ledger a.ledger
  | _ -> ()
