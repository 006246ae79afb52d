module Config = Radio_config.Config
module Engine = Radio_sim.Engine
module Fault_plan = Radio_sim.Fault_plan
module Runner = Radio_sim.Runner
module Fe = Election.Feasibility
module I = Election.Incremental

type epoch = {
  index : int;
  round : int;
  events : Fault_plan.t;
  edits_applied : int;
  labels_computed : int;
  labels_reused : int;
  rebuilds : int;
  live : int;
  feasible : bool;
  repaired : bool;
  attempts : int;
  election_rounds : int;
  re_elected : bool;
  leader : int option;
}

type report = {
  horizon : int;
  epochs : epoch list;
  availability : float;
  re_elections : int;
  total_election_rounds : int;
  stats : I.stats;
  final_leader : int option;
}

(* The epochs, from one pass over the normalized plan: each boundary —
   round 0 for the cold-start election, and every round inside the
   horizon at which the plan reshapes the topology — with its events in
   the engine's application order: topology events (normalized order)
   first, then crashes. *)
let schedule plan horizon =
  (* drops, noise and jitter never set a boundary *)
  let round_of = function
    | Fault_plan.Crash { round; _ }
    | Fault_plan.Link_down { round; _ }
    | Fault_plan.Link_up { round; _ }
    | Fault_plan.Leave { round; _ }
    | Fault_plan.Join { round; _ }
    | Fault_plan.Retag { round; _ } ->
        round
    | Fault_plan.Drop _ | Fault_plan.Noise _ | Fault_plan.Jitter _ -> horizon
  in
  let topo, crashes =
    List.partition
      (function Fault_plan.Crash _ -> false | _ -> true)
      (List.filter (fun f -> round_of f < horizon) (Fault_plan.normalize plan))
  in
  (* A stable sort keeps each round's topology events before its crashes,
     both in normalized order. *)
  let events =
    List.stable_sort
      (fun a b -> Int.compare (round_of a) (round_of b))
      (topo @ crashes)
  in
  let rec group = function
    | [] -> []
    | f :: rest -> (
        let r = round_of f in
        match group rest with
        | (r', fs) :: tail when r' = r -> (r, f :: fs) :: tail
        | tail -> (r, [ f ]) :: tail)
  in
  let epochs = group events in
  if List.mem_assoc 0 epochs then epochs
  else List.merge (fun (a, _) (b, _) -> Int.compare a b) [ (0, []) ] epochs

(* An event that asks for a state the network is already in (flapping a
   link down twice, a leave of an absent node) is inert, exactly as in the
   engine's ledger semantics: it maps to no edit. *)
let edits_of_event st crashed f =
  match f with
  | Fault_plan.Link_down { u; v; _ } -> [ I.Remove_edge (u, v) ]
  | Fault_plan.Link_up { u; v; _ } -> [ I.Add_edge (u, v) ]
  | Fault_plan.Leave { node; _ } ->
      if I.present st node then [ I.Leave node ] else []
  | Fault_plan.Join { node; tag; _ } ->
      if (not (I.present st node)) && not crashed.(node) then
        [ I.Join (node, tag) ]
      else []
  | Fault_plan.Retag { node; tag; _ } ->
      if I.present st node && I.tag st node <> tag then
        [ I.Set_tag (node, tag) ]
      else []
  | Fault_plan.Crash { node; _ } ->
      crashed.(node) <- true;
      if I.present st node then [ I.Leave node ] else []
  | Fault_plan.Drop _ | Fault_plan.Noise _ | Fault_plan.Jitter _ -> []

(* Link events may name an edge the universe graph does not (or already
   does) carry — e.g. a link-up replayed after a join recreated the node.
   Those are inert, not errors. *)
let apply_maybe st e =
  match I.apply st e with
  | st' -> Some st'
  | exception Invalid_argument _ -> None

(* Write a repair plan back into the incremental state as tag edits.  The
   repair ran on the induced (normalized) configuration, so its new tags
   must be shifted back into raw-tag space before [Set_tag]. *)
let write_back st (rp : Election.Repair.plan) =
  let shift =
    let v0 = I.node_of_current st 0 in
    match I.current st with
    | Some cfg -> I.tag st v0 - Config.tag cfg 0
    | None -> 0
  in
  List.fold_left
    (fun (st, n) (c : Election.Repair.change) ->
      let v = I.node_of_current st c.Election.Repair.node in
      match apply_maybe st (I.Set_tag (v, c.Election.Repair.new_tag + shift)) with
      | Some st' -> (st', n + 1)
      | None -> (st, n))
    (st, 0) rp.Election.Repair.changes

(* Bounded-backoff election on a frozen topology: the dedicated algorithm
   with a doubling round timeout, capped by [max_timeout] and by the
   rounds left in the epoch.  Returns (attempts, rounds spent, elected). *)
let elect ~max_attempts ~max_timeout ~budget (analysis : Fe.analysis) =
  match Fe.dedicated_election analysis with
  | None -> (0, 0, false)
  | Some e ->
      let cfg = analysis.Fe.run.Election.Classifier.config in
      let base =
        (2 * analysis.Fe.election_local_rounds) + Config.span cfg + 2
      in
      let spent = ref 0 in
      let attempts = ref 0 in
      let elected = ref false in
      let k = ref 0 in
      while (not !elected) && !k < max_attempts && budget - !spent > 0 do
        let t = base * (1 lsl min !k 16) in
        let t = match max_timeout with Some m -> min t (max 1 m) | None -> t in
        let t = min t (budget - !spent) in
        let r = Runner.run ~max_rounds:t e cfg in
        incr attempts;
        spent := !spent + r.Runner.outcome.Engine.rounds;
        if r.Runner.leader <> None then elected := true;
        incr k
      done;
      (!attempts, !spent, !elected)

let run ?(max_attempts = 5) ?max_timeout ~plan ~horizon config =
  (* radiolint: allow partiality — anorad churn refuses --horizon < 1 *)
  if horizon <= 0 then invalid_arg "Churn.run: horizon must be positive";
  (match Fault_plan.validate config plan with
  | Ok () -> ()
  (* radiolint: allow partiality — plans come validated (load_plan, sample) *)
  | Error msg -> invalid_arg ("Churn.run: " ^ msg));
  let max_attempts = max 1 max_attempts in
  let n = Config.size config in
  let crashed = Array.make n false in
  let state = ref (I.init config) in
  let standing = ref None in
  let epochs = ref [] in
  let leader_rounds = ref 0 in
  let re_elections = ref 0 in
  let total_election_rounds = ref 0 in
  let epochs_at = Array.of_list (schedule plan horizon) in
  Array.iteri
    (fun index (b, events) ->
      let next =
        if index + 1 < Array.length epochs_at then fst epochs_at.(index + 1)
        else horizon
      in
      let epoch_len = next - b in
      let stats_before = I.stats !state in
      (* Apply the boundary's events as incremental edits. *)
      let edits_applied = ref 0 in
      List.iter
        (fun f ->
          List.iter
            (fun e ->
              match apply_maybe !state e with
              | Some st' ->
                  state := st';
                  incr edits_applied
              | None -> ())
            (edits_of_event !state crashed f))
        events;
      (* Audit the standing leader: departure or crash deposes it. *)
      (match !standing with
      | Some l when not (I.present !state l) -> standing := None
      | _ -> ());
      (* Repair and re-elect only when leaderless. *)
      let repaired = ref false in
      let attempts = ref 0 in
      let election_rounds = ref 0 in
      let re_elected = ref false in
      if !standing = None && I.live !state > 0 then begin
        let analysis () =
          match I.run !state with
          | Some r -> Some (Fe.analyze_run r)
          | None -> None
        in
        let a = analysis () in
        let a =
          match a with
          | Some a when not a.Fe.feasible -> (
              match Option.bind (I.current !state) Election.Repair.repair with
              | Some rp ->
                  let st', k = write_back !state rp in
                  state := st';
                  edits_applied := !edits_applied + k;
                  if k > 0 then repaired := true;
                  analysis ()
              | None -> Some a)
          | _ -> a
        in
        match a with
        | Some a when a.Fe.feasible ->
            let att, spent, elected =
              elect ~max_attempts ~max_timeout ~budget:epoch_len a
            in
            attempts := att;
            election_rounds := spent;
            total_election_rounds := !total_election_rounds + spent;
            if elected then begin
              re_elected := true;
              incr re_elections;
              standing := I.leader !state
            end
        | _ -> ()
      end;
      (* Availability: rounds of this epoch with a leader standing. *)
      (match !standing with
      | Some _ -> leader_rounds := !leader_rounds + epoch_len - !election_rounds
      | None -> ());
      let stats_after = I.stats !state in
      epochs :=
        {
          index;
          round = b;
          events;
          edits_applied = !edits_applied;
          labels_computed = stats_after.I.computed - stats_before.I.computed;
          labels_reused = stats_after.I.reused - stats_before.I.reused;
          rebuilds =
            stats_after.I.full_rebuilds - stats_before.I.full_rebuilds;
          live = I.live !state;
          feasible = I.feasible !state;
          repaired = !repaired;
          attempts = !attempts;
          election_rounds = !election_rounds;
          re_elected = !re_elected;
          leader = !standing;
        }
        :: !epochs)
    epochs_at;
  {
    horizon;
    epochs = List.rev !epochs;
    availability = float_of_int !leader_rounds /. float_of_int horizon;
    re_elections = !re_elections;
    total_election_rounds = !total_election_rounds;
    stats = I.stats !state;
    final_leader = !standing;
  }

let pp ppf r =
  List.iter
    (fun e ->
      Format.fprintf ppf
        "epoch %d @@ round %d: %d event(s), %d edit(s) (%d computed / %d \
         reused%s), %d live, %s%s%s -> %s@."
        e.index e.round (List.length e.events) e.edits_applied
        e.labels_computed e.labels_reused
        (if e.rebuilds > 0 then Printf.sprintf ", %d rebuild(s)" e.rebuilds
         else "")
        e.live
        (if e.feasible then "feasible" else "infeasible")
        (if e.repaired then ", repaired" else "")
        (if e.re_elected then
           Printf.sprintf ", re-elected in %d round(s) (%d attempt(s))"
             e.election_rounds e.attempts
         else if e.attempts > 0 then
           Printf.sprintf ", election failed (%d attempt(s))" e.attempts
         else "")
        (match e.leader with
        | Some l -> Printf.sprintf "leader %d" l
        | None -> "leaderless"))
    r.epochs;
  Format.fprintf ppf
    "churn: availability %.3f over %d rounds, %d re-election(s), %d \
     election round(s), %d edit(s) (%d computed / %d reused / %d rebuilds)%s@."
    r.availability r.horizon r.re_elections r.total_election_rounds
    r.stats.I.edits r.stats.I.computed r.stats.I.reused
    r.stats.I.full_rebuilds
    (match r.final_leader with
    | Some l -> Printf.sprintf ", final leader %d" l
    | None -> ", finally leaderless")
