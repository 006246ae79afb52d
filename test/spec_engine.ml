module C = Radio_config.Config
module G = Radio_graph.Graph
module H = Radio_drip.History
module P = Radio_drip.Protocol
module FP = Radio_sim.Fault_plan
module Engine = Radio_sim.Engine

type result = {
  histories : H.t array;
  wake_round : int array;
  forced : bool array;
  done_local : int array;
  all_terminated : bool;
  rounds : int;
  crashed_at : int array;
  departed_at : int array;
  ledger : Engine.fired list;
}

(* The immutable per-node view the specification folds over.  [events] is
   the reversed list of history entries including the wake-up entry, of the
   node's current incarnation. *)
type node = {
  id : int;
  instance : P.instance option;  (* None while asleep *)
  woke_at : int;
  was_forced : bool;
  finished : int;  (* done_v, -1 while running *)
  events : H.entry list;
  alarm : int;  (* the global round of a spontaneous wake-up *)
  crashed : int;  (* -1 unless crash-stopped *)
  departed : int;  (* -1 unless absent (left, not rejoined) *)
}

let asleep config id =
  {
    id;
    instance = None;
    woke_at = -1;
    was_forced = false;
    finished = -1;
    events = [];
    alarm = C.tag config id;
    crashed = -1;
    departed = -1;
  }

let live node = node.crashed < 0 && node.departed < 0

type action_taken =
  | Slept
  | Sent of string
  | Heard  (* listened; entry determined later *)
  | Stopped  (* terminated this round *)
  | Already_done
  | Gone  (* crashed or absent: neither acts, hears nor wakes *)

(* What each awake node does this round, by asking its instance. *)
let intent round node =
  if not (live node) then (node, Gone)
  else
    match node.instance with
    | None -> (node, Slept)
    | Some inst ->
        (* Any awake node woke in an earlier round's Phase C, so its local
           round here is [round - woke_at >= 1]. *)
        if node.finished >= 0 then (node, Already_done)
        else begin
          match P.per_round (inst.P.decide ()) with
          | P.Terminate ->
              ({ node with finished = round - node.woke_at }, Stopped)
          | P.Transmit m -> (node, Sent m)
          | P.Listen | P.Quiet _ -> (node, Heard)
        end

let entry_for_listener nodes intents g v =
  let transmitting =
    List.filter_map
      (fun (n, a) ->
        match a with
        | Sent m when G.mem_edge g v n.id -> Some m
        | _ -> None)
      (List.combine nodes intents)
  in
  match transmitting with
  | [] -> H.Silence
  | [ m ] -> H.Message m
  | _ -> H.Collision

(* The plan's faults of round [r], in normalized order, with what each one
   changes: a leave of a present node, a join of an absent one that never
   crashed (a fresh incarnation, alarm at [max tag r]) and a retag of a
   sleeping one that moves its alarm fire; the rest are inert. *)
let apply_topology plan r nodes ledger =
  let fire fault observed_by ledger =
    { Engine.round = r; fault; observed_by } :: ledger
  in
  List.fold_left
    (fun (nodes, ledger) f ->
      let edit v change =
        List.map (fun node -> if node.id = v then change node else node) nodes
      in
      let find v = List.find (fun node -> node.id = v) nodes in
      match f with
      | FP.Leave { node = v; round } when round = r && live (find v) ->
          let running = (find v).finished < 0 in
          ( edit v (fun node -> { node with departed = r }),
            fire f (if running then [ v ] else []) ledger )
      | FP.Join { node = v; round; tag }
        when round = r && (find v).departed >= 0 && (find v).crashed < 0 ->
          ( edit v (fun node ->
                { node with
                  instance = None;
                  woke_at = -1;
                  was_forced = false;
                  finished = -1;
                  events = [];
                  alarm = max tag r;
                  departed = -1;
                }),
            fire f [ v ] ledger )
      | FP.Retag { node = v; round; tag }
        when round = r
             && live (find v)
             && (find v).instance = None
             && max tag r <> (find v).alarm ->
          ( edit v (fun node -> { node with alarm = max tag r }),
            fire f [ v ] ledger )
      | _ -> (nodes, ledger))
    (nodes, ledger) plan

(* Crash-stops of round [r]: a node dies at its earliest crash round if it
   is present and has not terminated. *)
let apply_crashes plan r nodes ledger =
  List.fold_left
    (fun (nodes, ledger) node ->
      match FP.crash_round plan node.id with
      | Some c when c = r && live node && node.finished < 0 ->
          ( List.map
              (fun x -> if x.id = node.id then { x with crashed = r } else x)
              nodes,
            { Engine.round = r; fault = FP.Crash { node = node.id; round = r };
              observed_by = [] }
            :: ledger )
      | _ -> (nodes, ledger))
    (nodes, ledger) nodes

let run ?(max_rounds = 100_000) ?(plan = FP.empty) proto config =
  let plan = FP.normalize plan in
  List.iter
    (function
      | FP.Crash _ | FP.Leave _ | FP.Join _ | FP.Retag _ -> ()
      | FP.Drop _ | FP.Noise _ | FP.Jitter _ | FP.Link_down _ | FP.Link_up _ ->
          invalid_arg "Spec_engine.run: crash, leave, join and retag only")
    plan;
  let g = C.graph config in
  let n = C.size config in
  let rec loop round nodes ledger =
    let running node = live node && node.finished < 0 in
    if (not (List.exists running nodes)) || round >= max_rounds then
      (round, nodes, ledger)
    else begin
      (* Phase T and 0: topology events, then crash-stops. *)
      let nodes, ledger = apply_topology plan round nodes ledger in
      let nodes, ledger = apply_crashes plan round nodes ledger in
      (* Phase A: each live awake node picks an action. *)
      let stepped = List.map (intent round) nodes in
      let nodes = List.map fst stepped in
      let intents = List.map snd stepped in
      (* Phase B: receptions. *)
      let nodes =
        List.map2
          (fun node action ->
            match action with
            | Sent _ ->
                (match node.instance with
                | Some inst -> inst.P.observe H.Silence
                (* radiolint: allow assert-false — Sent implies a live,
                   spawned instance (phase A only polls awake nodes). *)
                | None -> assert false);
                { node with events = H.Silence :: node.events }
            | Heard when node.instance <> None && node.woke_at < round
                        && node.finished < 0 ->
                let e = entry_for_listener nodes intents g node.id in
                (match node.instance with
                | Some inst -> inst.P.observe e
                (* radiolint: allow assert-false — the guard just checked
                   node.instance <> None. *)
                | None -> assert false);
                { node with events = e :: node.events }
            | Heard | Slept | Stopped | Already_done | Gone -> node)
          nodes intents
      in
      (* Phase C: wake-ups of live sleeping nodes. *)
      let nodes =
        List.map2
          (fun node action ->
            match action with
            | Slept ->
                let incoming =
                  List.filter_map
                    (fun (other, a) ->
                      match a with
                      | Sent m when G.mem_edge g node.id other.id -> Some m
                      | _ -> None)
                    (List.combine nodes intents)
                in
                let wake entry forcedp =
                  let inst = proto.P.spawn () in
                  inst.P.on_wakeup entry;
                  {
                    node with
                    instance = Some inst;
                    woke_at = round;
                    was_forced = forcedp;
                    events = [ entry ];
                  }
                in
                (match incoming with
                | [ m ] -> wake (H.Message m) true
                | _ when node.alarm = round -> wake H.Silence false
                | _ -> node)
            | Sent _ | Heard | Stopped | Already_done | Gone -> node)
          nodes intents
      in
      loop (round + 1) nodes ledger
    end
  in
  let rounds, nodes, ledger = loop 0 (List.init n (asleep config)) [] in
  let by_id = Array.make n (asleep config 0) in
  List.iter (fun node -> by_id.(node.id) <- node) nodes;
  {
    histories =
      Array.map
        (fun node -> H.of_array (Array.of_list (List.rev node.events)))
        by_id;
    wake_round = Array.map (fun node -> node.woke_at) by_id;
    forced = Array.map (fun node -> node.was_forced) by_id;
    done_local = Array.map (fun node -> node.finished) by_id;
    all_terminated =
      Array.for_all (fun node -> node.finished >= 0 || not (live node)) by_id;
    rounds;
    crashed_at = Array.map (fun node -> node.crashed) by_id;
    departed_at = Array.map (fun node -> node.departed) by_id;
    ledger = List.rev ledger;
  }

let agrees_with_engine r (o : Engine.outcome) =
  Array.for_all2 H.equal r.histories o.Engine.histories
  && r.wake_round = o.Engine.wake_round
  && r.forced = o.Engine.forced
  && r.done_local = o.Engine.done_local
  && r.all_terminated = o.Engine.all_terminated

let agrees_with_plan_outcome r (o : Engine.plan_outcome) =
  agrees_with_engine r o.Engine.base
  && r.rounds = o.Engine.base.Engine.rounds
  && r.crashed_at = o.Engine.crashed_at
  && r.departed_at = o.Engine.departed_at
  && r.ledger = o.Engine.ledger
