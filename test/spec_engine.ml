module C = Radio_config.Config
module G = Radio_graph.Graph
module H = Radio_drip.History
module P = Radio_drip.Protocol
module Engine = Radio_sim.Engine

type result = {
  histories : H.t array;
  wake_round : int array;
  forced : bool array;
  done_local : int array;
  all_terminated : bool;
}

(* The immutable per-node view the specification folds over.  [events] is
   the reversed list of history entries including the wake-up entry. *)
type node = {
  id : int;
  instance : P.instance option;  (* None while asleep *)
  woke_at : int;
  was_forced : bool;
  finished : int;  (* done_v, -1 while running *)
  events : H.entry list;
}

let asleep id =
  { id; instance = None; woke_at = -1; was_forced = false; finished = -1; events = [] }

type action_taken =
  | Slept
  | Sent of string
  | Heard  (* listened; entry determined later *)
  | Stopped  (* terminated this round *)
  | Already_done

(* What each awake node does this round, by asking its instance. *)
let intent round node =
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

let run ?(max_rounds = 100_000) proto config =
  let g = C.graph config in
  let n = C.size config in
  let rec loop round nodes =
    let finished_everywhere =
      List.for_all (fun node -> node.finished >= 0) nodes
    in
    if finished_everywhere || round >= max_rounds then (nodes, finished_everywhere)
    else begin
      (* Phase A: each awake node picks an action. *)
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
            | Heard | Slept | Stopped | Already_done -> node)
          nodes intents
      in
      (* Phase C: wake-ups. *)
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
                | _ when C.tag config node.id = round -> wake H.Silence false
                | _ -> node)
            | Sent _ | Heard | Stopped | Already_done -> node)
          nodes intents
      in
      loop (round + 1) nodes
    end
  in
  let nodes, all_terminated = loop 0 (List.init n asleep) in
  let by_id = Array.make n (asleep 0) in
  List.iter (fun node -> by_id.(node.id) <- node) nodes;
  {
    histories =
      Array.map
        (fun node -> H.of_array (Array.of_list (List.rev node.events)))
        by_id;
    wake_round = Array.map (fun node -> node.woke_at) by_id;
    forced = Array.map (fun node -> node.was_forced) by_id;
    done_local = Array.map (fun node -> node.finished) by_id;
    all_terminated;
  }

let agrees_with_engine r (o : Engine.outcome) =
  Array.for_all2 H.equal r.histories o.Engine.histories
  && r.wake_round = o.Engine.wake_round
  && r.forced = o.Engine.forced
  && r.done_local = o.Engine.done_local
  && r.all_terminated = o.Engine.all_terminated
