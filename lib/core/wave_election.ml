module C = Radio_config.Config
module G = Radio_graph.Graph
module Props = Radio_graph.Props
module H = Radio_drip.History
module P = Radio_drip.Protocol
module Runner = Radio_sim.Runner

let unique_zero_node config =
  let tags = C.tags config in
  let zeros = ref [] in
  Array.iteri (fun v t -> if t = 0 then zeros := v :: !zeros) tags;
  match !zeros with [ v ] -> Some v | _ -> None

let applies config =
  C.size config >= 1
  && C.is_connected config
  && C.is_normalized config
  &&
  match unique_zero_node config with
  | None -> false
  | Some root ->
      let g = C.graph config in
      let dist = Props.bfs_distances g root in
      let ok = ref true in
      for v = 0 to C.size config - 1 do
        if v <> root then begin
          if C.tag config v < dist.(v) then ok := false;
          let parents =
            G.fold_neighbours g v ~init:0 ~f:(fun k u ->
                if dist.(u) = dist.(v) - 1 then k + 1 else k)
          in
          if parents <> 1 then ok := false
        end
      done;
      !ok

let predicted_leader config =
  if applies config then unique_zero_node config else None

type state =
  | Spontaneous of int  (* local rounds completed *)
  | Relay of int

let protocol =
  P.stateful ~name:"wave-election"
    ~init:(fun e ->
      match e with
      | H.Silence | H.Collision -> Spontaneous 0
      | H.Message _ -> Relay 0)
    ~decide:(fun s ->
      match s with
      | Spontaneous 0 -> P.Transmit "wave"
      | Relay 0 -> P.Transmit "wave"
      | Spontaneous _ | Relay _ -> P.Terminate)
    ~observe:(fun s _ ->
      match s with
      | Spontaneous k -> Spontaneous (k + 1)
      | Relay k -> Relay (k + 1))

let decision h = H.length h > 0 && H.equal_entry (H.get h 0) H.Silence

let election = { Runner.protocol; decision }

let election_rounds config =
  if not (applies config) then None
  else
    match unique_zero_node config with
    | None -> None
    | Some root ->
        (* Leaves at distance ecc wake at global ecc and terminate at local
           round 2, i.e. global ecc + 2. *)
        (* radiolint: allow partiality — applies checked connectivity *)
        Some (Props.eccentricity (C.graph config) root + 2)
