module C = Radio_config.Config
module G = Radio_graph.Graph
module H = Radio_drip.History
module P = Radio_drip.Protocol
module Runner = Radio_sim.Runner

let is_complete g =
  let n = G.size g in
  G.num_edges g = n * (n - 1) / 2

let applies config =
  let n = C.size config in
  n >= 1
  && is_complete (C.graph config)
  &&
  let tags = C.tags config in
  let m = Array.fold_left min tags.(0) tags in
  Array.fold_left (fun k t -> if t = m then k + 1 else k) 0 tags = 1

let predicted_leader config =
  if not (applies config) then None
  else begin
    let tags = C.tags config in
    let best = ref 0 in
    Array.iteri (fun v t -> if t < tags.(!best) then best := v) tags;
    Some !best
  end

type state =
  | Woke_spontaneously of int  (* local rounds completed *)
  | Woke_by_message

let protocol =
  P.stateful ~name:"min-beacon"
    ~init:(fun e ->
      match e with
      | H.Silence | H.Collision -> Woke_spontaneously 0
      | H.Message _ -> Woke_by_message)
    ~decide:(fun s ->
      match s with
      | Woke_by_message -> P.Terminate
      | Woke_spontaneously 0 -> P.Transmit "lead"
      | Woke_spontaneously _ -> P.Terminate)
    ~observe:(fun s _ ->
      match s with
      | Woke_spontaneously k -> Woke_spontaneously (k + 1)
      | Woke_by_message -> Woke_by_message)

let decision h = H.length h > 0 && H.equal_entry (H.get h 0) H.Silence

let election = { Runner.protocol; decision }

let election_rounds config = C.min_tag config + 2
