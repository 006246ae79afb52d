module Config = Radio_config.Config
module History = Radio_drip.History
module Protocol = Radio_drip.Protocol
module Engine = Radio_sim.Engine

type outcome = {
  leader : int option;
  converged : bool;
  frames : int;
  rounds : int;
  engine : Engine.outcome;
}

type node_state = {
  id : int;
  mutable best : int;
  mutable fresh : bool;  (* champion changed during the previous frame *)
  mutable slot : int;  (* 0 .. id_bound - 1 within the current frame *)
  mutable frame : int;
  mutable next_best : int;  (* champion learned during the current frame *)
}

let run ?frames ?ids config =
  let n = Config.size config in
  if n = 0 then invalid_arg "Labeled.run: empty configuration";
  let tags = Config.tags config in
  if not (Array.for_all (fun t -> t = tags.(0)) tags) then
    invalid_arg "Labeled.run: wake-up tags must be uniform";
  let ids = Option.value ids ~default:(Array.init n Fun.id) in
  if Array.length ids <> n then invalid_arg "Labeled.run: ids length mismatch";
  if List.length (List.sort_uniq compare (Array.to_list ids)) <> n then
    invalid_arg "Labeled.run: ids must be pairwise distinct";
  Array.iter (fun id -> if id < 0 then invalid_arg "Labeled.run: negative id") ids;
  let frames = Option.value frames ~default:n in
  let id_bound = 1 + Array.fold_left max 0 ids in
  let counter = ref 0 in
  (* Registry of per-node states, indexed by spawn order; with uniform tags
     the engine wakes nodes in index order, so spawn order = node order. *)
  let registry = Array.make n None in
  let spawn () =
    let node = !counter in
    incr counter;
    if node >= n then invalid_arg "Labeled.run: more spawns than nodes";
    let id = ids.(node) in
    let s = { id; best = id; fresh = true; slot = 0; frame = 0; next_best = id } in
    registry.(node) <- Some s;
    let decide () =
      if s.frame >= frames then Protocol.Terminate
      else if s.fresh && s.slot = s.best then Protocol.Transmit (string_of_int s.best)
      else Protocol.Listen
    in
    let observe e =
      (* Any energy in slot k announces champion k: a lone message and a
         collision are equally informative here. *)
      (match e with
      | History.Message _ | History.Collision ->
          if s.slot > s.next_best then s.next_best <- s.slot
      | History.Silence -> ());
      s.slot <- s.slot + 1;
      if s.slot = id_bound then begin
        s.slot <- 0;
        s.frame <- s.frame + 1;
        s.fresh <- s.next_best > s.best;
        s.best <- s.next_best
      end
    in
    {
      Protocol.on_wakeup = (fun _ -> ());
      decide;
      observe;
      skip = Protocol.skip_by_observe observe;
    }
  in
  let protocol = { Protocol.name = "labeled-tdma-maxflood"; spawn } in
  let engine = Engine.run ~max_rounds:((frames * id_bound) + tags.(0) + 8) protocol config in
  let states =
    Array.map
      (function
        | Some s -> s
        | None -> invalid_arg "Labeled.run: node never woke up")
      registry
  in
  let global_max = Array.fold_left (fun acc s -> max acc s.id) 0 states in
  let converged = Array.for_all (fun s -> s.best = global_max) states in
  let champions = ref [] in
  Array.iteri
    (fun node s -> if s.best = s.id then champions := node :: !champions)
    states;
  let leader = match !champions with [ v ] -> Some v | _ -> None in
  { leader; converged; frames; rounds = engine.Engine.rounds; engine }

let run_random_ids ~rng ?frames config =
  let n = Config.size config in
  if n = 0 then invalid_arg "Labeled.run_random_ids: empty configuration";
  let bound = max 1 (n * n * n) in
  let rec draw () =
    let ids =
      Array.init n (fun _ ->
          (* bound can exceed Random's 2^30 cap for n >= 1024; clamp *)
          Random.State.int rng (min bound ((1 lsl 30) - 1)))
    in
    if List.length (List.sort_uniq compare (Array.to_list ids)) = n then ids
    else draw ()
  in
  run ?frames ~ids:(draw ()) config
