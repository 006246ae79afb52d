(* Implementation note.  The wrapper instance has two modes:

   - [Waiting k]: the node woke up spontaneously and has completed [k] local
     rounds, all listening, none of which delivered a message, with [k < σ].
   - [Running inner]: the inner instance of [D] has been started; its local
     round 0 was the outer local round [s_w].

   The transition happens in [observe]: when the entry of outer round [j]
   is a message (then [s_w = rcv_w = j]) or when [j = σ] (then [s_w = σ]),
   the inner instance is spawned and fed that entry as its wake-up.  A forced
   outer wake-up, or [σ = 0], starts the inner instance immediately with the
   outer wake-up entry ([s_w = 0]). *)

type mode =
  | Waiting of int
  | Running of Protocol.instance

let make ~sigma d =
  if sigma < 0 then invalid_arg "Patient.make: sigma must be >= 0";
  let spawn () =
    let mode = ref (Waiting 0) in
    let start entry =
      let inner = d.Protocol.spawn () in
      inner.Protocol.on_wakeup entry;
      mode := Running inner
    in
    let observe e =
      match !mode with
      | Running inner -> inner.Protocol.observe e
      | Waiting k -> (
          let j = k + 1 in
          match e with
          | History.Message _ -> start e
          | History.Silence | History.Collision ->
              if j = sigma then start e else mode := Waiting j)
    in
    (* Quiet horizons and skips belong to the inner instance.  A waiting
       wrapper answers [Listen], so it is sent a [skip] only by a caller
       that batches plain silent rounds; it replays them one by one. *)
    let rec skip k =
      if k > 0 then
        match !mode with
        | Running inner -> inner.Protocol.skip k
        | Waiting _ ->
            observe History.Silence;
            skip (k - 1)
    in
    {
      Protocol.on_wakeup =
        (fun e ->
          match e with
          | History.Message _ -> start e
          | History.Silence | History.Collision ->
              if sigma = 0 then start e else mode := Waiting 0);
      decide =
        (fun () ->
          match !mode with
          | Waiting _ -> Protocol.Listen
          | Running inner -> inner.Protocol.decide ());
      observe;
      skip;
    }
  in
  { Protocol.name = Printf.sprintf "patient(%s,σ=%d)" d.Protocol.name sigma; spawn }

let start_round ~sigma h =
  if sigma < 0 then invalid_arg "Patient.start_round: sigma must be >= 0";
  let len = History.length h in
  if len = 0 then invalid_arg "Patient.start_round: empty history";
  match History.get h 0 with
  | History.Message _ -> 0
  | History.Silence | History.Collision ->
      History.fold
        (fun s i e ->
          match e with
          | History.Message _ when i >= 1 && i < s -> i
          | History.Message _ | History.Silence | History.Collision -> s)
        (min sigma (len - 1))
        h

let decision ~sigma f h =
  let s = start_round ~sigma h in
  f (History.sub h s (History.length h - s))
