module H = Radio_drip.History
module P = Radio_drip.Protocol
module Runner = Radio_sim.Runner

(* The common estimation state advanced identically at every node from the
   shared ternary probe outcomes.  Correctness never depends on the
   estimate: a node only wins on an acknowledged lone transmission, the
   estimate only controls how fast that happens. *)
type search =
  | Doubling of int * int  (* (largest exponent seen colliding, current k) *)
  | Binary of int * int  (* lo collided, hi silent, hi - lo > 1 *)
  | Endgame of int * int * bool  (* lo, hi, probe hi next? *)

type outcome =
  | Out_silence
  | Out_collision

type verdict =
  | Undecided
  | Leader
  | Non_leader

type state = {
  mutable search : search;
  mutable contended : bool;
  mutable heard_lone : bool;
  mutable verdict : verdict;
  mutable echo_round : bool;
}

let max_exponent = 30

let current_exponent = function
  | Doubling (_, k) -> k
  | Binary (lo, hi) -> (lo + hi) / 2
  | Endgame (lo, hi, next_hi) -> if next_hi || lo = 0 then hi else lo

let narrow lo hi =
  if hi - lo <= 1 then Endgame (lo, hi, true) else Binary (lo, hi)

let advance search outcome =
  match (search, outcome) with
  | Doubling (_, k), Out_collision ->
      Doubling (k, min (2 * k) max_exponent)
  | Doubling (lo, k), Out_silence -> narrow lo k
  | Binary (lo, hi), Out_collision -> narrow ((lo + hi) / 2) hi
  | Binary (lo, hi), Out_silence -> narrow lo ((lo + hi) / 2)
  | Endgame (lo, hi, next_hi), (Out_collision | Out_silence) ->
      Endgame (lo, hi, not next_hi)

let contend_msg = "c"
let ack_msg = Randomized.ack_msg

let protocol ~rng =
  let spawn () =
    let s =
      {
        search = Doubling (0, 1);
        contended = false;
        heard_lone = false;
        verdict = Undecided;
        echo_round = false;
      }
    in
    let decide () =
      match s.verdict with
      | Leader | Non_leader -> P.Terminate
      | Undecided ->
          if not s.echo_round then begin
            s.contended <- false;
            s.heard_lone <- false;
            let k = current_exponent s.search in
            (* Bernoulli(2^-k): k fair bits, all zero ([k <= max_exponent =
               30], within Random's 30-bit word). *)
            if Random.State.bits rng land ((1 lsl k) - 1) = 0 then begin
              s.contended <- true;
              P.Transmit contend_msg
            end
            else P.Listen
          end
          else if s.heard_lone then P.Transmit ack_msg
          else P.Listen
    in
    (* A pure listener resolves the probe outcome at echo time from the
       contend-round entry it remembered in [last_contend]. *)
    let last_contend = ref H.Silence in
    let observe e =
      if not s.echo_round then begin
        last_contend := e;
        (match e with
        | H.Message _ -> s.heard_lone <- true
        | H.Silence | H.Collision -> ());
        s.echo_round <- true
      end
      else begin
        (if s.contended then
           match e with
           | H.Message _ | H.Collision -> s.verdict <- Leader
           | H.Silence -> s.search <- advance s.search Out_collision
         else if s.heard_lone then s.verdict <- Non_leader
         else
           match !last_contend with
           | H.Silence -> s.search <- advance s.search Out_silence
           | H.Collision -> s.search <- advance s.search Out_collision
           | H.Message _ -> assert false (* heard_lone would be set *));
        s.echo_round <- false
      end
    in
    {
      P.on_wakeup = (fun _ -> ());
      decide;
      observe;
      skip = P.skip_by_observe observe;
    }
  in
  { P.name = "willard-estimation"; spawn }

let election ~rng =
  { Runner.protocol = protocol ~rng; decision = Randomized.decision }

let measure_rounds ~rng ~n ~trials =
  if n < 2 then invalid_arg "Willard.measure_rounds: need n >= 2";
  if trials < 1 then invalid_arg "Willard.measure_rounds: need trials >= 1";
  let config = Radio_config.Config.uniform (Radio_graph.Gen.complete n) 0 in
  let total = ref 0 in
  for _ = 1 to trials do
    let r = Runner.run ~max_rounds:1_000_000 (election ~rng) config in
    match r.Runner.rounds_to_elect with
    | Some rounds -> total := !total + rounds
    | None -> invalid_arg "Willard.measure_rounds: election did not finish"
  done;
  float_of_int !total /. float_of_int trials
