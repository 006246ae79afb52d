module History = Radio_drip.History
module Protocol = Radio_drip.Protocol
module Runner = Radio_sim.Runner
module Engine = Radio_sim.Engine

type role =
  | Active
  | Passive

type verdict =
  | Undecided
  | Leader
  | Non_leader

type state = {
  mutable role : role;
  mutable contended : bool;  (* transmitted in the last contend round *)
  mutable heard_lone : bool;  (* heard a lone contend message; will ack *)
  mutable verdict : verdict;
  mutable round_parity : bool;  (* false = next round is a contend round *)
}

let contend_msg = "c"
let ack_msg = "a"

let protocol ~rng =
  let spawn () =
    let s =
      {
        role = Active;
        contended = false;
        heard_lone = false;
        verdict = Undecided;
        round_parity = false;
      }
    in
    let decide () =
      match s.verdict with
      | Leader | Non_leader -> Protocol.Terminate
      | Undecided ->
          if not s.round_parity then begin
            (* contend round *)
            s.contended <- false;
            s.heard_lone <- false;
            match s.role with
            | Passive -> Protocol.Listen
            | Active ->
                if Random.State.bool rng then begin
                  s.contended <- true;
                  Protocol.Transmit contend_msg
                end
                else Protocol.Listen
          end
          else if s.heard_lone then Protocol.Transmit ack_msg
          else Protocol.Listen
    in
    let observe e =
      if not s.round_parity then begin
        (* end of a contend round *)
        (match e with
        | History.Message _ -> s.heard_lone <- true
        | History.Collision ->
            (* a collision resolves in favour of the transmitters *)
            if s.role = Active && not s.contended then s.role <- Passive
        | History.Silence -> ());
        s.round_parity <- true
      end
      else begin
        (* end of an echo round *)
        (if s.contended then
           match e with
           | History.Message _ | History.Collision ->
               (* my lone contention was acknowledged *)
               s.verdict <- Leader
           | History.Silence -> ()
         else if s.heard_lone then
           (* I acknowledged the unique claimant *)
           s.verdict <- Non_leader);
        s.round_parity <- false
      end
    in
    {
      Protocol.on_wakeup = (fun _ -> ());
      decide;
      observe;
      skip = Protocol.skip_by_observe observe;
    }
  in
  { Protocol.name = "randomized-splitting"; spawn }

let decision h =
  let len = History.length h in
  len > 0
  &&
  match History.get h (len - 1) with
  | History.Message m -> String.equal m ack_msg
  | History.Collision -> true
  | History.Silence -> false

let election ~rng = { Runner.protocol = protocol ~rng; decision }

let measure_rounds ~rng ~n ~trials =
  if n < 2 then invalid_arg "Randomized.measure_rounds: need n >= 2";
  if trials < 1 then invalid_arg "Randomized.measure_rounds: need trials >= 1";
  let config = Radio_config.Config.uniform (Radio_graph.Gen.complete n) 0 in
  let total = ref 0 in
  for _ = 1 to trials do
    let r = Runner.run ~max_rounds:1_000_000 (election ~rng) config in
    match r.Runner.rounds_to_elect with
    | Some rounds -> total := !total + rounds
    | None -> invalid_arg "Randomized.measure_rounds: election did not finish"
  done;
  float_of_int !total /. float_of_int trials
