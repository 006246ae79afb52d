module H = Radio_drip.History
module P = Radio_drip.Protocol
module Runner = Radio_sim.Runner

let bits_for n =
  let rec log2 k acc = if k <= 1 then acc else log2 ((k + 1) / 2) (acc + 1) in
  3 * log2 n 0

(* [Random.State.int] caps its bound below 2^30; identifiers can need more
   bits than that, so draw 30-bit words and concatenate. *)
let random_bits rng b =
  if b > 60 then invalid_arg "Bit_tournament: identifier too wide";
  let word () = Random.State.bits rng in
  if b <= 30 then word () land ((1 lsl b) - 1)
  else word () lor ((word () land ((1 lsl (b - 30)) - 1)) lsl 30)

let rounds ~n = bits_for n + 3

type phase =
  | Scanning of int  (* next bit index, MSB first *)
  | Claim  (* active nodes transmit their claim *)
  | Ack  (* heard-lone nodes acknowledge *)
  | Finished of bool  (* leader? *)

type state = {
  id : int;
  mutable active : bool;
  mutable phase : phase;
  mutable claimed : bool;
  mutable heard_lone : bool;
}

let claim_msg = "claim"
let ack_msg = Randomized.ack_msg

let election ~rng ~n =
  if n < 2 then invalid_arg "Bit_tournament.election: need n >= 2";
  let bits = bits_for n in
  let spawn () =
    let s =
      {
        id = random_bits rng bits;
        active = true;
        phase = Scanning (bits - 1);
        claimed = false;
        heard_lone = false;
      }
    in
    let decide () =
      match s.phase with
      | Finished _ -> P.Terminate
      | Scanning bit ->
          if s.active && s.id land (1 lsl bit) <> 0 then
            P.Transmit (string_of_int bit)
          else P.Listen
      | Claim ->
          if s.active then begin
            s.claimed <- true;
            P.Transmit claim_msg
          end
          else P.Listen
      | Ack -> if s.heard_lone then P.Transmit ack_msg else P.Listen
    in
    let observe e =
      match s.phase with
      | Finished _ -> ()
      | Scanning bit ->
          (* A 0-bit active node that hears energy is outbid. *)
          (if s.active && s.id land (1 lsl bit) = 0 then
             match e with
             | H.Message _ | H.Collision -> s.active <- false
             | H.Silence -> ());
          s.phase <- (if bit = 0 then Claim else Scanning (bit - 1))
      | Claim ->
          (match e with
          | H.Message m when String.equal m claim_msg -> s.heard_lone <- true
          | H.Message _ | H.Collision | H.Silence -> ());
          s.phase <- Ack
      | Ack ->
          let leader =
            s.claimed
            &&
            match e with
            | H.Message _ | H.Collision -> true (* my claim was acknowledged *)
            | H.Silence -> false
          in
          s.phase <- Finished leader
    in
    {
      P.on_wakeup = (fun _ -> ());
      decide;
      observe;
      skip = P.skip_by_observe observe;
    }
  in
  let protocol = { P.name = "bit-tournament"; spawn } in
  { Runner.protocol; decision = Randomized.decision }

let success_rate ~rng ~n ~trials =
  if trials < 1 then invalid_arg "Bit_tournament.success_rate: need trials >= 1";
  let config = Radio_config.Config.uniform (Radio_graph.Gen.complete n) 0 in
  let wins = ref 0 in
  for _ = 1 to trials do
    let r = Runner.run ~max_rounds:100_000 (election ~rng ~n) config in
    if Runner.elects_unique_leader r then incr wins
  done;
  float_of_int !wins /. float_of_int trials
