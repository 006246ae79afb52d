module H = Radio_drip.History
module Protocol = Radio_drip.Protocol
module Canonical = Election.Canonical
module Min_beacon = Election.Min_beacon
module Wave_election = Election.Wave_election

type t = {
  name : string;
  protocol : Protocol.t;
  decide : H.t -> Protocol.action;
  decision : H.t -> bool;
}

(* The per-round contract interleaves [decide] and [observe] strictly:
   wake-up entry, then for each later entry one (discarded) decision before
   the observation, then the decision under scrutiny, a quiet horizon read
   as [Listen].  The pure view spawns a fresh instance and replays that
   call sequence so that stateful protocols counting decisions behave
   identically. *)
let pure_of_protocol (p : Protocol.t) (h : H.t) =
  let len = H.length h in
  (* radiolint: allow partiality — the checker asks after the wake-up entry *)
  if len = 0 then invalid_arg "Machine.pure_of_protocol: empty history";
  let inst = p.Protocol.spawn () in
  inst.Protocol.on_wakeup (H.get h 0);
  for i = 1 to len - 1 do
    ignore (inst.Protocol.decide ());
    inst.Protocol.observe (H.get h i)
  done;
  Protocol.per_round (inst.Protocol.decide ())

let of_protocol ?name ?(decision = fun _ -> false) protocol =
  let name = Option.value name ~default:protocol.Protocol.name in
  { name; protocol; decide = pure_of_protocol protocol; decision }

let of_election ?name (e : Radio_sim.Runner.election) =
  of_protocol ?name ~decision:e.Radio_sim.Runner.decision
    e.Radio_sim.Runner.protocol

let drip plan =
  {
    name = "drip";
    protocol = Canonical.protocol plan;
    decide = Canonical.pure_drip plan;
    decision = Canonical.decision plan;
  }

let pure_drip plan =
  {
    name = "pure-drip";
    protocol = Canonical.pure_protocol plan;
    decide = Canonical.pure_drip plan;
    decision = Canonical.decision plan;
  }

(* The randomized baselines (Randomized, Willard, Bit_tournament) draw from
   a shared RNG and Labeled keys behaviour on spawn order; both break the
   determinism and anonymity the transition system assumes, so they are
   deliberately absent here (docs/MODELCHECK.md). *)
let of_name plan name =
  match name with
  | "drip" -> Some (drip plan)
  | "pure-drip" -> Some (pure_drip plan)
  | "beacon" -> Some (of_protocol (Protocol.beacon ()))
  | "silent" -> Some (of_protocol (Protocol.silent ()))
  | "min-beacon" -> Some (of_election ~name:"min-beacon" Min_beacon.election)
  | "wave" -> Some (of_election ~name:"wave" Wave_election.election)
  | _ -> None

let names = [ "drip"; "pure-drip"; "beacon"; "silent"; "min-beacon"; "wave" ]
