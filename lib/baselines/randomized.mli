(** Randomized leader election with collision detection in single-hop
    networks — the classic tree-splitting contention resolution of
    Capetanakis/Tsybakov–Mikhailov/Willard referenced in the paper's related
    work (Section 1.3).

    This is the regime the paper contrasts with: once randomness is allowed,
    anonymous single-hop election takes expected [O(log n)] rounds even
    without wake-up-time asymmetry.  The baseline quantifies the price of
    determinism in experiment E9.

    Protocol (all nodes wake in round 0; phases of two rounds):
    - {e contend}: every still-active node transmits its nonce bit with
      probability 1/2;
    - {e echo}: if the contend round carried exactly one transmission, that
      transmitter claims victory by transmitting again; everyone else hears
      the claim (single-hop!) and becomes a non-leader.  On a collision, the
      transmitters stay active and the silent nodes drop out if at least one
      node transmitted; on silence, everyone still active stays active.

    Termination: the winner terminates after its claim; losers terminate
    when they hear a claim.  With probability 1 a unique leader emerges;
    the expected number of phases is [O(log n)]. *)

val ack_msg : string
(** The acknowledgement ending the claim/ack probe, here and in {!Willard}
    and {!Bit_tournament}. *)

val decision : Radio_drip.History.t -> bool
(** The probe's winner: its last entry is the acknowledgement, or a
    collision of acknowledgements. *)

val election : rng:Random.State.t -> Radio_sim.Runner.election
(** An election bundle for complete-graph (single-hop) configurations in
    which all nodes share the same wake-up tag.  The protocol draws coins
    from [rng]; distinct spawns share it (the simulator spawns sequentially,
    so runs are reproducible given the seed). *)

val measure_rounds :
  rng:Random.State.t -> n:int -> trials:int -> float
(** Mean global completion round over [trials] runs on the all-awake
    [n]-clique. *)
