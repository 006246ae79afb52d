(** The patient transform of Lemma 3.12.

    Given any DRIP [D] and the span [σ] of the target configuration,
    [make ~sigma d] is the DRIP [D_pat] that listens for the first
    [s_w = min σ rcv_w] local rounds ([rcv_w] = first local round a message
    is received, counting a forced wake-up as round 0) and then simulates [D]
    with the history suffix starting at round [s_w].  Lemma 3.12 proves:

    - [D_pat] is {e patient}: executed on a configuration of span [σ], no
      node transmits in global rounds [0 .. σ], hence all nodes wake up
      spontaneously;
    - composing decision functions accordingly, [D_pat] elects a leader
      whenever [D] does.

    [decision ~sigma f] is the corresponding decision-function transform
    [f_pat]: it locates [s_w] in the full history and applies [f] to the
    suffix. *)

val make : sigma:int -> Protocol.t -> Protocol.t

val decision : sigma:int -> (History.t -> bool) -> History.t -> bool

val start_round : sigma:int -> History.t -> int
(** [start_round ~sigma h] is [s_w] for the (complete or prefix) history [h]:
    [0] if entry 0 of [h] is a forced wake-up, otherwise the index of the first
    [Message] entry among rounds [1 .. σ], or [σ] if there is none.  Exposed
    for tests. *)
