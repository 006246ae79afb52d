module Config = Radio_config.Config
module G = Radio_graph.Graph
module History = Radio_drip.History
module Protocol = Radio_drip.Protocol

type outcome = {
  config : Config.t;
  histories : History.t array;
  wake_round : int array;
  forced : bool array;
  done_local : int array;
  all_terminated : bool;
  rounds : int;
  first_transmission : (int * int list) option;
  transmissions_by_node : int array;
  metrics : Metrics.t;
  trace : Trace.t;
}

type fired = {
  round : int;
  fault : Fault_plan.fault;
  observed_by : int list;
}

type plan_outcome = {
  base : outcome;
  original : Config.t;
  plan : Fault_plan.t;
  crashed_at : int array;
  departed_at : int array;
  ledger : fired list;
}

(* Nodes inside a quiet horizon, keyed by the global round of their next
   decision and then by node: one int per entry, [(round lsl bits) lor
   node] with [bits] the width of the largest node index, so that int order
   is (round, node) order and one round's entries pop in ascending node
   order.  A binary min-heap over one flat int array whose sift loops
   compare those ints inline: O(log h) int compares per decision for h
   waiting nodes.  Keys hold rounds below [2^(62 - bits)]; [run_plan]
   never pushes a round at or past that bound (see [limit] there).  An
   entry whose node no longer waits for that round (it crashed, left or
   rejoined in the meantime) is dropped when it surfaces. *)
module Agenda = struct
  type t = {
    mutable keys : int array;
    mutable len : int;
  }

  let create n = { keys = Array.make (Int.max 1 n) 0; len = 0 }

  let push a k =
    if a.len = Array.length a.keys then
      a.keys <- Array.append a.keys (Array.make a.len 0);
    let keys = a.keys in
    let i = ref a.len in
    a.len <- a.len + 1;
    while !i > 0 && keys.((!i - 1) lsr 1) > k do
      keys.(!i) <- keys.((!i - 1) lsr 1);
      i := (!i - 1) lsr 1
    done;
    keys.(!i) <- k

  (* The least key, [max_int] when empty. *)
  let top a = if a.len = 0 then max_int else a.keys.(0)

  let pop a =
    let len = a.len - 1 in
    a.len <- len;
    let keys = a.keys in
    let k = keys.(len) in
    let i = ref 0 in
    let settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 in
      if l >= len then settled := true
      else begin
        let m = if l + 1 < len && keys.(l + 1) < keys.(l) then l + 1 else l in
        if keys.(m) < k then begin
          keys.(!i) <- keys.(m);
          i := m
        end
        else settled := true
      end
    done;
    keys.(!i) <- k
end

(* The instance slot of a node that has none (asleep, or not yet
   rejoined); never called. *)
let no_instance =
  {
    Protocol.on_wakeup = ignore;
    decide = (fun () -> Protocol.Terminate);
    observe = ignore;
    skip = ignore;
  }

(* Per-round fault tables compiled from the plan: lookups must not cost
   anything when the plan schedules nothing for the round. *)
type tables = {
  crash_at : int array;  (* earliest crash round per node; -1 = never *)
  drops : (int, (int * int) list) Hashtbl.t;  (* round -> (src, dst) *)
  noise : (int, int list) Hashtbl.t;  (* round -> nodes *)
  topo : (int, Fault_plan.fault list) Hashtbl.t;
      (* round -> topology events, in application order *)
  any_crash : bool;
  any_drop : bool;
  any_noise : bool;
  any_topo : bool;
}

let compile plan n =
  let crash_at = Array.make n (-1) in
  let drops = Hashtbl.create 8 in
  let noise = Hashtbl.create 8 in
  let topo = Hashtbl.create 8 in
  (* Iterating the normalized plan in reverse and prepending leaves every
     per-round bucket in normalized (= application) order. *)
  List.iter
    (fun f ->
      match f with
      | Fault_plan.Crash { node; round } ->
          if node >= 0 && node < n then
            if crash_at.(node) < 0 || round < crash_at.(node) then
              crash_at.(node) <- round
      | Fault_plan.Drop { src; dst; round } ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt drops round) in
          Hashtbl.replace drops round ((src, dst) :: prev)
      | Fault_plan.Noise { node; round } ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt noise round) in
          Hashtbl.replace noise round (node :: prev)
      | Fault_plan.Jitter _ -> ()
      | Fault_plan.Link_down { round; _ }
      | Fault_plan.Link_up { round; _ }
      | Fault_plan.Leave { round; _ }
      | Fault_plan.Join { round; _ }
      | Fault_plan.Retag { round; _ } ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt topo round) in
          Hashtbl.replace topo round (f :: prev))
    (List.rev (Fault_plan.normalize plan));
  {
    crash_at;
    drops;
    noise;
    topo;
    any_crash = Array.exists (fun c -> c >= 0) crash_at;
    any_drop = Hashtbl.length drops > 0;
    any_noise = Hashtbl.length noise > 0;
    any_topo = Hashtbl.length topo > 0;
  }

let run_plan ?(max_rounds = 100_000) ?(record_trace = false) plan proto config
    =
  let original = config in
  let config = Fault_plan.apply_jitter plan config in
  let g = Config.graph config in
  let n = Config.size config in
  let tables = compile plan n in
  let dropped_now r =
    if tables.any_drop then
      Option.value ~default:[] (Hashtbl.find_opt tables.drops r)
    else []
  in
  let noisy_now r =
    if tables.any_noise then
      Option.value ~default:[] (Hashtbl.find_opt tables.noise r)
    else []
  in
  (* Dynamic topology state, allocated only when the plan has topology
     events; otherwise the static graph is consulted directly. *)
  let adj =
    if not tables.any_topo then None
    else begin
      let m = Array.make_matrix n n false in
      List.iter
        (fun (u, v) ->
          m.(u).(v) <- true;
          m.(v).(u) <- true)
        (G.edges g);
      Some m
    end
  in
  let absent = Array.make n false in
  let departed_at = Array.make n (-1) in
  let wake_tag = Array.init n (Config.tag config) in
  let metrics = Metrics.Acc.create () in
  let trace = Trace.Acc.create ~enabled:record_trace in
  let dead = Array.make n false in
  let crashed_at = Array.make n (-1) in
  let ledger = ref [] in
  let fire ~round fault observed_by =
    ledger := { round; fault; observed_by } :: !ledger
  in
  (* Jitter faults fire up-front: the clock already slipped before round 0. *)
  List.iter
    (fun f ->
      match f with
      | Fault_plan.Jitter { node; _ } as j
        when node >= 0 && node < n
             && Config.tag config node <> Config.tag original node ->
          fire ~round:0 j [ node ]
      | _ -> ())
    (Fault_plan.normalize plan);
  (* Per-node state, in flat arrays.  [awake_at] is -1 while asleep and
     [finished_at] (the paper's done_v) -1 while running.  The schedule:
     [next_dec] is the global round of the node's next [decide] (-1 when
     there is none); [obs_at] is the round whose entry it must be told
     ([decide] said [Listen] or [Transmit]), and after Phase B of a round
     also marks a quiet node already told that round's entry; [reported] is
     the last round whose entry the instance has been told, directly or by
     a [skip].  [hist] gathers the events (non-silent entries) of the
     node's current incarnation. *)
  let inst = Array.make n no_instance in
  let awake_at = Array.make n (-1) in
  let was_forced = Array.make n false in
  let finished_at = Array.make n (-1) in
  let next_dec = Array.make n (-1) in
  let obs_at = Array.make n (-1) in
  let reported = Array.make n (-1) in
  let hist = Array.init n (fun _ -> History.Builder.create ()) in
  let agenda = Agenda.create n in
  (* An agenda key is [(round lsl bits) lor node]; it holds rounds below
     [2^(62 - bits)] (any round when [bits = 0]), so a horizon at or past
     [limit] is treated like one at [max_rounds]: never pushed, never
     reached. *)
  let bits =
    let b = ref 0 in
    while 1 lsl !b < n do
      incr b
    done;
    !b
  in
  let mask = (1 lsl bits) - 1 in
  let limit =
    if bits = 0 then max_rounds else Int.min max_rounds (1 lsl (62 - bits))
  in
  let remaining = ref n in
  let sleeping = ref n in
  let first_tx = ref None in
  let tx_by_node = Array.make n 0 in
  (* Per-round work arrays, valid where their stamp equals the round, so
     nothing is cleared between rounds: whether a node transmits
     ([tx_at]); filled from the transmitters' side, how many copies reach a
     node ([aud_at], [audible], scheduled drops removed) and the last of
     them ([heard]; the message itself when exactly one copy reaches); and
     whether scheduled noise hits it ([noisy_at]).  [touched] lists the
     nodes reached this round. *)
  let tx_at = Array.make n (-1) in
  let aud_at = Array.make n (-1) in
  let audible = Array.make n 0 in
  let heard = Array.make n "" in
  let noisy_at = Array.make n (-1) in
  let touched = Array.make n 0 in
  let touched_len = ref 0 in
  (* [due] holds this round's nodes that said [Listen] or [Transmit] last
     round, [next] those that say so this round: both ascending. *)
  let due = ref (Array.make n 0) in
  let due_len = ref 0 in
  let next = ref (Array.make n 0) in
  let next_len = ref 0 in
  let live v = not (dead.(v) || absent.(v)) in
  let running v = awake_at.(v) >= 0 && finished_at.(v) < 0 && live v in
  let audible_at r v = if aud_at.(v) = r then audible.(v) else 0 in
  let mem_link u v =
    match adj with None -> G.mem_edge g u v | Some m -> m.(u).(v)
  in
  (* The transmission being delivered, set by [deliver] for [hear], so
     that one closure serves every transmission of the run. *)
  let tx_round = ref 0 in
  let tx_src = ref 0 in
  let tx_msg = ref "" in
  let tx_drops = ref [] in
  let hear v =
    let dropped =
      match !tx_drops with [] -> false | d -> List.mem (!tx_src, v) d
    in
    if not dropped then begin
      if aud_at.(v) = !tx_round then audible.(v) <- audible.(v) + 1
      else begin
        aud_at.(v) <- !tx_round;
        audible.(v) <- 1;
        touched.(!touched_len) <- v;
        incr touched_len
      end;
      heard.(v) <- !tx_msg
    end
  in
  let deliver ~round drops_r w m =
    tx_round := round;
    tx_src := w;
    tx_msg := m;
    tx_drops := drops_r;
    match adj with
    | None -> G.iter_neighbours g w ~f:hear
    | Some mat ->
        let row = mat.(w) in
        for v = 0 to n - 1 do
          if row.(v) then hear v
        done
  in
  (* [forced_by] is the lone audible transmitter's message of a forced
     wake-up; a spontaneous wake-up starts the history with [Silence]. *)
  let wake v ~round forced_by =
    let i = proto.Protocol.spawn () in
    inst.(v) <- i;
    awake_at.(v) <- round;
    reported.(v) <- round;
    next_dec.(v) <- round + 1;
    if round + 1 < limit then Agenda.push agenda (((round + 1) lsl bits) lor v);
    decr sleeping;
    let entry =
      match forced_by with
      | Some m ->
          was_forced.(v) <- true;
          Metrics.Acc.forced_wakeup metrics;
          Trace.Acc.wake trace ~round v (Trace.Forced m);
          let e = History.Message m in
          History.Builder.add hist.(v) 0 e;
          e
      | None ->
          Metrics.Acc.spontaneous_wakeup metrics;
          Trace.Acc.wake trace ~round v Trace.Spontaneous;
          History.Silence
    in
    i.Protocol.on_wakeup entry
  in
  (* Tells the instance the silent rounds it has not been told before
     [round]. *)
  let catch_up v ~round =
    let k = round - 1 - reported.(v) in
    if k > 0 then begin
      inst.(v).Protocol.skip k;
      reported.(v) <- round - 1
    end
  in
  (* A node that said [Listen] or [Transmit] is told this round's entry
     and decides again next round. *)
  let observe_next v ~round =
    obs_at.(v) <- round;
    next_dec.(v) <- round + 1;
    !next.(!next_len) <- v;
    incr next_len
  in
  let entry_of v ~round =
    if tx_at.(v) = round then History.Silence (* transmitters hear nothing *)
    else if noisy_at.(v) = round then begin
      Metrics.Acc.collision_heard metrics;
      History.Collision
    end
    else
      match audible_at round v with
      | 0 -> History.Silence
      | 1 ->
          Metrics.Acc.delivery metrics;
          History.Message heard.(v)
      | _ ->
          Metrics.Acc.collision_heard metrics;
          History.Collision
  in
  let tell v ~round e =
    History.Builder.add hist.(v) (round - awake_at.(v)) e;
    inst.(v).Protocol.observe e;
    reported.(v) <- round
  in
  (* A quiet node reached by a message or by noise is told at once. *)
  let reach v ~round =
    if v >= 0 && v < n && obs_at.(v) <> round && running v then begin
      obs_at.(v) <- round;
      match entry_of v ~round with
      | History.Silence -> ()
      | e ->
          catch_up v ~round;
          tell v ~round e
    end
  in
  (* Topology events take effect at the top of their round, in normalized
     order.  An event fires iff it changed the network state: flapping a
     link to the state it is already in, a leave/retag of a crashed or
     absent node, or a join of a present (or crashed — crashes are forever)
     node are inert and stay out of the ledger. *)
  let apply_topology r =
    match Hashtbl.find_opt tables.topo r with
    | None -> ()
    | Some events ->
        List.iter
          (fun f ->
            match f with
            | Fault_plan.Link_down { u; v; _ } -> (
                match adj with
                | None -> ()
                | Some m ->
                    if m.(u).(v) then begin
                      m.(u).(v) <- false;
                      m.(v).(u) <- false;
                      fire ~round:r f []
                    end)
            | Fault_plan.Link_up { u; v; _ } -> (
                match adj with
                | None -> ()
                | Some m ->
                    if u <> v && not m.(u).(v) then begin
                      m.(u).(v) <- true;
                      m.(v).(u) <- true;
                      fire ~round:r f []
                    end)
            | Fault_plan.Leave { node; _ } ->
                if node >= 0 && node < n && live node then begin
                  absent.(node) <- true;
                  departed_at.(node) <- r;
                  if awake_at.(node) < 0 then decr sleeping;
                  let running = finished_at.(node) < 0 in
                  if running then decr remaining;
                  fire ~round:r f (if running then [ node ] else [])
                end
            | Fault_plan.Join { node; tag; _ } ->
                if node >= 0 && node < n && absent.(node) && not dead.(node)
                then begin
                  (* A fresh incarnation: new instance-to-be, empty history,
                     alarm at [max tag r] (a past alarm fires immediately). *)
                  absent.(node) <- false;
                  departed_at.(node) <- -1;
                  inst.(node) <- no_instance;
                  awake_at.(node) <- -1;
                  was_forced.(node) <- false;
                  finished_at.(node) <- -1;
                  next_dec.(node) <- -1;
                  hist.(node) <- History.Builder.create ();
                  wake_tag.(node) <- Int.max tag r;
                  incr sleeping;
                  incr remaining;
                  fire ~round:r f [ node ]
                end
            | Fault_plan.Retag { node; tag; _ } ->
                if node >= 0 && node < n && live node && awake_at.(node) < 0
                then begin
                  let alarm = Int.max tag r in
                  if alarm <> wake_tag.(node) then begin
                    wake_tag.(node) <- alarm;
                    fire ~round:r f [ node ]
                  end
                end
            | Fault_plan.Crash _ | Fault_plan.Drop _ | Fault_plan.Noise _
            | Fault_plan.Jitter _ ->
                ())
          events
  in
  let round = ref 0 in
  let rounds_done = ref 0 in
  while !remaining > 0 && !round < max_rounds do
    let r = !round in
    (* Phase T: topology events scheduled for this round reshape the
       network before anyone acts. *)
    if tables.any_topo then apply_topology r;
    (* Phase 0: crash-stops scheduled for this round take effect before
       anyone acts.  Crashes of already-terminated or absent nodes are
       no-ops. *)
    if tables.any_crash then
      for v = 0 to n - 1 do
        if tables.crash_at.(v) = r && live v && finished_at.(v) < 0 then begin
          dead.(v) <- true;
          crashed_at.(v) <- r;
          if awake_at.(v) < 0 then decr sleeping;
          decr remaining;
          fire ~round:r (Fault_plan.Crash { node = v; round = r }) []
        end
      done;
    let drops_r = dropped_now r in
    let noise_r = noisy_now r in
    if noise_r <> [] then
      List.iter (fun v -> if v >= 0 && v < n then noisy_at.(v) <- r) noise_r;
    touched_len := 0;
    next_len := 0;
    (* Phase A: decisions of the live running nodes due this round, in
       ascending node order (the merge of [due] and the agenda's entries
       for round [r]); each transmission is delivered to the transmitter's
       current neighbours at once.  A node inside a quiet horizon is not
       visited. *)
    let transmitters = ref [] in
    let di = ref 0 in
    (* The agenda's keys for round [r] are those below [stop]. *)
    let stop = if r + 1 >= limit then max_int else (r + 1) lsl bits in
    while !di < !due_len || Agenda.top agenda < stop do
      let top = Agenda.top agenda in
      let v =
        if top < stop && (!di >= !due_len || top land mask < !due.(!di))
        then begin
          Agenda.pop agenda;
          top land mask
        end
        else begin
          let v = !due.(!di) in
          incr di;
          v
        end
      in
      if next_dec.(v) = r && running v then begin
        catch_up v ~round:r;
        match inst.(v).Protocol.decide () with
        | Protocol.Terminate ->
            finished_at.(v) <- r - awake_at.(v);
            next_dec.(v) <- -1;
            decr remaining;
            Trace.Acc.terminate trace ~round:r v
        | Protocol.Transmit m ->
            tx_at.(v) <- r;
            deliver ~round:r drops_r v m;
            if Option.is_none !first_tx then transmitters := v :: !transmitters;
            tx_by_node.(v) <- tx_by_node.(v) + 1;
            Metrics.Acc.transmission metrics;
            Trace.Acc.transmit trace ~round:r v m;
            observe_next v ~round:r
        | Protocol.Listen -> observe_next v ~round:r
        | Protocol.Quiet k ->
            let until =
              if k >= limit - r then max_rounds else r + Int.max 1 k
            in
            next_dec.(v) <- until;
            if until < max_rounds then
              Agenda.push agenda ((until lsl bits) lor v)
      end
    done;
    if !transmitters <> [] then first_tx := Some (r, List.rev !transmitters);
    (* Phase B: receptions.  Nodes that decided to listen or transmit are
       told their entry; a quiet node only when a message or noise reached
       it. *)
    for i = 0 to !next_len - 1 do
      let v = !next.(i) in
      tell v ~round:r (entry_of v ~round:r)
    done;
    for i = 0 to !touched_len - 1 do
      reach touched.(i) ~round:r
    done;
    if noise_r <> [] then List.iter (fun v -> reach v ~round:r) noise_r;
    (* Phase C: wake-ups of live sleeping nodes (forced by a lone audible
       transmitter, else spontaneous when the tag says so).  Noise corrupts
       collision detection, so a noisy sleeping node cannot be force-woken.
       The scan stops once every sleeping node has been seen. *)
    let unseen = ref !sleeping in
    let v = ref 0 in
    while !unseen > 0 && !v < n do
      let u = !v in
      if awake_at.(u) < 0 && live u then begin
        decr unseen;
        if audible_at r u = 1 && noisy_at.(u) <> r then
          wake u ~round:r (Some heard.(u))
        else if wake_tag.(u) = r then wake u ~round:r None
      end;
      incr v
    done;
    (* Ledger: which of this round's scheduled drops and noise bursts
       actually changed someone's execution. *)
    if drops_r <> [] then
      List.iter
        (fun (src, dst) ->
          if
            tx_at.(src) = r
            && dst >= 0 && dst < n
            && mem_link src dst
            && live dst
            && tx_at.(dst) <> r
          then begin
            (* Post-drop audible count at dst; without this drop it would
               have been one higher. *)
            let count = audible_at r dst in
            let noisy_dst = noisy_at.(dst) = r in
            let awake_listener = awake_at.(dst) >= 0 && awake_at.(dst) < r in
            let fault = Fault_plan.Drop { src; dst; round = r } in
            if awake_listener && finished_at.(dst) < 0 then begin
              (* Entry with the drop: count; without: count + 1. *)
              if (not noisy_dst) && count <= 1 then fire ~round:r fault [ dst ]
            end
            else if awake_at.(dst) < 0 || awake_at.(dst) = r then begin
              (* dst was asleep at reception time (possibly woken this very
                 round).  The drop changed the wake-up iff it moved the
                 audible count across the =1 boundary. *)
              if not noisy_dst then
                if count = 0 then
                  (* would have been force-woken; with the drop it either
                     stayed asleep or woke spontaneously on its tag *)
                  fire ~round:r fault
                    (if wake_tag.(dst) = r then [ dst ] else [])
                else if count = 1 then
                  (* the drop un-hid a lone transmitter: dst was woken where
                     two transmitters would have cancelled out *)
                  fire ~round:r fault [ dst ]
            end
          end)
        (List.sort compare drops_r);
    if noise_r <> [] then
      List.iter
        (fun v ->
          if v >= 0 && v < n && live v && tx_at.(v) <> r then begin
            let count = audible_at r v in
            let fault = Fault_plan.Noise { node = v; round = r } in
            if awake_at.(v) >= 0 && awake_at.(v) < r && finished_at.(v) < 0
            then begin
              (* Listening node: heard Collision instead of count's entry. *)
              if count <= 1 then fire ~round:r fault [ v ]
            end
            else if awake_at.(v) < 0 || awake_at.(v) = r then
              (* Asleep at reception time: a lone transmitter was masked. *)
              if count = 1 then
                fire ~round:r fault (if awake_at.(v) = r then [ v ] else [])
          end)
        (List.sort compare noise_r);
    let d = !due in
    due := !next;
    due_len := !next_len;
    next := d;
    incr round;
    rounds_done := !round
  done;
  Metrics.Acc.set_rounds metrics !rounds_done;
  (* A history's length follows from how the node's run ended. *)
  let length v =
    if awake_at.(v) < 0 then 0
    else if finished_at.(v) >= 0 then finished_at.(v)
    else if crashed_at.(v) >= 0 then crashed_at.(v) - awake_at.(v)
    else if departed_at.(v) >= 0 then departed_at.(v) - awake_at.(v)
    else !rounds_done - awake_at.(v)
  in
  let histories =
    Array.init n (fun v -> History.Builder.build hist.(v) ~length:(length v))
  in
  let base =
    {
      config;
      histories;
      wake_round = awake_at;
      forced = was_forced;
      done_local = finished_at;
      all_terminated = !remaining = 0;
      rounds = !rounds_done;
      first_transmission = !first_tx;
      transmissions_by_node = tx_by_node;
      metrics = Metrics.Acc.freeze metrics;
      trace = Trace.Acc.freeze trace;
    }
  in
  { base; original; plan; crashed_at; departed_at; ledger = List.rev !ledger }

let run ?max_rounds ?record_trace proto config =
  (run_plan ?max_rounds ?record_trace Fault_plan.empty proto config).base

let global_done_round o v =
  if v < 0 || v >= Array.length o.done_local then
    invalid_arg "Engine.global_done_round: bad vertex";
  if o.done_local.(v) < 0 then
    invalid_arg "Engine.global_done_round: node has not terminated";
  o.wake_round.(v) + o.done_local.(v)

(* radiolint: allow partiality — callers ask only once every node terminated *)
let completion_round o =
  let n = Array.length o.done_local in
  if n = 0 then 0
  else begin
    let best = ref 0 in
    for v = 0 to n - 1 do
      best := Int.max !best (global_done_round o v)
    done;
    !best
  end

let surviving_winners decision o =
  let n = Array.length o.base.done_local in
  List.filter
    (fun v -> o.base.done_local.(v) >= 0 && decision o.base.histories.(v))
    (List.init n Fun.id)

let elected decision o =
  if not o.base.all_terminated then None
  else match surviving_winners decision o with [ v ] -> Some v | _ -> None

let outcome_equal a b =
  Config.equal a.config b.config
  && Array.length a.histories = Array.length b.histories
  && Array.for_all2 History.equal a.histories b.histories
  && a.wake_round = b.wake_round
  && a.forced = b.forced
  && a.done_local = b.done_local
  && a.all_terminated = b.all_terminated
  && a.rounds = b.rounds
  && a.first_transmission = b.first_transmission
  && a.transmissions_by_node = b.transmissions_by_node
  && a.metrics = b.metrics
  && a.trace = b.trace

let pp_fired ppf { round; fault; observed_by } =
  Format.fprintf ppf "round %4d  %a%s" round Fault_plan.pp_fault fault
    (match observed_by with
    | [] -> "  (unobserved)"
    | vs ->
        Printf.sprintf "  (observed by %s)"
          (String.concat ", " (List.map string_of_int vs)))

let pp_ledger ppf = function
  | [] -> Format.fprintf ppf "no faults fired"
  | events ->
      Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_fired ppf events
