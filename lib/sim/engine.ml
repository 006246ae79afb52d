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

exception Round_limit_exceeded of outcome

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

type node_state = {
  mutable instance : Protocol.instance option;  (* None while asleep *)
  mutable awake_at : int;  (* global wake round; -1 while asleep *)
  mutable was_forced : bool;
  mutable finished_at : int;  (* done_v; -1 while running *)
  hist : History.Vec.t;
}

let fresh_node () =
  {
    instance = None;
    awake_at = -1;
    was_forced = false;
    finished_at = -1;
    hist = History.Vec.create ();
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
  let nodes = Array.init n (fun _ -> fresh_node ()) in
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
  let remaining = ref n in
  let first_tx = ref None in
  let tx_by_node = Array.make n 0 in
  (* Per-round scratch: the message each node transmits this round, if
     any, and, filled from the transmitters' side, how many copies reach
     each node ([audible], scheduled drops removed) and the last of them
     ([heard]; the message itself when exactly one copy reaches). *)
  let tx_msg : string option array = Array.make n None in
  let audible = Array.make n 0 in
  let heard = Array.make n "" in
  let live v = not (dead.(v) || absent.(v)) in
  let mem_link u v =
    match adj with None -> G.mem_edge g u v | Some m -> m.(u).(v)
  in
  let deliver drops_r w m =
    let reach v =
      if not (List.mem (w, v) drops_r) then begin
        audible.(v) <- audible.(v) + 1;
        heard.(v) <- m
      end
    in
    match adj with
    | None -> G.iter_neighbours g w ~f:reach
    | Some mat ->
        let row = mat.(w) in
        for v = 0 to n - 1 do
          if row.(v) then reach v
        done
  in
  (* [forced_by] is the lone audible transmitter's message of a forced
     wake-up; a spontaneous wake-up starts the history with [Silence]. *)
  let wake st v ~round forced_by =
    let inst = proto.Protocol.spawn () in
    st.instance <- Some inst;
    st.awake_at <- round;
    let entry =
      match forced_by with
      | Some m ->
          st.was_forced <- true;
          Metrics.Acc.forced_wakeup metrics;
          Trace.Acc.wake trace ~round v (Trace.Forced m);
          History.Message m
      | None ->
          Metrics.Acc.spontaneous_wakeup metrics;
          Trace.Acc.wake trace ~round v Trace.Spontaneous;
          History.Silence
    in
    History.Vec.push st.hist entry;
    inst.Protocol.on_wakeup entry
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
                if node >= 0 && node < n && not (dead.(node) || absent.(node))
                then begin
                  let st = nodes.(node) in
                  absent.(node) <- true;
                  departed_at.(node) <- r;
                  let running = st.finished_at < 0 in
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
                  nodes.(node) <- fresh_node ();
                  wake_tag.(node) <- max tag r;
                  incr remaining;
                  fire ~round:r f [ node ]
                end
            | Fault_plan.Retag { node; tag; _ } ->
                if
                  node >= 0 && node < n
                  && (not (dead.(node) || absent.(node)))
                  && nodes.(node).instance = None
                then begin
                  let alarm = max tag r in
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
        if tables.crash_at.(v) = r && not dead.(v) && not absent.(v) then begin
          let st = nodes.(v) in
          if st.finished_at < 0 then begin
            dead.(v) <- true;
            crashed_at.(v) <- r;
            decr remaining;
            fire ~round:r (Fault_plan.Crash { node = v; round = r }) []
          end
        end
      done;
    let drops_r = dropped_now r in
    let noise_r = noisy_now r in
    (* Phase A: decisions of live nodes already awake (woken before round
       r); each transmission is delivered to the transmitter's current
       neighbours at once. *)
    Array.fill tx_msg 0 n None;
    Array.fill audible 0 n 0;
    let transmitters = ref [] in
    for v = 0 to n - 1 do
      let st = nodes.(v) in
      match st.instance with
      | Some inst when st.finished_at < 0 && st.awake_at < r && live v -> (
          let local = r - st.awake_at in
          match inst.Protocol.decide () with
          | Protocol.Terminate ->
              st.finished_at <- local;
              decr remaining;
              Trace.Acc.terminate trace ~round:r v
          | Protocol.Transmit m ->
              tx_msg.(v) <- Some m;
              deliver drops_r v m;
              transmitters := v :: !transmitters;
              tx_by_node.(v) <- tx_by_node.(v) + 1;
              Metrics.Acc.transmission metrics;
              Trace.Acc.transmit trace ~round:r v m
          | Protocol.Listen -> ())
      | _ -> ()
    done;
    if !transmitters <> [] && !first_tx = None then
      first_tx := Some (r, List.sort compare !transmitters);
    (* Phase B: receptions at live, awake, running nodes. *)
    for v = 0 to n - 1 do
      let st = nodes.(v) in
      match st.instance with
      | Some inst when st.finished_at < 0 && st.awake_at < r && live v ->
          let entry =
            match tx_msg.(v) with
            | Some _ -> History.Silence (* transmitters hear nothing *)
            | None ->
                if List.mem v noise_r then begin
                  Metrics.Acc.collision_heard metrics;
                  History.Collision
                end
                else begin
                  match audible.(v) with
                  | 0 -> History.Silence
                  | 1 ->
                      Metrics.Acc.delivery metrics;
                      History.Message heard.(v)
                  | _ ->
                      Metrics.Acc.collision_heard metrics;
                      History.Collision
                end
          in
          History.Vec.push st.hist entry;
          inst.Protocol.observe entry
      | _ -> ()
    done;
    (* Phase C: wake-ups of live sleeping nodes (forced by a lone audible
       transmitter, else spontaneous when the tag says so).  Noise corrupts
       collision detection, so a noisy sleeping node cannot be force-woken. *)
    for v = 0 to n - 1 do
      let st = nodes.(v) in
      match st.instance with
      | None when live v ->
          if audible.(v) = 1 && not (List.mem v noise_r) then
            wake st v ~round:r (Some heard.(v))
          else if wake_tag.(v) = r then wake st v ~round:r None
      | _ -> ()
    done;
    (* Ledger: which of this round's scheduled drops and noise bursts
       actually changed someone's execution. *)
    if drops_r <> [] then
      List.iter
        (fun (src, dst) ->
          if
            tx_msg.(src) <> None
            && dst >= 0 && dst < n
            && mem_link src dst
            && live dst
            && tx_msg.(dst) = None
          then begin
            let st = nodes.(dst) in
            (* Post-drop audible count at dst; without this drop it would
               have been one higher. *)
            let count = audible.(dst) in
            let noisy_dst = List.mem dst noise_r in
            let awake_listener = st.instance <> None && st.awake_at < r in
            let fault = Fault_plan.Drop { src; dst; round = r } in
            if awake_listener && st.finished_at < 0 then begin
              (* Entry with the drop: count; without: count + 1. *)
              if (not noisy_dst) && count <= 1 then fire ~round:r fault [ dst ]
            end
            else if st.instance = None || st.awake_at = r then begin
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
          if v >= 0 && v < n && live v && tx_msg.(v) = None then begin
            let st = nodes.(v) in
            let count = audible.(v) in
            let fault = Fault_plan.Noise { node = v; round = r } in
            if st.instance <> None && st.awake_at < r && st.finished_at < 0
            then begin
              (* Listening node: heard Collision instead of count's entry. *)
              if count <= 1 then fire ~round:r fault [ v ]
            end
            else if st.instance = None || st.awake_at = r then
              (* Asleep at reception time: a lone transmitter was masked. *)
              if count = 1 then
                fire ~round:r fault (if st.awake_at = r then [ v ] else [])
          end)
        (List.sort compare noise_r);
    incr round;
    rounds_done := !round
  done;
  Metrics.Acc.set_rounds metrics !rounds_done;
  let base =
    {
      config;
      histories = Array.map (fun st -> History.Vec.snapshot st.hist) nodes;
      wake_round = Array.map (fun st -> st.awake_at) nodes;
      forced = Array.map (fun st -> st.was_forced) nodes;
      done_local = Array.map (fun st -> st.finished_at) nodes;
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

let run_exn ?max_rounds ?record_trace proto config =
  let o = run ?max_rounds ?record_trace proto config in
  if o.all_terminated then o else raise (Round_limit_exceeded o)

let global_done_round o v =
  if v < 0 || v >= Array.length o.done_local then
    invalid_arg "Engine.global_done_round: bad vertex";
  if o.done_local.(v) < 0 then
    invalid_arg "Engine.global_done_round: node has not terminated";
  o.wake_round.(v) + o.done_local.(v)

let completion_round o =
  let n = Array.length o.done_local in
  if n = 0 then 0
  else begin
    let best = ref 0 in
    for v = 0 to n - 1 do
      best := max !best (global_done_round o v)
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
