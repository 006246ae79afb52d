module Config = Radio_config.Config
module G = Radio_graph.Graph
module Engine = Radio_sim.Engine
module Fault_plan = Radio_sim.Fault_plan
module Metrics = Radio_sim.Metrics
module Trace = Radio_sim.Trace
module History = Radio_drip.History
module Protocol = Radio_drip.Protocol

let hlen (o : Engine.outcome) v = History.length o.Engine.histories.(v)

(* [crashed.(v)] is the global round node [v] crash-stopped at, [-1] when it
   never did.  The pristine checker passes [[||]] — no node ever crashes —
   and every crash-aware branch below collapses to the pristine rule. *)
let crash_of crashed v = if v < Array.length crashed then crashed.(v) else -1

let structural ~crashed (o : Engine.outcome) =
  Report.collect @@ fun rep ->
  let n = Config.size o.Engine.config in
  let shape_ok =
    Array.length o.Engine.histories = n
    && Array.length o.Engine.wake_round = n
    && Array.length o.Engine.forced = n
    && Array.length o.Engine.done_local = n
    && Array.length o.Engine.transmissions_by_node = n
  in
  if not shape_ok then
    rep.Report.f ~check:"shape"
      "per-node arrays do not all have length n = %d (histories %d, wake %d, \
       forced %d, done %d, transmissions %d)"
      n
      (Array.length o.Engine.histories)
      (Array.length o.Engine.wake_round)
      (Array.length o.Engine.forced)
      (Array.length o.Engine.done_local)
      (Array.length o.Engine.transmissions_by_node)
  else begin
    let all_done = ref true in
    for v = 0 to n - 1 do
      let wake = o.Engine.wake_round.(v) in
      let dn = o.Engine.done_local.(v) in
      let len = hlen o v in
      let cr = crash_of crashed v in
      (* all_terminated quantifies over live nodes only: a crashed node
         never terminates but must not keep the run "unfinished". *)
      if dn < 0 && cr < 0 then all_done := false;
      if cr >= 0 && dn >= 0 then
        rep.Report.f ~node:v ~round:cr ~check:"termination"
          "crashed node is marked terminated (done_local = %d): crashes only \
           fire on non-terminated nodes"
          dn;
      if wake < 0 then begin
        (* Asleep for the whole run. *)
        if len <> 0 then
          rep.Report.f ~node:v ~check:"history-length"
            "sleeping node has %d history entries" len;
        if o.Engine.forced.(v) then
          rep.Report.f ~node:v ~check:"wakeup" "sleeping node is marked forced";
        if dn >= 0 then
          rep.Report.f ~node:v ~check:"termination"
            "sleeping node is marked terminated (done_local = %d)" dn
      end
      else begin
        if wake >= o.Engine.rounds then
          rep.Report.f ~node:v ~check:"wakeup"
            "wake round %d but only %d rounds were simulated" wake
            o.Engine.rounds;
        (* History length = done_local for terminated nodes (engine.mli):
           the wake-up entry plus one entry per completed local round, the
           terminate decision consuming none. *)
        if cr >= 0 then begin
          (* Crash-stop: the history is the pristine prefix up to the crash
             round — the wake-up entry plus one reception per round strictly
             between wake and crash — and then stops dead. *)
          if wake >= cr then
            rep.Report.f ~node:v ~round:wake ~check:"crash-silence"
              "node woke at round %d at or after its crash round %d" wake cr;
          if len <> cr - wake then
            rep.Report.f ~node:v ~check:"crash-silence"
              "crashed node: history has %d entries, expected crash - wake = \
               %d — the history must stop at the crash"
              len (cr - wake)
        end
        else if dn >= 0 then begin
          if dn < 1 then
            rep.Report.f ~node:v ~check:"termination"
              "done_local = %d < 1: termination cannot precede the first \
               decision round"
              dn;
          if len <> dn then
            rep.Report.f ~node:v ~check:"history-length"
              "terminated node: history has %d entries, done_local = %d" len
              dn;
          if wake + dn > o.Engine.rounds then
            rep.Report.f ~node:v ~check:"termination"
              "terminates at global round %d beyond the %d simulated rounds"
              (wake + dn) o.Engine.rounds
        end
        else if len <> o.Engine.rounds - wake then
          rep.Report.f ~node:v ~check:"history-length"
            "running node: history has %d entries, expected rounds - wake = \
             %d"
            len
            (o.Engine.rounds - wake);
        if len > 0 then begin
          let tag = Config.tag o.Engine.config v in
          (match History.get o.Engine.histories.(v) 0 with
          | History.Collision ->
              rep.Report.f ~node:v ~round:wake ~check:"wakeup"
                "Collision at history index 0: collisions do not wake \
                 sleeping nodes"
          | History.Message _ ->
              if not o.Engine.forced.(v) then
                rep.Report.f ~node:v ~round:wake ~check:"wakeup"
                  "history starts with a message but the wake-up is marked \
                   spontaneous"
          | History.Silence ->
              if o.Engine.forced.(v) then
                rep.Report.f ~node:v ~round:wake ~check:"wakeup"
                  "history starts with Silence but the wake-up is marked \
                   forced");
          if o.Engine.forced.(v) then begin
            if wake > tag then
              rep.Report.f ~node:v ~round:wake ~check:"wakeup"
                "forced wake-up at round %d after the spontaneous tag %d"
                wake tag
          end
          else if wake <> tag then
            rep.Report.f ~node:v ~round:wake ~check:"wakeup"
              "spontaneous wake-up at round %d instead of the tag %d" wake
              tag
        end
      end
    done;
      if o.Engine.all_terminated <> !all_done then
        rep.Report.f ~check:"termination"
          "all_terminated = %b but done_local says %b" o.Engine.all_terminated
          !all_done;
      (* Ledgers. *)
      let m = o.Engine.metrics in
      let tx_sum = Array.fold_left ( + ) 0 o.Engine.transmissions_by_node in
      if tx_sum <> m.Metrics.transmissions then
        rep.Report.f ~check:"ledger"
          "per-node transmission ledger sums to %d, metric says %d" tx_sum
          m.Metrics.transmissions;
      if m.Metrics.rounds <> o.Engine.rounds then
        rep.Report.f ~check:"ledger" "metrics.rounds = %d, outcome.rounds = %d"
          m.Metrics.rounds o.Engine.rounds;
      let forced_count = ref 0 and spont_count = ref 0 in
      let deliveries = ref 0 and collisions = ref 0 in
      for v = 0 to n - 1 do
        if o.Engine.wake_round.(v) >= 0 then
          if o.Engine.forced.(v) then incr forced_count else incr spont_count;
        History.fold
          (fun () i e ->
            if i >= 1 then
              match e with
              | History.Message _ -> incr deliveries
              | History.Collision -> incr collisions
              | History.Silence -> ())
          () o.Engine.histories.(v)
      done;
      if !forced_count <> m.Metrics.forced_wakeups then
        rep.Report.f ~check:"ledger" "forced wake-ups: histories say %d, metric %d"
          !forced_count m.Metrics.forced_wakeups;
      if !spont_count <> m.Metrics.spontaneous_wakeups then
        rep.Report.f ~check:"ledger"
          "spontaneous wake-ups: histories say %d, metric %d" !spont_count
          m.Metrics.spontaneous_wakeups;
      if !deliveries <> m.Metrics.deliveries then
        rep.Report.f ~check:"ledger" "deliveries: histories say %d, metric %d"
          !deliveries m.Metrics.deliveries;
      if !collisions <> m.Metrics.collisions_heard then
        rep.Report.f ~check:"ledger" "collisions heard: histories say %d, metric %d"
          !collisions m.Metrics.collisions_heard;
      (* first_transmission consistency without a trace. *)
      match o.Engine.first_transmission with
      | None ->
          if tx_sum <> 0 then
            rep.Report.f ~check:"ledger"
              "first_transmission = None but %d transmissions were counted"
              tx_sum
      | Some (fr, vs) ->
          if fr < 0 || fr >= o.Engine.rounds then
            rep.Report.f ~round:fr ~check:"ledger"
              "first_transmission round outside the simulated range";
          if vs = [] then
            rep.Report.f ~round:fr ~check:"ledger"
              "first_transmission has an empty transmitter list";
          if List.sort compare vs <> vs then
            rep.Report.f ~round:fr ~check:"ledger"
              "first_transmission node list is not sorted";
          List.iter
            (fun v ->
              if v < 0 || v >= n || o.Engine.transmissions_by_node.(v) = 0
              then
                rep.Report.f ~node:v ~round:fr ~check:"ledger"
                  "first_transmission names a node with no counted \
                   transmissions")
            vs
  end

(* Trace conformance under a fault plan: recompute every reception and
   wake-up from the trace's transmitter sets, with the plan's drops removed
   from the air, noise forcing [Collision], and each crashed node excused
   from its crash round onwards.  The pristine model is the empty plan with
   no crash, where every fault branch below collapses to the pristine
   rule. *)
let trace_conformance ~plan ~crashed (o : Engine.outcome) =
  if o.Engine.trace = [] then []
  else
    Report.collect @@ fun rep ->
    let g = Config.graph o.Engine.config in
    let n = Config.size o.Engine.config in
    let dead_at r v =
      let c = crash_of crashed v in
      c >= 0 && r >= c
    in
    let tx = Purity.tx_by_round o in
    let transmitted_at r v =
      r >= 0 && r < Array.length tx && List.mem_assoc v tx.(r)
    in
    (* The copies [v] can hear in round [r] after the plan's drops: how many,
       and the message of the last one. *)
    let audible r v =
      let count = ref 0 and heard = ref "" in
      G.iter_neighbours g v ~f:(fun w ->
          if r < Array.length tx then
            match List.assoc_opt w tx.(r) with
            | Some m when not (Fault_plan.dropped plan ~src:w ~dst:v ~round:r)
              ->
                incr count;
                heard := m
            | _ -> ());
      (!count, !heard)
    in
    let noisy r v = Fault_plan.noisy plan ~node:v ~round:r in
    (* The message that force-wakes a sleeping [v] in round [r]: exactly one
       audible transmitter and no noise (collisions do not wake). *)
    let waking r v =
      match audible r v with 1, m when not (noisy r v) -> Some m | _ -> None
    in
    (* Every traced transmission comes from an awake, running, live node. *)
    Array.iteri
      (fun r txs ->
        List.iter
          (fun (v, _m) ->
            if v < 0 || v >= n then
              rep.Report.f ~node:v ~round:r ~check:"trace"
                "transmission by an out-of-range node"
            else if dead_at r v then
              rep.Report.f ~node:v ~round:r ~check:"crash-silence"
                "transmission at round %d but the node crashed at round %d — \
                 crashed nodes are permanently silent"
                r (crash_of crashed v)
            else begin
              let wake = o.Engine.wake_round.(v) in
              let dn = o.Engine.done_local.(v) in
              if wake < 0 || wake >= r then
                rep.Report.f ~node:v ~round:r ~check:"trace"
                  "transmission by a node not yet awake (wake round %d)" wake
              else if dn >= 0 && r - wake >= dn then
                rep.Report.f ~node:v ~round:r ~check:"termination-permanence"
                  "transmission at local round %d but the node terminated at \
                   local round %d — terminated nodes are permanently silent"
                  (r - wake) dn
            end)
          txs)
      tx;
    (* Collision semantics: recompute every reception from the audible
       transmitter sets and compare with the recorded history entries. *)
    for v = 0 to n - 1 do
      let wake = o.Engine.wake_round.(v) in
      if wake >= 0 then begin
        let h = o.Engine.histories.(v) in
        for i = 1 to History.length h - 1 do
          let r = wake + i in
          let expected =
            if transmitted_at r v then History.Silence
            else if noisy r v then History.Collision
            else
              match audible r v with
              | 0, _ -> History.Silence
              | 1, m -> History.Message m
              | _ -> History.Collision
          in
          let e = History.get h i in
          if not (History.equal_entry e expected) then
            rep.Report.f ~node:v ~round:r ~check:"collision-semantics"
              "recorded entry %s but the transmitter set implies %s"
              (Format.asprintf "%a" History.pp_entry e)
              (Format.asprintf "%a" History.pp_entry expected)
        done
      end
    done;
    (* The wake rule: a wake-up in round [r] is forced exactly when [waking]
       names a message, and then by that message. *)
    let wake_rule v r ~forced msg =
      match (forced, waking r v) with
      | true, Some m' -> (
          match msg with
          | Some m when m <> m' ->
              rep.Report.f ~node:v ~round:r ~check:"forced-uniqueness"
                "woken by %S but the lone transmitting neighbour sent %S" m m'
          | _ -> ())
      | true, None ->
          rep.Report.f ~node:v ~round:r ~check:"forced-uniqueness"
            "forced wake-up without exactly one transmitting neighbour (%d \
             transmit%s)"
            (fst (audible r v))
            (if noisy r v then ", noisy" else "")
      | false, Some _ ->
          rep.Report.f ~node:v ~round:r ~check:"forced-uniqueness"
            "exactly one neighbour transmits, so this wake-up should have \
             been forced"
      | false, None -> ()
    in
    (* Wake-up events: round, kind and the waking message.  [judged.(v)]
       records that an event already applied the wake rule to the outcome's
       own wake round and kind. *)
    let judged = Array.make n false in
    let kind forced = if forced then "forced" else "spontaneous" in
    List.iter
      (fun (ev : Trace.round_events) ->
        let r = ev.Trace.round in
        List.iter
          (fun (v, k) ->
            if o.Engine.wake_round.(v) <> r then
              rep.Report.f ~node:v ~round:r ~check:"wakeup"
                "trace wakes the node here but wake_round = %d"
                o.Engine.wake_round.(v);
            let forced, msg =
              match k with
              | Trace.Forced m -> (true, Some m)
              | Trace.Spontaneous -> (false, None)
            in
            if forced <> o.Engine.forced.(v) then
              rep.Report.f ~node:v ~round:r ~check:"wakeup"
                "trace says %s, outcome says %s" (kind forced)
                (kind o.Engine.forced.(v))
            else if o.Engine.wake_round.(v) = r then judged.(v) <- true;
            if (not forced) && Config.tag o.Engine.config v <> r then
              rep.Report.f ~node:v ~round:r ~check:"wakeup"
                "spontaneous wake-up away from the tag %d"
                (Config.tag o.Engine.config v);
            wake_rule v r ~forced msg)
          ev.Trace.woken;
        List.iter
          (fun v ->
            let expected = r - o.Engine.wake_round.(v) in
            if o.Engine.done_local.(v) <> expected then
              rep.Report.f ~node:v ~round:r ~check:"termination"
                "trace terminates the node here (local round %d) but \
                 done_local = %d"
                expected o.Engine.done_local.(v))
          ev.Trace.terminated)
      o.Engine.trace;
    for v = 0 to n - 1 do
      let wake = o.Engine.wake_round.(v) in
      (* The wake rule on the outcome's own wake-up, unless an event above
         already judged it. *)
      if wake >= 0 && (not judged.(v)) && not (dead_at wake v) then
        wake_rule v wake ~forced:o.Engine.forced.(v) None;
      (* Missed wake-ups: a live sleeping node must wake (forced) when
         [waking] names a message, and must not sleep through its tag. *)
      for r = 0 to o.Engine.rounds - 1 do
        if (wake < 0 || wake > r) && not (dead_at r v) then begin
          if waking r v <> None then
            rep.Report.f ~node:v ~round:r ~check:"forced-uniqueness"
              "sleeping node has exactly one transmitting neighbour but was \
               not woken";
          if Config.tag o.Engine.config v = r then
            rep.Report.f ~node:v ~round:r ~check:"wakeup"
              "node slept through its spontaneous wake-up tag"
        end
      done
    done;
    (* first_transmission against the trace. *)
    let earliest = ref None in
    Array.iteri
      (fun r txs ->
        if txs <> [] && !earliest = None then
          earliest := Some (r, List.sort compare (List.map fst txs)))
      tx;
    if o.Engine.first_transmission <> !earliest then
      rep.Report.f ~check:"trace"
        "first_transmission disagrees with the earliest traced transmission"

let anonymity (o : Engine.outcome) =
  if o.Engine.trace = [] then []
  else
    Report.collect @@ fun rep ->
    let n = Array.length o.Engine.histories in
    let tx = Purity.tx_by_round o in
    let action v i = Purity.recorded_action o tx v i in
    for v = 0 to n - 1 do
      for w = v + 1 to n - 1 do
        let hv = o.Engine.histories.(v) and hw = o.Engine.histories.(w) in
        let bound u h =
          min (Purity.last_decision_round o u) (History.length h)
        in
        let last = min (bound v hv) (bound w hw) in
        (* Identical prefixes of length i >= 1 force identical actions at
           local round i (Section 2.2). *)
        let same_prefix i =
          History.equal_entry (History.get hv (i - 1)) (History.get hw (i - 1))
        in
        let i = ref 1 in
        let broken = ref false in
        while (not !broken) && !i <= last && same_prefix !i do
          let av = action v !i and aw = action w !i in
          if av <> aw then begin
            broken := true;
            rep.Report.f ~node:v ~check:"anonymity"
              "nodes %d and %d share the history prefix %s but act \
               differently at local round %d (%a vs %a)"
              v w
              (History.to_string (History.sub hv 0 !i))
              !i Purity.pp_action av Purity.pp_action aw
          end;
          incr i
        done
      done
    done

(* -------------------------------------------------------------------- *)
(* Outcomes under a fault plan: the fault ledger.                       *)

let ledger_consistency (fo : Engine.plan_outcome) =
  Report.collect @@ fun rep ->
  let o = fo.Engine.base in
  let n = Array.length o.Engine.histories in
  let plan = Fault_plan.normalize fo.Engine.plan in
  if Array.length fo.Engine.crashed_at <> n then
    rep.Report.f ~check:"shape" "crashed_at has length %d, expected n = %d"
      (Array.length fo.Engine.crashed_at)
      n
  else if Array.length fo.Engine.departed_at <> n then
    rep.Report.f ~check:"shape" "departed_at has length %d, expected n = %d"
      (Array.length fo.Engine.departed_at)
      n
  else begin
    List.iter
      (fun (ev : Engine.fired) ->
        if not (List.mem ev.Engine.fault plan) then
          rep.Report.f ~round:ev.Engine.round ~check:"fault-ledger"
            "ledger fires %s, which the plan never schedules"
            (Format.asprintf "%a" Fault_plan.pp_fault ev.Engine.fault);
        if ev.Engine.round < 0 || ev.Engine.round > o.Engine.rounds then
          rep.Report.f ~round:ev.Engine.round ~check:"fault-ledger"
            "ledger event fired outside the %d simulated rounds"
            o.Engine.rounds;
        let obs = ev.Engine.observed_by in
        if List.sort_uniq compare obs <> obs then
          rep.Report.f ~round:ev.Engine.round ~check:"fault-ledger"
            "observed_by is not sorted and duplicate-free";
        List.iter
          (fun v ->
            if v < 0 || v >= n then
              rep.Report.f ~node:v ~round:ev.Engine.round
                ~check:"fault-ledger" "observed_by names an out-of-range node")
          obs;
        match ev.Engine.fault with
        | Fault_plan.Crash { node; round } ->
            if obs <> [] then
              rep.Report.f ~node ~round:ev.Engine.round ~check:"fault-ledger"
                "a crash is never directly observed but observed_by is \
                 non-empty";
            if ev.Engine.round <> round then
              rep.Report.f ~node ~round:ev.Engine.round ~check:"fault-ledger"
                "crash scheduled for round %d fired at round %d" round
                ev.Engine.round;
            if
              node < 0 || node >= n
              || fo.Engine.crashed_at.(node) <> round
            then
              rep.Report.f ~node ~round ~check:"fault-ledger"
                "ledger crashes the node here but crashed_at disagrees"
        | Fault_plan.Link_down { round; _ } | Fault_plan.Link_up { round; _ }
          ->
            if obs <> [] then
              rep.Report.f ~round:ev.Engine.round ~check:"fault-ledger"
                "a link event is never directly observed but observed_by is \
                 non-empty";
            if ev.Engine.round <> round then
              rep.Report.f ~round:ev.Engine.round ~check:"fault-ledger"
                "link event scheduled for round %d fired at round %d" round
                ev.Engine.round
        | Fault_plan.Leave { node; round } ->
            if ev.Engine.round <> round then
              rep.Report.f ~node ~round:ev.Engine.round ~check:"fault-ledger"
                "leave scheduled for round %d fired at round %d" round
                ev.Engine.round;
            if obs <> [] && obs <> [ node ] then
              rep.Report.f ~node ~round ~check:"fault-ledger"
                "a leave is observed by at most the departing node itself"
        | Fault_plan.Join { node; round; _ }
        | Fault_plan.Retag { node; round; _ } ->
            if ev.Engine.round <> round then
              rep.Report.f ~node ~round:ev.Engine.round ~check:"fault-ledger"
                "join/retag scheduled for round %d fired at round %d" round
                ev.Engine.round;
            if obs <> [ node ] then
              rep.Report.f ~node ~round ~check:"fault-ledger"
                "a join/retag is observed by exactly the affected node"
        | Fault_plan.Drop _ | Fault_plan.Noise _ | Fault_plan.Jitter _ -> ())
      fo.Engine.ledger;
    Array.iteri
      (fun v r ->
        if
          r >= 0
          && not
               (List.exists
                  (fun f ->
                    match f with
                    | Fault_plan.Leave { node; _ } -> node = v
                    | _ -> false)
                  plan)
        then
          rep.Report.f ~node:v ~round:r ~check:"fault-ledger"
            "departed_at records a departure the plan never schedules")
      fo.Engine.departed_at;
    Array.iteri
      (fun v r ->
        if r >= 0 then begin
          if Fault_plan.crash_round plan v <> Some r then
            rep.Report.f ~node:v ~round:r ~check:"fault-ledger"
              "crashed_at records a crash the plan does not schedule for \
               this round";
          if
            not
              (List.exists
                 (fun (ev : Engine.fired) ->
                   match ev.Engine.fault with
                   | Fault_plan.Crash { node; _ } -> node = v
                   | _ -> false)
                 fo.Engine.ledger)
          then
            rep.Report.f ~node:v ~round:r ~check:"fault-ledger"
              "node crashed but the ledger has no crash event for it"
        end)
      fo.Engine.crashed_at
  end

(* The one pass over an outcome; the pristine model is the empty plan with
   no crash.  A crashed node stops deciding mid-history, which the anonymity
   replay cannot distinguish from a deliberate Listen, so the DRIP law is
   only checked when no crash fired; and a fault-free re-run reproduces only
   a fault-free outcome. *)
let conformance ?protocol ~plan ~crashed ~fault_free o =
  structural ~crashed o
  @ trace_conformance ~plan ~crashed o
  @ (if Array.for_all (fun c -> c < 0) crashed then anonymity o else [])
  @
  match protocol with
  | None -> []
  | Some p -> Purity.replay p o @ if fault_free then Purity.rerun p o else []

let validate ?protocol o =
  conformance ?protocol ~plan:Fault_plan.empty ~crashed:[||] ~fault_free:true
    o

let validate_faulty ?protocol (fo : Engine.plan_outcome) =
  if Fault_plan.has_topology fo.Engine.plan then
    (* Every other check recomputes semantics against the static graph and
       the original tags; under topology events only the ledger's internal
       consistency is checkable without re-simulating the churn. *)
    ledger_consistency fo
  else
    let fault_free =
      Fault_plan.is_empty fo.Engine.plan && fo.Engine.ledger = []
    in
    ledger_consistency fo
    @ conformance ?protocol ~plan:fo.Engine.plan ~crashed:fo.Engine.crashed_at
        ~fault_free fo.Engine.base
