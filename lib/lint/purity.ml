module Engine = Radio_sim.Engine
module Trace = Radio_sim.Trace
module History = Radio_drip.History
module Protocol = Radio_drip.Protocol

let tx_by_round (o : Engine.outcome) =
  let tx = Array.make (max o.Engine.rounds 0) [] in
  List.iter
    (fun (ev : Trace.round_events) ->
      if ev.Trace.round >= 0 && ev.Trace.round < Array.length tx then
        tx.(ev.Trace.round) <- ev.Trace.transmitters)
    o.Engine.trace;
  tx

let is_traced (o : Engine.outcome) = o.Engine.trace <> []

let last_decision_round (o : Engine.outcome) v =
  if o.Engine.done_local.(v) >= 0 then o.Engine.done_local.(v)
  else if o.Engine.wake_round.(v) < 0 then 0
  else History.length o.Engine.histories.(v) - 1

(* What the engine recorded node [v] as doing in local round [i], derived
   from the trace (authoritative for transmissions) and [done_local]. *)
let recorded_action (o : Engine.outcome) tx v i =
  if o.Engine.done_local.(v) = i then Protocol.Terminate
  else
    let r = o.Engine.wake_round.(v) + i in
    if r < Array.length tx then
      match List.assoc_opt v tx.(r) with
      | Some m -> Protocol.Transmit m
      | None -> Protocol.Listen
    else Protocol.Listen

let pp_action ppf = function
  | Protocol.Listen -> Format.fprintf ppf "Listen"
  | Protocol.Quiet k -> Format.fprintf ppf "Quiet %d" k
  | Protocol.Transmit m -> Format.fprintf ppf "Transmit %S" m
  | Protocol.Terminate -> Format.fprintf ppf "Terminate"

let replay (proto : Protocol.t) (o : Engine.outcome) =
  Report.collect @@ fun rep ->
  let traced = is_traced o in
  let tx = tx_by_round o in
  let n = Array.length o.Engine.histories in
  for v = 0 to n - 1 do
    let hist = o.Engine.histories.(v) in
    if History.length hist > 0 then begin
      let wake = o.Engine.wake_round.(v) in
      let inst = proto.Protocol.spawn () in
      inst.Protocol.on_wakeup (History.get hist 0);
      let last = last_decision_round o v in
      let diverged = ref false in
      let i = ref 1 in
      while (not !diverged) && !i <= last do
        let local = !i in
        let round = wake + local in
        let a = Protocol.per_round (inst.Protocol.decide ()) in
        (match a with
        | Protocol.Terminate when o.Engine.done_local.(v) <> local ->
            diverged := true;
            rep.Report.f ~node:v ~round ~check:"purity.replay"
              "fresh instance terminated at local round %d but the recorded \
               run %s"
              local
              (if o.Engine.done_local.(v) < 0 then "never terminated"
               else
                 Printf.sprintf "terminated at local round %d"
                   o.Engine.done_local.(v))
        | _ when o.Engine.done_local.(v) = local && a <> Protocol.Terminate ->
            diverged := true;
            rep.Report.f ~node:v ~round ~check:"purity.replay"
              "recorded run terminated at local round %d but the fresh \
               instance decided %a"
              local pp_action a
        | _ when traced ->
            let expected = recorded_action o tx v local in
            if a <> expected then begin
              diverged := true;
              rep.Report.f ~node:v ~round ~check:"purity.replay"
                "local round %d: fresh instance decided %a, recorded run did \
                 %a — instances are not a pure function of the history \
                 (shared mutable state between spawns?)"
                local pp_action a pp_action expected
            end
        | Protocol.Transmit _ ->
            (* Untraced fallback: a transmitter hears [Silence]. *)
            let heard = History.get hist local in
            if not (History.equal_entry heard History.Silence) then begin
              diverged := true;
              rep.Report.f ~node:v ~round ~check:"purity.replay"
                "local round %d: fresh instance transmits but the recorded \
                 entry is not Silence"
                local
            end
        | Protocol.Listen | Protocol.Quiet _ | Protocol.Terminate -> ());
        if (not !diverged) && a <> Protocol.Terminate then
          if local < History.length hist then
            inst.Protocol.observe (History.get hist local);
        incr i
      done
    end
  done

let rerun (proto : Protocol.t) (o : Engine.outcome) =
  if o.Engine.rounds = 0 then []
  else begin
    Report.collect @@ fun rep ->
    let o' = Engine.run ~max_rounds:o.Engine.rounds proto o.Engine.config in
    let n = Array.length o.Engine.histories in
    for v = 0 to n - 1 do
      if not (History.equal o.Engine.histories.(v) o'.Engine.histories.(v))
      then
        rep.Report.f ~node:v ~check:"purity.rerun"
          "history differs between two runs on the same configuration: %s \
           vs %s"
          (History.to_string o.Engine.histories.(v))
          (History.to_string o'.Engine.histories.(v));
      if o.Engine.wake_round.(v) <> o'.Engine.wake_round.(v) then
        rep.Report.f ~node:v ~check:"purity.rerun"
          "wake-up round differs between two runs (%d vs %d)"
          o.Engine.wake_round.(v) o'.Engine.wake_round.(v);
      if o.Engine.done_local.(v) <> o'.Engine.done_local.(v) then
        rep.Report.f ~node:v ~check:"purity.rerun"
          "termination round differs between two runs (%d vs %d)"
          o.Engine.done_local.(v) o'.Engine.done_local.(v)
    done
  end
