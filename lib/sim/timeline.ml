module H = Radio_drip.History

let transmissions_by_node_round trace =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      List.iter
        (fun (v, _) -> Hashtbl.replace tbl (v, ev.Trace.round) ())
        ev.Trace.transmitters)
    trace;
  tbl

let symbol outcome tx v r =
  let wake = outcome.Engine.wake_round.(v) in
  if r < wake then '.'
  else if r = wake then if outcome.Engine.forced.(v) then 'W' else 'w'
  else begin
    let local = r - wake in
    let dn = outcome.Engine.done_local.(v) in
    if dn >= 0 && local = dn then '#'
    else if dn >= 0 && local > dn then ' '
    else if local >= H.length outcome.Engine.histories.(v) then ' '
    else
      match H.get outcome.Engine.histories.(v) local with
      | H.Message _ -> 'm'
      | H.Collision -> '*'
      | H.Silence -> if Hashtbl.mem tx (v, r) then 'T' else ' '
  end

let render ?(max_cols = 120) outcome =
  let n = Array.length outcome.Engine.histories in
  let rounds = outcome.Engine.rounds in
  let shown = min rounds max_cols in
  let buf = Buffer.create (n * (shown + 16)) in
  let tx = transmissions_by_node_round outcome.Engine.trace in
  if outcome.Engine.trace = [] && outcome.Engine.metrics.Metrics.transmissions > 0
  then
    Buffer.add_string buf
      "(run without record_trace: transmissions rendered as silence)\n";
  (* Column ruler every 10 rounds. *)
  Buffer.add_string buf "        ";
  for r = 0 to shown - 1 do
    Buffer.add_char buf (if r mod 10 = 0 then '|' else ' ')
  done;
  Buffer.add_char buf '\n';
  for v = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "%6d  " v);
    for r = 0 to shown - 1 do
      Buffer.add_char buf (symbol outcome tx v r)
    done;
    if rounds > shown then
      Buffer.add_string buf (Printf.sprintf " ... (+%d rounds)" (rounds - shown));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let legend =
  "legend: . asleep | w spontaneous wake | W forced wake | T transmit\n\
  \        m message heard | * collision heard | (space) silence | # done\n"

let render_with_legend ?max_cols outcome = render ?max_cols outcome ^ legend
