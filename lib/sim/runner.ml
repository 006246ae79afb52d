module History = Radio_drip.History

type election = {
  protocol : Radio_drip.Protocol.t;
  decision : History.t -> bool;
}

type result = {
  outcome : Engine.outcome;
  winners : int list;
  leader : int option;
  rounds_to_elect : int option;
}

let run ?max_rounds ?record_trace e config =
  let outcome = Engine.run ?max_rounds ?record_trace e.protocol config in
  let winners =
    if outcome.Engine.all_terminated then
      List.filter
        (fun v -> e.decision outcome.Engine.histories.(v))
        (List.init (Radio_config.Config.size config) Fun.id)
    else []
  in
  let leader =
    match (outcome.Engine.all_terminated, winners) with
    | true, [ v ] -> Some v
    | _ -> None
  in
  let rounds_to_elect =
    match leader with
    | Some _ -> Some (Engine.completion_round outcome)
    | None -> None
  in
  { outcome; winners; leader; rounds_to_elect }

let elects_unique_leader r = Option.is_some r.leader

(* Histories are bucketed by {!History.hash}, so grouping costs one pass
   over the events instead of pairwise comparisons. *)
module Hist_tbl = Hashtbl.Make (History)

(* One grouping pass: classes numbered from 1 in order of first occurrence,
   and [counts.(c)] the size of class [c]. *)
let grouping outcome =
  let hists = outcome.Engine.histories in
  let ids = Hist_tbl.create (Array.length hists) in
  let counts = Array.make (Array.length hists + 1) 0 in
  let classes =
    Array.map
      (fun h ->
        let c =
          match Hist_tbl.find_opt ids h with
          | Some c -> c
          | None ->
              let c = Hist_tbl.length ids + 1 in
              Hist_tbl.add ids h c;
              c
        in
        counts.(c) <- counts.(c) + 1;
        c)
      hists
  in
  (classes, counts)

let history_classes outcome = fst (grouping outcome)

let history_summary outcome =
  let classes, counts = grouping outcome in
  ( List.sort compare (List.filter (fun s -> s > 0) (Array.to_list counts)),
    List.filter
      (fun v -> counts.(classes.(v)) = 1)
      (List.init (Array.length classes) Fun.id) )

let unique_history_nodes outcome = snd (history_summary outcome)
