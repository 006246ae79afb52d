module C = Radio_config.Config

type change = {
  node : int;
  old_tag : int;
  new_tag : int;
}

type plan = {
  changes : change list;
  repaired : C.t;
  cost : int;
}

let feasible config = Classifier.is_feasible (Fast_classifier.classify config)

let compare_change c1 c2 =
  match Int.compare c1.node c2.node with
  | 0 -> (
      match Int.compare c1.old_tag c2.old_tag with
      | 0 -> Int.compare c1.new_tag c2.new_tag
      | c -> c)
  | c -> c

let plan_of_changes config changes =
  let tags = C.tags config in
  List.iter (fun ch -> tags.(ch.node) <- ch.new_tag) changes;
  let repaired = C.create (C.graph config) tags in
  {
    changes = List.sort compare_change changes;
    repaired;
    cost = List.fold_left (fun a ch -> a + abs (ch.new_tag - ch.old_tag)) 0 changes;
  }

let candidate_changes config ~max_tag =
  let n = C.size config in
  let acc = ref [] in
  for node = n - 1 downto 0 do
    let old_tag = C.tag config node in
    for new_tag = max_tag downto 0 do
      if new_tag <> old_tag then acc := { node; old_tag; new_tag } :: !acc
    done
  done;
  !acc

let repair_one ?max_tag config =
  let max_tag = Option.value max_tag ~default:(C.span config + 1) in
  if max_tag < 0 then invalid_arg "Repair.repair_one: max_tag must be >= 0";
  if feasible config then
    Some { changes = []; repaired = config; cost = 0 }
  else begin
    let plans =
      List.filter_map
        (fun ch ->
          let p = plan_of_changes config [ ch ] in
          if feasible p.repaired then Some p else None)
        (candidate_changes config ~max_tag)
    in
    match List.sort (fun a b -> Int.compare a.cost b.cost) plans with
    | best :: _ -> Some best
    | [] -> None
  end

(* Best-first over change sets: explored in order of (number of nodes
   touched, total displacement).  The frontier enumerates change sets by
   adding one candidate change for a yet-untouched node to an existing set;
   sets are capped at [max_changes]. *)
let repair ?max_tag ?(max_changes = 2) config =
  let max_tag = Option.value max_tag ~default:(C.span config + 1) in
  (* radiolint: allow partiality — CLI refuses < 1; the default is 2 *)
  if max_changes < 1 then invalid_arg "Repair.repair: max_changes must be >= 1";
  if feasible config then
    Some { changes = []; repaired = config; cost = 0 }
  else begin
    let candidates = Array.of_list (candidate_changes config ~max_tag) in
    let module Pq = Set.Make (struct
      (* (touched, cost, next candidate index, change set) — lexicographic *)
      type t = int * int * int * change list

      let compare (t1, c1, i1, l1) (t2, c2, i2, l2) =
        match Int.compare t1 t2 with
        | 0 -> (
            match Int.compare c1 c2 with
            | 0 -> (
                match Int.compare i1 i2 with
                | 0 -> List.compare compare_change l1 l2
                | c -> c)
            | c -> c)
        | c -> c
    end) in
    let cost_of changes =
      List.fold_left (fun a ch -> a + abs (ch.new_tag - ch.old_tag)) 0 changes
    in
    let frontier = ref Pq.empty in
    let push changes from_index =
      frontier :=
        Pq.add
          (List.length changes, cost_of changes, from_index, changes)
          !frontier
    in
    push [] 0;
    let result = ref None in
    while !result = None && not (Pq.is_empty !frontier) do
      let ((touched, _cost, from_index, changes) as el) = Pq.min_elt !frontier in
      frontier := Pq.remove el !frontier;
      if changes <> [] && feasible (plan_of_changes config changes).repaired
      then result := Some (plan_of_changes config changes)
      else if touched < max_changes then
        (* extend with any later candidate touching a fresh node *)
        for i = from_index to Array.length candidates - 1 do
          let ch = candidates.(i) in
          if not (List.exists (fun c -> c.node = ch.node) changes) then
            push (ch :: changes) (i + 1)
        done
    done;
    !result
  end

let pp_plan ppf p =
  Format.fprintf ppf "@[<v>repair plan (cost %d):" p.cost;
  if p.changes = [] then Format.fprintf ppf "@ already feasible, no change"
  else
    List.iter
      (fun ch ->
        Format.fprintf ppf "@ node %d: tag %d -> %d" ch.node ch.old_tag
          ch.new_tag)
      p.changes;
  Format.fprintf ppf "@]"
