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

let max_candidates = 100_000

(* Whether the n x (max_tag + 1) candidate changes pass [max_candidates],
   tested without forming the product, which may overflow. *)
let over_budget config ~max_tag =
  let n = C.size config in
  n > 0 && max_tag >= max_candidates / n

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
  else if over_budget config ~max_tag then None
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
   touched, total displacement).  A change set extends by one candidate
   change, at a later candidate index, for a yet-untouched node; sets are
   capped at [max_changes].  The extensions of one set are generated
   lazily, in the order the queue pops them (by displacement, then
   index): popping an extension pushes its next sibling.  The queue then
   holds a few entries per popped set instead of every extension, and
   the pop order, so the plan found, is that of pushing them all at
   once. *)
type entry = {
  touched : int;
  cost : int;
  from_index : int;  (* extensions use candidates from here on *)
  changes : change list;  (* latest change first *)
  parent : entry option;  (* the set this one extends *)
  rank : int;  (* the added change's position in the extension order *)
}

let compare_entry e1 e2 =
  match Int.compare e1.touched e2.touched with
  | 0 -> (
      match Int.compare e1.cost e2.cost with
      | 0 -> (
          match Int.compare e1.from_index e2.from_index with
          | 0 -> List.compare compare_change e1.changes e2.changes
          | c -> c)
      | c -> c)
  | c -> c

let displacement ch = abs (ch.new_tag - ch.old_tag)

let repair ?max_tag ?(max_changes = 2) config =
  let max_tag = Option.value max_tag ~default:(C.span config + 1) in
  (* radiolint: allow partiality — CLI refuses < 1; the default is 2 *)
  if max_changes < 1 then invalid_arg "Repair.repair: max_changes must be >= 1";
  if feasible config then
    Some { changes = []; repaired = config; cost = 0 }
  else if over_budget config ~max_tag then None
  else begin
    let candidates = Array.of_list (candidate_changes config ~max_tag) in
    (* the extension order: by displacement, ties by candidate index *)
    let order = Array.init (Array.length candidates) Fun.id in
    Array.stable_sort
      (fun i j ->
        Int.compare (displacement candidates.(i)) (displacement candidates.(j)))
      order;
    let module Pq = Set.Make (struct
      type t = entry

      let compare = compare_entry
    end) in
    let frontier = ref Pq.empty in
    (* Pushes the first extension of [p] ranked after [after]. *)
    let extend p ~after =
      let fits k =
        order.(k) >= p.from_index
        && not
             (List.exists (fun c -> c.node = candidates.(order.(k)).node)
                p.changes)
      in
      let k = ref (after + 1) in
      while !k < Array.length order && not (fits !k) do
        incr k
      done;
      if !k < Array.length order then
        let ch = candidates.(order.(!k)) in
        frontier :=
          Pq.add
            {
              touched = p.touched + 1;
              cost = p.cost + displacement ch;
              from_index = order.(!k) + 1;
              changes = ch :: p.changes;
              parent = Some p;
              rank = !k;
            }
            !frontier
    in
    frontier :=
      Pq.singleton
        {
          touched = 0;
          cost = 0;
          from_index = 0;
          changes = [];
          parent = None;
          rank = -1;
        };
    let result = ref None in
    while Option.is_none !result && not (Pq.is_empty !frontier) do
      let e = Pq.min_elt !frontier in
      frontier := Pq.remove e !frontier;
      let plan = plan_of_changes config e.changes in
      if e.changes <> [] && feasible plan.repaired then result := Some plan
      else begin
        Option.iter (fun p -> extend p ~after:e.rank) e.parent;
        if e.touched < max_changes then extend e ~after:(-1)
      end
    done;
    !result
  end

let pp_plan ppf (p : plan) =
  Format.fprintf ppf "@[<v>repair plan (cost %d):" p.cost;
  if p.changes = [] then Format.fprintf ppf "@ already feasible, no change"
  else
    List.iter
      (fun ch ->
        Format.fprintf ppf "@ node %d: tag %d -> %d" ch.node ch.old_tag
          ch.new_tag)
      p.changes;
  Format.fprintf ppf "@]"
