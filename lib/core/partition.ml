module Config = Radio_config.Config
module G = Radio_graph.Graph

let compute_label config ~class_of v =
  let g = Config.graph config in
  let sigma = Config.span config in
  let tv = Config.tag config v in
  let cv = class_of.(v) in
  let slots =
    G.fold_neighbours g v ~init:[] ~f:(fun acc w ->
        let tw = Config.tag config w in
        let cw = class_of.(w) in
        if cw = cv && tw = tv then acc
        else (cw, sigma + 1 + tw - tv) :: acc)
  in
  Label.of_neighbour_slots slots

let compute_labels config ~class_of =
  let n = Config.size config in
  if Array.length class_of <> n then
    (* radiolint: allow partiality — the classifiers pass one class per node *)
    invalid_arg "Partition.compute_labels: class array length mismatch";
  Array.init n (compute_label config ~class_of)

let class_sizes ~num_classes class_of =
  let sizes = Array.make num_classes 0 in
  Array.iter
    (fun c ->
      if c < 1 || c > num_classes then
        (* radiolint: allow partiality — classes are numbered 1..num_classes *)
        invalid_arg "Partition.class_sizes: class number out of range";
      sizes.(c - 1) <- sizes.(c - 1) + 1)
    class_of;
  sizes

let singleton_class ~num_classes class_of =
  let sizes = class_sizes ~num_classes class_of in
  let rec find k =
    if k > num_classes then None
    else if sizes.(k - 1) = 1 then Some k
    else find (k + 1)
  in
  find 1

let member_of_class class_of k =
  let n = Array.length class_of in
  let rec find v =
    if v >= n then raise Not_found
    else if class_of.(v) = k then v
    else find (v + 1)
  in
  find 0

let assignments_equal a b = a = b
