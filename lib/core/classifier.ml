module Config = Radio_config.Config

type iteration = {
  index : int;
  old_class : int array;
  labels : Label.t array;
  new_class : int array;
  num_classes : int;
  reps : int array;
}

type verdict =
  | Feasible of { singleton_class : int }
  | Infeasible

type run = {
  config : Config.t;
  iterations : iteration list;
  verdict : verdict;
}

(* [Refine] (Algorithm 2).  [reps] lists the representatives of classes
   [1 .. num_classes] of the previous partition; nodes matching an existing
   representative (same previous class, equal label) keep its class number,
   the others open new classes in node order.  Nodes are always scanned in
   the fixed order 0 .. n-1, the paper's "arbitrary but fixed" ordering. *)
let refine ~old_class ~labels ~num_classes ~reps =
  let n = Array.length old_class in
  let new_class = Array.make n 0 in
  let reps = ref (Array.to_list reps) in
  let num = ref num_classes in
  let find_class v =
    (* Linear scan over representatives, as in the paper; at most one can
       match because distinct representatives carry distinct
       (previous class, label) pairs. *)
    let rec scan k = function
      | [] -> None
      | rep :: rest ->
          if old_class.(v) = old_class.(rep) && Label.equal labels.(v) labels.(rep)
          then Some k
          else scan (k + 1) rest
    in
    scan 1 !reps
  in
  for v = 0 to n - 1 do
    match find_class v with
    | Some k -> new_class.(v) <- k
    | None ->
        incr num;
        new_class.(v) <- !num;
        reps := !reps @ [ v ]
  done;
  (new_class, !num, Array.of_list !reps)

let classify config =
  let config =
    if Config.is_normalized config then config
    else Config.create (Config.graph config) (Config.tags config)
  in
  let n = Config.size config in
  (* radiolint: allow partiality — n > 0: anorad and serve refuse it at load *)
  if n = 0 then invalid_arg "Classifier.classify: empty configuration";
  (* Init-Aug (Algorithm 1): one class holding every node, represented by
     node 0. *)
  let max_iters = (n + 1) / 2 in
  let rec iterate index ~class_of ~num_classes ~reps acc =
    if index > max_iters then
      (* Lemma 3.4: unreachable for a correct implementation. *)
      (* radiolint: allow partiality — Lemma 3.4: at most ⌈n/2⌉ iterations *)
      invalid_arg "Classifier.classify: exceeded ⌈n/2⌉ iterations"
    else begin
      let labels = Partition.compute_labels config ~class_of in
      let new_class, new_num, new_reps =
        refine ~old_class:class_of ~labels ~num_classes ~reps
      in
      let it =
        {
          index;
          old_class = class_of;
          labels;
          new_class;
          num_classes = new_num;
          reps = new_reps;
        }
      in
      let acc = it :: acc in
      match Partition.singleton_class ~num_classes:new_num new_class with
      | Some m -> (List.rev acc, Feasible { singleton_class = m })
      | None ->
          if new_num = num_classes then (List.rev acc, Infeasible)
          else
            iterate (index + 1) ~class_of:new_class ~num_classes:new_num
              ~reps:new_reps acc
    end
  in
  let iterations, verdict =
    iterate 1 ~class_of:(Array.make n 1) ~num_classes:1 ~reps:[| 0 |] []
  in
  { config; iterations; verdict }

let is_feasible run =
  match run.verdict with Feasible _ -> true | Infeasible -> false

let last_iteration run =
  match List.rev run.iterations with
  | it :: _ -> it
  (* radiolint: allow partiality — classify always records an iteration *)
  | [] -> invalid_arg "Classifier.last_iteration: empty run"

let canonical_leader run =
  match run.verdict with
  | Infeasible -> None
  | Feasible { singleton_class } ->
      (* radiolint: allow partiality — feasible runs have a singleton member *)
      Some (Partition.member_of_class (last_iteration run).new_class singleton_class)

let table_of_iteration it =
  Array.init it.num_classes (fun i ->
      let rep = it.reps.(i) in
      (it.old_class.(rep), it.labels.(rep)))

let num_iterations run = List.length run.iterations

let pp_run ppf run =
  Format.fprintf ppf "@[<v>classifier run on n=%d, σ=%d:"
    (Config.size run.config) (Config.span run.config);
  List.iter
    (fun it ->
      Format.fprintf ppf "@ iteration %d: %d classes, partition [%a]" it.index
        it.num_classes
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
           Format.pp_print_int)
        (Array.to_list it.new_class))
    run.iterations;
  (match run.verdict with
  | Feasible { singleton_class } ->
      Format.fprintf ppf "@ verdict: FEASIBLE (singleton class %d)" singleton_class
  | Infeasible -> Format.fprintf ppf "@ verdict: INFEASIBLE");
  Format.fprintf ppf "@]"
