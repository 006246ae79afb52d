type separation = {
  pair : int * int;
  iteration : int option;
}

type t = {
  run : Classifier.run;
  leader : int option;
  leader_alone_at : int option;
  stable_groups : int list list;
  separations : separation list;
}

let groups_of_partition ~num_classes class_of =
  let members = Array.make num_classes [] in
  Array.iteri
    (fun v k -> members.(k - 1) <- v :: members.(k - 1))
    class_of;
  Array.to_list members |> List.map List.rev |> List.filter (fun g -> List.length g >= 2)

let explain (run : Classifier.run) =
  let n = Radio_config.Config.size run.Classifier.config in
  let iterations = run.Classifier.iterations in
  let leader = Classifier.canonical_leader run in
  let separation_of v w =
    List.find_map
      (fun it ->
        if it.Classifier.new_class.(v) <> it.Classifier.new_class.(w) then
          Some it.Classifier.index
        else None)
      iterations
  in
  let separations = ref [] in
  for v = n - 1 downto 0 do
    for w = n - 1 downto v + 1 do
      separations := { pair = (v, w); iteration = separation_of v w } :: !separations
    done
  done;
  let leader_alone_at =
    Option.map
      (fun l ->
        (* first iteration whose partition isolates the leader *)
        let rec find = function
          | [] -> Classifier.num_iterations run
          | it :: rest ->
              let cls = it.Classifier.new_class.(l) in
              let count =
                Array.fold_left
                  (fun k c -> if c = cls then k + 1 else k)
                  0 it.Classifier.new_class
              in
              if count = 1 then it.Classifier.index else find rest
        in
        find iterations)
      leader
  in
  let last = Classifier.last_iteration run in
  {
    run;
    leader;
    leader_alone_at;
    stable_groups =
      groups_of_partition ~num_classes:last.Classifier.num_classes
        last.Classifier.new_class;
    separations = !separations;
  }

let never_separated e =
  List.filter_map
    (fun s -> match s.iteration with None -> Some s.pair | Some _ -> None)
    e.separations

let to_dot e =
  let config = e.run.Classifier.config in
  let final = (Classifier.last_iteration e.run).Classifier.new_class in
  let sizes = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      Hashtbl.replace sizes c (1 + Option.value ~default:0 (Hashtbl.find_opt sizes c)))
    final;
  let buf = Buffer.create 512 in
  Buffer.add_string buf "graph explanation {\n";
  Array.iteri
    (fun v c ->
      let singleton =
        Option.equal Int.equal (Hashtbl.find_opt sizes c) (Some 1)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  %d [label=\"v%d t=%d C%d\"%s];\n" v v
           (Radio_config.Config.tag config v)
           c
           (if singleton then " shape=doublecircle"
            else " style=dashed")) )
    final;
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v))
    (Radio_graph.Graph.edges (Radio_config.Config.graph config));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf e =
  let config = e.run.Classifier.config in
  Format.fprintf ppf "@[<v>";
  (match (e.leader, e.leader_alone_at) with
  | Some l, Some it ->
      Format.fprintf ppf
        "FEASIBLE: node %d (tag %d) acquires a globally unique history; it \
         stands alone from refinement iteration %d on."
        l
        (Radio_config.Config.tag config l)
        it
  | _ ->
      Format.fprintf ppf
        "INFEASIBLE: the refinement stalls with every class of size >= 2; \
         the groups below keep identical histories forever, under any \
         deterministic algorithm.");
  (match e.stable_groups with
  | [] -> ()
  | groups ->
      Format.fprintf ppf "@ residual indistinguishable groups:";
      List.iter
        (fun g ->
          Format.fprintf ppf "@   {%a}"
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
               Format.pp_print_int)
            g)
        groups);
  let seps = List.filter (fun s -> s.iteration <> None) e.separations in
  if seps <> [] then begin
    Format.fprintf ppf "@ pair separations (first iteration):";
    List.iter
      (fun s ->
        match s.iteration with
        | Some it ->
            let v, w = s.pair in
            Format.fprintf ppf "@   (%d, %d) at iteration %d" v w it
        | None -> ())
      seps
  end;
  Format.fprintf ppf "@]"
