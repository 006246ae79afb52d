let to_dot ?(name = "G") ?label g =
  let label = Option.value label ~default:string_of_int in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  List.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf "  %d [label=\"%s\"];\n" v (label v)))
    (Graph.vertices g);
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
