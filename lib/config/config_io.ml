module G = Radio_graph.Graph

let to_string c =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "config %d\n" (Config.size c));
  Buffer.add_string buf "tags";
  Array.iter (fun t -> Buffer.add_string buf (Printf.sprintf " %d" t)) (Config.tags c);
  Buffer.add_char buf '\n';
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v))
    (G.edges (Config.graph c));
  Buffer.contents buf

(* Non-blank, non-comment lines, each with its 1-based line number. *)
let meaningful_lines s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

let tokens line = String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let fail line fmt =
  Printf.ksprintf
    (fun msg ->
      failwith (Printf.sprintf "Config_io.of_string: line %d: %s" line msg))
    fmt

let int_token line what t =
  match int_of_string_opt t with
  | Some i -> i
  | None -> fail line "bad %s: %s" what t

let of_string s =
  match meaningful_lines s with
  | (hl, header) :: (tl, tag_line) :: rest ->
      let n =
        match tokens header with
        | [ "config"; n ] -> int_token hl "vertex count" n
        | _ -> fail hl "expected 'config <n>' header"
      in
      if n < 0 then fail hl "negative vertex count %d" n;
      let tags =
        match tokens tag_line with
        | "tags" :: ts when List.length ts = n ->
            Array.of_list (List.map (int_token tl "tag") ts)
        | "tags" :: ts ->
            fail tl "expected %d tags, found %d" n (List.length ts)
        | _ -> fail tl "expected 'tags ...' line"
      in
      Array.iteri
        (fun v t -> if t < 0 then fail tl "negative tag %d at vertex %d" t v)
        tags;
      (* Edges go in one at a time so a rejected edge names its line. *)
      let b = G.Builder.create n in
      List.iter
        (fun (l, line) ->
          match tokens line with
          | [ u; v ] -> (
              let u = int_token l "edge endpoint" u in
              let v = int_token l "edge endpoint" v in
              try G.Builder.add_edge b u v
              with G.Invalid_edge msg -> fail l "%s" msg)
          | _ -> fail l "bad edge line: %s" line)
        rest;
      Config.create ~normalize:false (G.Builder.finish b) tags
  | _ -> failwith "Config_io.of_string: need a header and a tags line"

let to_dot ?(name = "C") c =
  Radio_graph.Io.to_dot ~name
    ~label:(fun v -> Printf.sprintf "v%d (t=%d)" v (Config.tag c v))
    (Config.graph c)

let write_file path c =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string c))

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      of_string (In_channel.input_all ic))
