let mark_to_string = function Label.One -> "1" | Label.Many -> "*"

let entry_to_string (e : Canonical.entry) =
  let buf = Buffer.create 32 in
  Buffer.add_string buf
    (Printf.sprintf "entry %d %d" e.Canonical.prev_class
       (List.length e.Canonical.label));
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf " %d %d %s" t.Label.block t.Label.slot
           (mark_to_string t.Label.mark)))
    e.Canonical.label;
  Buffer.contents buf

let table_to_string name entries =
  String.concat "\n"
    (Printf.sprintf "table %s %d" name (Array.length entries)
    :: List.map entry_to_string (Array.to_list entries))

let to_string (plan : Canonical.plan) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "drip-plan 1\n";
  Buffer.add_string buf (Printf.sprintf "sigma %d\n" plan.Canonical.sigma);
  Buffer.add_string buf
    (Printf.sprintf "phases %d\n" (Array.length plan.Canonical.tables));
  Buffer.add_string buf
    (Printf.sprintf "singleton %s\n"
       (match plan.Canonical.singleton_class with
       | Some m -> string_of_int m
       | None -> "none"));
  Array.iteri
    (fun j entries ->
      Buffer.add_string buf (table_to_string (string_of_int (j + 1)) entries);
      Buffer.add_char buf '\n')
    plan.Canonical.tables;
  Buffer.add_string buf (table_to_string "final" plan.Canonical.final_table);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---------------------------------------------------------------- *)

let fail fmt = Printf.ksprintf failwith fmt

let tokens line = String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let int_token what t =
  match int_of_string_opt t with
  | Some i -> i
  | None -> fail "Plan_io.of_string: bad %s: %s" what t

let parse_entry line =
  match tokens line with
  | "entry" :: prev :: k :: rest ->
      let prev_class = int_token "prev_class" prev in
      let k = int_token "triple count" k in
      let rec triples acc rest remaining =
        if remaining = 0 then
          if rest = [] then List.rev acc
          else fail "Plan_io.of_string: trailing tokens in entry"
        else
          match rest with
          | b :: s :: m :: rest ->
              let mark =
                match m with
                | "1" -> Label.One
                | "*" -> Label.Many
                | _ -> fail "Plan_io.of_string: bad mark %s" m
              in
              triples
                ({ Label.block = int_token "block" b;
                   slot = int_token "slot" s;
                   mark }
                :: acc)
                rest (remaining - 1)
          | _ -> fail "Plan_io.of_string: truncated entry"
      in
      let label = triples [] rest k in
      { Canonical.prev_class; label }
  | _ -> fail "Plan_io.of_string: expected entry line, got: %s" line

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | magic :: sigma_l :: phases_l :: singleton_l :: rest ->
      if not (List.equal String.equal (tokens magic) [ "drip-plan"; "1" ]) then
        fail "Plan_io.of_string: bad magic line";
      let sigma =
        match tokens sigma_l with
        | [ "sigma"; x ] -> int_token "sigma" x
        | _ -> fail "Plan_io.of_string: expected sigma line"
      in
      let phases =
        match tokens phases_l with
        | [ "phases"; x ] -> int_token "phases" x
        | _ -> fail "Plan_io.of_string: expected phases line"
      in
      (* Phase 1's table L_1 is always present. *)
      if phases < 1 then fail "Plan_io.of_string: phases must be >= 1";
      let singleton_class =
        match tokens singleton_l with
        | [ "singleton"; "none" ] -> None
        | [ "singleton"; x ] -> Some (int_token "singleton" x)
        | _ -> fail "Plan_io.of_string: expected singleton line"
      in
      let rec parse_tables rest acc =
        match rest with
        | [] -> (List.rev acc, [])
        | line :: tail -> (
            match tokens line with
            | [ "table"; name; count ] ->
                let count = int_token "entry count" count in
                let rec take n acc rest =
                  if n = 0 then (List.rev acc, rest)
                  else
                    match rest with
                    | [] -> fail "Plan_io.of_string: truncated table %s" name
                    | l :: tl -> take (n - 1) (parse_entry l :: acc) tl
                in
                let entries, tail = take count [] tail in
                parse_tables tail ((name, Array.of_list entries) :: acc)
            | _ -> fail "Plan_io.of_string: expected table line, got: %s" line)
      in
      let named_tables, _ = parse_tables rest [] in
      let final_table =
        match List.assoc_opt "final" named_tables with
        | Some t -> t
        | None -> fail "Plan_io.of_string: missing final table"
      in
      (* Collected one by one, so a [phases] beyond the tables present
         fails at the first missing one before anything is allocated. *)
      let rec phase_tables j acc =
        if j > phases then Array.of_list (List.rev acc)
        else
          match List.assoc_opt (string_of_int j) named_tables with
          | Some t -> phase_tables (j + 1) (t :: acc)
          | None -> fail "Plan_io.of_string: missing table %d" j
      in
      let tables = phase_tables 1 [] in
      if sigma < 0 then fail "Plan_io.of_string: negative sigma";
      { Canonical.sigma; tables; final_table; singleton_class }
  | _ -> fail "Plan_io.of_string: missing header lines"

let write_file path plan =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string plan))

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      of_string (In_channel.input_all ic))
