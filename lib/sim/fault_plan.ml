module Config = Radio_config.Config
module G = Radio_graph.Graph

type fault =
  | Crash of { node : int; round : int }
  | Drop of { src : int; dst : int; round : int }
  | Noise of { node : int; round : int }
  | Jitter of { node : int; delta : int }
  | Link_down of { u : int; v : int; round : int }
  | Link_up of { u : int; v : int; round : int }
  | Leave of { node : int; round : int }
  | Join of { node : int; round : int; tag : int }
  | Retag of { node : int; round : int; tag : int }

type t = fault list

let empty = []

let is_empty p = p = []

(* Links are undirected: canonicalize endpoint order so that
   [Link_down {u; v}] and [Link_down {v; u}] are the same fault. *)
let canon = function
  | Link_down { u; v; round } when u > v -> Link_down { u = v; v = u; round }
  | Link_up { u; v; round } when u > v -> Link_up { u = v; v = u; round }
  | f -> f

(* Sort key keeping kinds grouped and everything else ordered. *)
let key f =
  match canon f with
  | Crash { node; round } -> (0, round, node, 0, 0)
  | Drop { src; dst; round } -> (1, round, src, dst, 0)
  | Noise { node; round } -> (2, round, node, 0, 0)
  | Jitter { node; delta } -> (3, 0, node, delta, 0)
  | Link_down { u; v; round } -> (4, round, u, v, 0)
  | Link_up { u; v; round } -> (5, round, u, v, 0)
  | Leave { node; round } -> (6, round, node, 0, 0)
  | Join { node; round; tag } -> (7, round, node, tag, 0)
  | Retag { node; round; tag } -> (8, round, node, tag, 0)

(* Two [Join]s or [Retag]s racing to set the same node's tag in the same
   round conflict whatever the tags: they collapse under this key (and
   {!of_string} rejects them as duplicates).  Jitters on the same node sum,
   and crashes of the same node in different rounds resolve to the
   earliest, so those stay distinct. *)
let conflict_key f =
  match key f with
  | ((7 | 8) as k), round, node, _tag, x -> (k, round, node, 0, x)
  | k -> k

let normalize p =
  let sorted =
    List.sort_uniq (fun a b -> compare (key a) (key b)) (List.map canon p)
  in
  (* Sorted by [key], conflicting entries are adjacent: keep the first
     (smallest tag), so a normalized plan always serializes cleanly. *)
  let rec dedup = function
    | a :: (b :: _ as rest) when conflict_key a = conflict_key b ->
        a :: dedup (List.filter (fun f -> conflict_key f <> conflict_key a) rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

let is_topology = function
  | Link_down _ | Link_up _ | Leave _ | Join _ | Retag _ -> true
  | Crash _ | Drop _ | Noise _ | Jitter _ -> false

let has_topology p = List.exists is_topology p

let validate config p =
  let n = Config.size config in
  let g = Config.graph config in
  let node_ok v = v >= 0 && v < n in
  (* A drop may follow a link that only exists because the plan flaps it
     up: the static-edge check applies only to untouched pairs. *)
  let link_touched a b =
    List.exists
      (function
        | Link_down { u; v; _ } | Link_up { u; v; _ } ->
            (u = a && v = b) || (u = b && v = a)
        | _ -> false)
      p
  in
  let rec go = function
    | [] -> Ok ()
    | Crash { node; round } :: rest ->
        if not (node_ok node) then
          Error (Printf.sprintf "crash names node %d outside 0..%d" node (n - 1))
        else if round < 0 then
          Error (Printf.sprintf "crash of node %d at negative round %d" node round)
        else go rest
    | Drop { src; dst; round } :: rest ->
        if not (node_ok src && node_ok dst) then
          Error (Printf.sprintf "drop names node outside 0..%d" (n - 1))
        else if not (G.mem_edge g src dst || link_touched src dst) then
          Error (Printf.sprintf "drop follows no edge: %d-%d" src dst)
        else if round < 0 then
          Error (Printf.sprintf "drop on edge %d->%d at negative round %d" src dst round)
        else go rest
    | Noise { node; round } :: rest ->
        if not (node_ok node) then
          Error (Printf.sprintf "noise names node %d outside 0..%d" node (n - 1))
        else if round < 0 then
          Error (Printf.sprintf "noise at node %d at negative round %d" node round)
        else go rest
    | Jitter { node; delta = _ } :: rest ->
        if not (node_ok node) then
          Error (Printf.sprintf "jitter names node %d outside 0..%d" node (n - 1))
        else go rest
    | (Link_down { u; v; round } | Link_up { u; v; round }) :: rest ->
        if not (node_ok u && node_ok v) then
          Error (Printf.sprintf "link event names node outside 0..%d" (n - 1))
        else if u = v then
          Error (Printf.sprintf "link event is a self-loop at node %d" u)
        else if round < 0 then
          Error
            (Printf.sprintf "link event on %d-%d at negative round %d" u v round)
        else go rest
    | Leave { node; round } :: rest ->
        if not (node_ok node) then
          Error (Printf.sprintf "leave names node %d outside 0..%d" node (n - 1))
        else if round < 0 then
          Error (Printf.sprintf "leave of node %d at negative round %d" node round)
        else go rest
    | Join { node; round; tag } :: rest ->
        if not (node_ok node) then
          Error (Printf.sprintf "join names node %d outside 0..%d" node (n - 1))
        else if round < 0 then
          Error (Printf.sprintf "join of node %d at negative round %d" node round)
        else if tag < 0 then
          Error (Printf.sprintf "join of node %d with negative tag %d" node tag)
        else go rest
    | Retag { node; round; tag } :: rest ->
        if not (node_ok node) then
          Error (Printf.sprintf "retag names node %d outside 0..%d" node (n - 1))
        else if round < 0 then
          Error (Printf.sprintf "retag of node %d at negative round %d" node round)
        else if tag < 0 then
          Error (Printf.sprintf "retag of node %d with negative tag %d" node tag)
        else go rest
  in
  go p

let crash_round p v =
  List.fold_left
    (fun acc f ->
      match f with
      | Crash { node; round } when node = v -> (
          match acc with
          | Some r when r <= round -> acc
          | _ -> Some round)
      | _ -> acc)
    None p

let dropped p ~src ~dst ~round =
  List.exists
    (function
      | Drop d -> d.src = src && d.dst = dst && d.round = round
      | _ -> false)
    p

let noisy p ~node ~round =
  List.exists
    (function
      | Noise x -> x.node = node && x.round = round
      | _ -> false)
    p

let jitter_of p v =
  List.fold_left
    (fun acc f ->
      match f with Jitter { node; delta } when node = v -> acc + delta | _ -> acc)
    0 p

let apply_jitter p config =
  if not (List.exists (function Jitter _ -> true | _ -> false) p) then config
  else
    let tags = Config.tags config in
    Array.iteri (fun v t -> tags.(v) <- max 0 (t + jitter_of p v)) tags;
    Config.create ~normalize:false (Config.graph config) tags

(* ------------------------------------------------------------------ *)
(* Seeded sampling: a local splitmix-style generator so fault plans     *)
(* never touch the ambient Random state (fault-purity).                 *)
(* ------------------------------------------------------------------ *)

module Prng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  (* Uniform in [0 .. bound - 1]; bound >= 1. *)
  let int t bound =
    let mask = Int64.shift_right_logical (next t) 1 in
    Int64.to_int (Int64.rem mask (Int64.of_int bound))
end

let shuffled_nodes rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let crash_schedule ~seed ~horizon config =
  let n = Config.size config in
  let rng = Prng.create seed in
  let order = shuffled_nodes rng n in
  Array.to_list
    (Array.map (fun v -> (v, Prng.int rng (max 1 horizon))) order)

let sample ~seed ?(crashes = 0) ?(drops = 0) ?(noise = 0) ?(jitters = 0)
    ?max_jitter ?(link_flaps = 0) ?(node_flaps = 0) ?(retags = 0) ~horizon
    config =
  let n = Config.size config in
  let rng = Prng.create seed in
  let horizon = max 1 horizon in
  let max_jitter =
    match max_jitter with Some j -> max 1 j | None -> Config.span config + 1
  in
  let faults = ref [] in
  let order = shuffled_nodes rng n in
  for i = 0 to min crashes n - 1 do
    faults := Crash { node = order.(i); round = Prng.int rng horizon } :: !faults
  done;
  let edges = Array.of_list (G.edges (Config.graph config)) in
  if Array.length edges > 0 then
    for _ = 1 to drops do
      let u, v = edges.(Prng.int rng (Array.length edges)) in
      let src, dst = if Prng.int rng 2 = 0 then (u, v) else (v, u) in
      faults := Drop { src; dst; round = Prng.int rng horizon } :: !faults
    done;
  for _ = 1 to noise do
    faults :=
      Noise { node = Prng.int rng n; round = Prng.int rng horizon } :: !faults
  done;
  for _ = 1 to jitters do
    let delta = 1 + Prng.int rng max_jitter in
    let delta = if Prng.int rng 2 = 0 then -delta else delta in
    faults := Jitter { node = Prng.int rng n; delta } :: !faults
  done;
  (* A link flap is a paired down/up on an existing edge: down at [r],
     back up strictly later, still inside the horizon whenever it fits. *)
  if Array.length edges > 0 && horizon >= 2 then
    for _ = 1 to link_flaps do
      let u, v = edges.(Prng.int rng (Array.length edges)) in
      let down = Prng.int rng (horizon - 1) in
      let up = down + 1 + Prng.int rng (horizon - down - 1 |> max 1) in
      faults := Link_down { u; v; round = down } :: !faults;
      faults := Link_up { u; v; round = up } :: !faults
    done;
  (* A node flap is a paired leave/join; the rejoin carries a fresh tag
     in [0 .. span]. *)
  if horizon >= 2 then
    for _ = 1 to node_flaps do
      let node = Prng.int rng n in
      let leave = Prng.int rng (horizon - 1) in
      let join = leave + 1 + Prng.int rng (horizon - leave - 1 |> max 1) in
      let tag = Prng.int rng (Config.span config + 1) in
      faults := Leave { node; round = leave } :: !faults;
      faults := Join { node; round = join; tag } :: !faults
    done;
  for _ = 1 to retags do
    let node = Prng.int rng n in
    let round = Prng.int rng horizon in
    let tag = Prng.int rng (Config.span config + 2) in
    faults := Retag { node; round; tag } :: !faults
  done;
  normalize !faults

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let fault_to_line = function
  | Crash { node; round } -> Printf.sprintf "crash %d %d" node round
  | Drop { src; dst; round } -> Printf.sprintf "drop %d %d %d" src dst round
  | Noise { node; round } -> Printf.sprintf "noise %d %d" node round
  | Jitter { node; delta } -> Printf.sprintf "jitter %d %d" node delta
  | Link_down { u; v; round } -> Printf.sprintf "link-down %d %d %d" u v round
  | Link_up { u; v; round } -> Printf.sprintf "link-up %d %d %d" u v round
  | Leave { node; round } -> Printf.sprintf "leave %d %d" node round
  | Join { node; round; tag } -> Printf.sprintf "join %d %d %d" node round tag
  | Retag { node; round; tag } -> Printf.sprintf "retag %d %d %d" node round tag

let to_string p =
  String.concat "\n" ("faults" :: List.map fault_to_line (normalize p)) ^ "\n"

(* A conflict key identifies entries that cannot coexist in one plan: two
   identical faults, or two [Join]/[Retag] events racing to set the same
   node's tag in the same round (the tag itself is excluded so that the
   conflict is detected whatever the values).  Jitters on the same node
   sum, and crashes of the same node in different rounds resolve to the
   earliest, so those stay legal. *)
let of_string s =
  let fail ln msg =
    failwith (Printf.sprintf "Fault_plan.of_string: line %d: %s" ln msg)
  in
  let lines = String.split_on_char '\n' s in
  let meaningful =
    List.mapi (fun i line -> (i + 1, line)) lines
    |> List.filter_map (fun (ln, line) ->
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           let line = String.trim line in
           if line = "" then None else Some (ln, line))
  in
  match meaningful with
  | [] -> failwith "Fault_plan.of_string: empty input (expected 'faults' header)"
  | (hln, header) :: rest ->
      if header <> "faults" then
        fail hln (Printf.sprintf "expected 'faults' header, got %S" header);
      let parse (ln, line) =
        let words =
          String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
        in
        let int w =
          match int_of_string_opt w with
          | Some i -> i
          | None -> fail ln (Printf.sprintf "bad integer %S in %S" w line)
        in
        let fault =
          match words with
          | [ "crash"; v; r ] -> Crash { node = int v; round = int r }
          | [ "drop"; s; d; r ] ->
              Drop { src = int s; dst = int d; round = int r }
          | [ "noise"; v; r ] -> Noise { node = int v; round = int r }
          | [ "jitter"; v; d ] -> Jitter { node = int v; delta = int d }
          | [ "link-down"; u; v; r ] ->
              Link_down { u = int u; v = int v; round = int r }
          | [ "link-up"; u; v; r ] ->
              Link_up { u = int u; v = int v; round = int r }
          | [ "leave"; v; r ] -> Leave { node = int v; round = int r }
          | [ "join"; v; r; t ] ->
              Join { node = int v; round = int r; tag = int t }
          | [ "retag"; v; r; t ] ->
              Retag { node = int v; round = int r; tag = int t }
          | kind :: _
            when List.mem kind
                   [
                     "crash"; "drop"; "noise"; "jitter"; "link-down";
                     "link-up"; "leave"; "join"; "retag";
                   ] ->
              fail ln
                (Printf.sprintf "wrong number of fields for %S in %S" kind line)
          | _ -> fail ln (Printf.sprintf "unrecognized line %S" line)
        in
        (ln, canon fault)
      in
      let entries = List.map parse rest in
      (* Reject duplicate / conflicting entries with both positions named,
         instead of silently keeping one. *)
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (ln, f) ->
          let ck = conflict_key f in
          match Hashtbl.find_opt seen ck with
          | Some first ->
              fail ln
                (Printf.sprintf "duplicate of line %d (%s)" first
                   (fault_to_line f))
          | None -> Hashtbl.add seen ck ln)
        entries;
      normalize (List.map snd entries)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let pp_fault ppf f =
  match f with
  | Crash { node; round } ->
      Format.fprintf ppf "crash node %d at round %d" node round
  | Drop { src; dst; round } ->
      Format.fprintf ppf "drop %d->%d at round %d" src dst round
  | Noise { node; round } ->
      Format.fprintf ppf "noise at node %d in round %d" node round
  | Jitter { node; delta } ->
      Format.fprintf ppf "jitter node %d by %+d" node delta
  | Link_down { u; v; round } ->
      Format.fprintf ppf "link %d-%d down at round %d" u v round
  | Link_up { u; v; round } ->
      Format.fprintf ppf "link %d-%d up at round %d" u v round
  | Leave { node; round } ->
      Format.fprintf ppf "node %d leaves at round %d" node round
  | Join { node; round; tag } ->
      Format.fprintf ppf "node %d joins at round %d with tag %d" node round tag
  | Retag { node; round; tag } ->
      Format.fprintf ppf "node %d retagged to %d at round %d" node tag round

let pp ppf p =
  match normalize p with
  | [] -> Format.fprintf ppf "(no faults)"
  | fs ->
      Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_fault ppf fs
