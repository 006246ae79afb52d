module Config = Radio_config.Config
module G = Radio_graph.Graph
module Pool = Radio_exec.Pool

type edit =
  | Add_edge of int * int
  | Remove_edge of int * int
  | Set_tag of int * int
  | Leave of int
  | Join of int * int

let pp_edit ppf = function
  | Add_edge (u, v) -> Format.fprintf ppf "add-edge %d %d" u v
  | Remove_edge (u, v) -> Format.fprintf ppf "remove-edge %d %d" u v
  | Set_tag (v, t) -> Format.fprintf ppf "set-tag %d %d" v t
  | Leave v -> Format.fprintf ppf "leave %d" v
  | Join (v, t) -> Format.fprintf ppf "join %d %d" v t

type delta = { labels_computed : int; labels_reused : int; rebuilt : bool }

type stats = {
  edits : int;
  computed : int;
  reused : int;
  full_rebuilds : int;
}

let zero_delta = { labels_computed = 0; labels_reused = 0; rebuilt = false }
let zero_stats = { edits = 0; computed = 0; reused = 0; full_rebuilds = 0 }

type state = {
  universe : G.t;  (** full vertex set, current edge set *)
  tags : int array;  (** raw universe tags *)
  alive : bool array;
  nlive : int;
  to_cur : int array;  (** universe id -> induced index, [-1] when absent *)
  of_cur : int array;  (** induced index -> universe id *)
  cache : Classifier.run option;  (** [None] iff [nlive = 0] *)
  st : stats;
  last_d : delta;
}

(* ------------------------------------------------------------------ *)
(* State construction                                                  *)
(* ------------------------------------------------------------------ *)

let identity_mapping n = (Array.init n Fun.id, Array.init n Fun.id)

(* Record one edit's classification work. *)
let charge s ~rebuilt (cost : Fast_classifier.cost) =
  let st =
    {
      edits = s.st.edits + 1;
      computed = s.st.computed + cost.computed;
      reused = s.st.reused + cost.reused;
      full_rebuilds = (s.st.full_rebuilds + if rebuilt then 1 else 0);
    }
  in
  ( st,
    {
      labels_computed = cost.computed;
      labels_reused = cost.reused;
      rebuilt;
    } )

let init config =
  let universe = Config.graph config in
  let tags = Config.tags config in
  let n = G.size universe in
  let to_cur, of_cur = identity_mapping n in
  let cache = if n = 0 then None else Some (Fast_classifier.classify config) in
  {
    universe;
    tags;
    alive = Array.make n true;
    nlive = n;
    to_cur;
    of_cur;
    cache;
    st = zero_stats;
    last_d = zero_delta;
  }

(* A membership edit: the node [touched] left or joined, so the induced
   index space changes.  The induced configuration is rebuilt from the
   universe, and the kernel reads its memo through a remap (new induced
   index -> previous one, -1 for the joined node); [touched], when
   present, and its present neighbours are structurally dirty. *)
let membership s ~tags ~alive ~touched =
  let universe = s.universe in
  let n = G.size universe in
  let nlive = Array.fold_left (fun k a -> if a then k + 1 else k) 0 alive in
  let to_cur = Array.make n (-1) in
  let of_cur = Array.make nlive 0 in
  let j = ref 0 in
  Array.iteri
    (fun v a ->
      if a then begin
        to_cur.(v) <- !j;
        of_cur.(!j) <- v;
        incr j
      end)
    alive;
  let cache, cost =
    if nlive = 0 then (None, { Fast_classifier.computed = 0; reused = 0 })
    else begin
      let ends = Array.make (2 * G.num_edges universe) 0 in
      let m = ref 0 in
      G.iter_edges universe ~f:(fun u v ->
          if alive.(u) && alive.(v) then begin
            ends.(2 * !m) <- to_cur.(u);
            ends.((2 * !m) + 1) <- to_cur.(v);
            incr m
          end);
      let g =
        match G.of_edge_array nlive ends !m with
        | Ok g -> g
        (* radiolint: allow assert-false — the universe's own edges, renumbered *)
        | Error _ -> assert false
      in
      let config = Config.create g (Array.map (fun v -> tags.(v)) of_cur) in
      let memo =
        Option.map
          (fun previous ->
            {
              Fast_classifier.previous;
              dirty =
                List.filter_map
                  (fun w -> if alive.(w) then Some to_cur.(w) else None)
                  (touched :: G.neighbours universe touched);
              remap = Array.map (fun v -> s.to_cur.(v)) of_cur;
            })
          s.cache
      in
      let crun, cost = Fast_classifier.kernel ?memo config in
      (Some crun, cost)
    end
  in
  let st, last_d = charge s ~rebuilt:true cost in
  { s with tags; alive; nlive; to_cur; of_cur; cache; st; last_d }

(* Incremental step on an unchanged vertex set: [new_cfg] is the edited
   induced configuration, [dirty] the induced-index nodes whose label
   inputs changed directly.  The kernel reuses the previous run as its
   memo. *)
let incremental s ~universe ~tags ~new_cfg ~dirty =
  match s.cache with
  | None -> assert false (* radiolint: allow assert-false — callers check *)
  | Some previous ->
      let crun, cost =
        Fast_classifier.kernel
          ~memo:
            {
              Fast_classifier.previous;
              dirty;
              remap = Array.init (Config.size new_cfg) Fun.id;
            }
          new_cfg
      in
      let st, last_d = charge s ~rebuilt:false cost in
      { s with universe; tags; cache = Some crun; st; last_d }

(* The edit left the induced configuration untouched (it involved an absent
   node): record it and move on. *)
let untouched s ~universe ~tags =
  {
    s with
    universe;
    tags;
    st = { s.st with edits = s.st.edits + 1 };
    last_d = zero_delta;
  }

let current_config s =
  match s.cache with None -> None | Some c -> Some c.Classifier.config

let apply s edit =
  let n = G.size s.universe in
  let check_node ctx v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Incremental.apply: %s: node %d out of range" ctx v)
  in
  match edit with
  | Add_edge (u, v) ->
      check_node "add-edge" u;
      check_node "add-edge" v;
      if u = v then invalid_arg "Incremental.apply: add-edge: self-loop";
      if G.mem_edge s.universe u v then
        invalid_arg "Incremental.apply: add-edge: edge already present";
      let universe = G.add_edge s.universe u v in
      if s.alive.(u) && s.alive.(v) then begin
        match current_config s with
        | None -> assert false (* radiolint: allow assert-false — alive nodes imply a cache *)
        | Some cfg ->
            let cu = s.to_cur.(u) and cv = s.to_cur.(v) in
            let new_cfg =
              Config.create (G.add_edge (Config.graph cfg) cu cv) (Config.tags cfg)
            in
            incremental s ~universe ~tags:s.tags ~new_cfg ~dirty:[ cu; cv ]
      end
      else untouched s ~universe ~tags:s.tags
  | Remove_edge (u, v) ->
      check_node "remove-edge" u;
      check_node "remove-edge" v;
      if not (G.mem_edge s.universe u v) then
        invalid_arg "Incremental.apply: remove-edge: edge not present";
      let universe = G.remove_edge s.universe u v in
      if s.alive.(u) && s.alive.(v) then begin
        match current_config s with
        | None -> assert false (* radiolint: allow assert-false — alive nodes imply a cache *)
        | Some cfg ->
            let cu = s.to_cur.(u) and cv = s.to_cur.(v) in
            let new_cfg =
              Config.create
                (G.remove_edge (Config.graph cfg) cu cv)
                (Config.tags cfg)
            in
            incremental s ~universe ~tags:s.tags ~new_cfg ~dirty:[ cu; cv ]
      end
      else untouched s ~universe ~tags:s.tags
  | Set_tag (v, t) ->
      check_node "set-tag" v;
      if t < 0 then invalid_arg "Incremental.apply: set-tag: negative tag";
      let tags = Array.copy s.tags in
      tags.(v) <- t;
      if s.alive.(v) then begin
        match current_config s with
        | None -> assert false (* radiolint: allow assert-false — alive nodes imply a cache *)
        | Some cfg ->
            let cv = s.to_cur.(v) in
            let itags = Array.map (fun u -> tags.(u)) s.of_cur in
            let new_cfg = Config.create (Config.graph cfg) itags in
            (* Labels depend only on tag differences (and σ, which the
               kernel checks): a normalization shift dirties nothing. *)
            let dirty = cv :: G.neighbours (Config.graph cfg) cv in
            incremental s ~universe:s.universe ~tags ~new_cfg ~dirty
      end
      else untouched s ~universe:s.universe ~tags
  | Leave v ->
      check_node "leave" v;
      if not s.alive.(v) then
        invalid_arg "Incremental.apply: leave: node already absent";
      let alive = Array.copy s.alive in
      alive.(v) <- false;
      membership s ~tags:s.tags ~alive ~touched:v
  | Join (v, t) ->
      check_node "join" v;
      if s.alive.(v) then
        invalid_arg "Incremental.apply: join: node already present";
      if t < 0 then invalid_arg "Incremental.apply: join: negative tag";
      let alive = Array.copy s.alive in
      alive.(v) <- true;
      let tags = Array.copy s.tags in
      tags.(v) <- t;
      membership s ~tags ~alive ~touched:v

let live s = s.nlive
let present s v = v >= 0 && v < Array.length s.alive && s.alive.(v)
let current = current_config

(* radiolint: allow partiality — Churn reads the tags of present nodes only *)
let tag s v =
  if v < 0 || v >= Array.length s.tags then
    invalid_arg "Incremental.tag: node out of range";
  s.tags.(v)

(* radiolint: allow partiality — write_back maps current nodes *)
let node_of_current s i =
  if i < 0 || i >= s.nlive then
    invalid_arg "Incremental.node_of_current: index out of range";
  s.of_cur.(i)

let run s = s.cache

let feasible s =
  match s.cache with None -> false | Some c -> Classifier.is_feasible c

let leader s =
  match s.cache with
  | None -> None
  | Some c -> (
      match Classifier.canonical_leader c with
      | None -> None
      | Some i -> Some s.of_cur.(i))

let stats s = s.st
let last s = s.last_d

(* ------------------------------------------------------------------ *)
(* Run equality                                                        *)
(* ------------------------------------------------------------------ *)

let label_arrays_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i la -> if not (Label.equal la b.(i)) then ok := false) a;
  !ok

let verdicts_equal a b =
  match (a, b) with
  | Classifier.Infeasible, Classifier.Infeasible -> true
  | ( Classifier.Feasible { singleton_class = x },
      Classifier.Feasible { singleton_class = y } ) ->
      x = y
  | _ -> false

let iterations_equal a b =
  a.Classifier.index = b.Classifier.index
  && a.Classifier.num_classes = b.Classifier.num_classes
  && Partition.assignments_equal a.Classifier.old_class b.Classifier.old_class
  && Partition.assignments_equal a.Classifier.new_class b.Classifier.new_class
  && Partition.assignments_equal a.Classifier.reps b.Classifier.reps
  && label_arrays_equal a.Classifier.labels b.Classifier.labels

let runs_equal a b =
  Config.equal a.Classifier.config b.Classifier.config
  && verdicts_equal a.Classifier.verdict b.Classifier.verdict
  && List.length a.Classifier.iterations = List.length b.Classifier.iterations
  && List.for_all2 iterations_equal a.Classifier.iterations
       b.Classifier.iterations

(* ------------------------------------------------------------------ *)
(* Differential oracle                                                 *)
(* ------------------------------------------------------------------ *)

module Oracle = struct
  (* The fault plans' seeded splitmix64: the oracle's streams are
     reproducible from the seed alone. *)
  module Prng = Radio_sim.Fault_plan.Prng

  type mismatch = { family : string; sequence : int; step : int; edit : edit }

  type report = {
    sequences : int;
    edits : int;
    mismatches : mismatch list;
    verdict_flips : int;
    flips_to_feasible : int;
    flips_to_infeasible : int;
    computed : int;
    reused : int;
    full_rebuilds : int;
  }

  let families = [| "path"; "cycle"; "clique"; "chorded" |]

  (* radiolint: allow partiality — loops and mem_edge add new in-range edges *)
  let base_graph family n rng =
    let b = G.Builder.create n in
    for i = 0 to n - 2 do
      G.Builder.add_edge b i (i + 1)
    done;
    (match family with
    | "cycle" -> if n >= 3 then G.Builder.add_edge b (n - 1) 0
    | "clique" ->
        for u = 0 to n - 1 do
          for v = u + 2 to n - 1 do
            G.Builder.add_edge b u v
          done
        done
    | "chorded" ->
        let chords = max 1 (n / 3) in
        for _ = 1 to chords do
          let u = Prng.int rng n and v = Prng.int rng n in
          if u <> v && not (G.Builder.mem_edge b u v) then
            G.Builder.add_edge b u v
        done
    | _ -> ());
    G.Builder.finish b

  let base_config ~family ~max_size rng =
    let hi = max 4 max_size in
    let n = 4 + Prng.int rng (hi - 3) in
    let g = base_graph family n rng in
    let tags =
      (* One sequence in four starts fully symmetric (uniform tags, the
         classic infeasible start); the rest start from random tags. *)
      if Prng.int rng 4 = 0 then Array.make n 0
      else Array.init n (fun _ -> Prng.int rng n)
    in
    Config.create g tags

  (* A valid random edit for the current state.  Absent nodes stay fair
     game for edge and tag edits — those exercise the "induced
     configuration untouched" path. *)
  let gen_edit rng st =
    let n = G.size st.universe in
    let random_absent () =
      let absent = ref [] in
      Array.iteri (fun v a -> if not a then absent := v :: !absent) st.alive;
      match !absent with
      | [] -> None
      | l -> Some (List.nth l (Prng.int rng (List.length l)))
    in
    let random_alive () =
      let alive = ref [] in
      Array.iteri (fun v a -> if a then alive := v :: !alive) st.alive;
      match !alive with
      | [] -> None
      | l -> Some (List.nth l (Prng.int rng (List.length l)))
    in
    let set_tag () = Set_tag (Prng.int rng n, Prng.int rng (n + 1)) in
    let add_edge () =
      let rec attempt k =
        if k = 0 then set_tag ()
        else begin
          let u = Prng.int rng n and v = Prng.int rng n in
          if u <> v && not (G.mem_edge st.universe u v) then Add_edge (u, v)
          else attempt (k - 1)
        end
      in
      attempt 10
    in
    let remove_edge () =
      match G.edges st.universe with
      | [] -> add_edge ()
      | es ->
          let u, v = List.nth es (Prng.int rng (List.length es)) in
          Remove_edge (u, v)
    in
    let k = Prng.int rng 100 in
    if k < 28 then add_edge ()
    else if k < 56 then remove_edge ()
    else if k < 80 then set_tag ()
    else if k < 90 then begin
      if st.nlive >= 2 then
        match random_alive () with Some v -> Leave v | None -> set_tag ()
      else set_tag ()
    end
    else begin
      match random_absent () with
      | Some v -> Join (v, Prng.int rng (n + 1))
      | None -> set_tag ()
    end

  type seq_result = {
    sr_edits : int;
    sr_mismatches : mismatch list;
    sr_flips_f : int;
    sr_flips_i : int;
    sr_computed : int;
    sr_reused : int;
    sr_rebuilds : int;
  }

  let run_sequence ~family ~sequence ~seed ~edits ~max_size =
    let rng = Prng.create seed in
    let cfg = base_config ~family ~max_size rng in
    let st = ref (init cfg) in
    let mismatches = ref [] in
    let flips_f = ref 0 in
    let flips_i = ref 0 in
    let was_feasible = ref (feasible !st) in
    for step = 1 to edits do
      let e = gen_edit rng !st in
      (* radiolint: allow partiality — gen_edit draws only valid edits *)
      st := apply !st e;
      let agreed =
        match (current !st, run !st) with
        | None, None -> true
        | Some c, Some r -> runs_equal r (Fast_classifier.classify c)
        | _ -> false
      in
      if not agreed then
        mismatches := { family; sequence; step; edit = e } :: !mismatches;
      let now = feasible !st in
      if now && not !was_feasible then incr flips_f;
      if (not now) && !was_feasible then incr flips_i;
      was_feasible := now
    done;
    let s = stats !st in
    {
      sr_edits = edits;
      sr_mismatches = List.rev !mismatches;
      sr_flips_f = !flips_f;
      sr_flips_i = !flips_i;
      sr_computed = s.computed;
      sr_reused = s.reused;
      sr_rebuilds = s.full_rebuilds;
    }

  let empty_report =
    {
      sequences = 0;
      edits = 0;
      mismatches = [];
      verdict_flips = 0;
      flips_to_feasible = 0;
      flips_to_infeasible = 0;
      computed = 0;
      reused = 0;
      full_rebuilds = 0;
    }

  let merge acc r =
    {
      sequences = acc.sequences + 1;
      edits = acc.edits + r.sr_edits;
      mismatches = acc.mismatches @ r.sr_mismatches;
      verdict_flips = acc.verdict_flips + r.sr_flips_f + r.sr_flips_i;
      flips_to_feasible = acc.flips_to_feasible + r.sr_flips_f;
      flips_to_infeasible = acc.flips_to_infeasible + r.sr_flips_i;
      computed = acc.computed + r.sr_computed;
      reused = acc.reused + r.sr_reused;
      full_rebuilds = acc.full_rebuilds + r.sr_rebuilds;
    }

  let run ?pool ?(sequences = 24) ?(edits_per_sequence = 60)
      ?(max_size = 16) ~seed () =
    (* radiolint: allow partiality — anorad churn refuses a negative --oracle *)
    if sequences < 0 then invalid_arg "Incremental.Oracle.run: sequences < 0";
    let examine i =
      run_sequence
        ~family:families.(i mod Array.length families)
        ~sequence:i
        ~seed:(seed + ((i + 1) * 0x9E3779B1))
        ~edits:edits_per_sequence ~max_size
    in
    let acc = ref empty_report in
    let commit _ r = acc := merge !acc r in
    let indices = Array.init sequences Fun.id in
    (match pool with
    | Some pool -> Pool.run_batch pool ~f:(fun _ i -> examine i) ~commit indices
    | None -> Array.iter (fun i -> commit i (examine i)) indices);
    !acc

  let ok r = r.mismatches = []

  let pp ppf r =
    Format.fprintf ppf
      "incremental oracle: %d sequences, %d edits, %d mismatches@," r.sequences
      r.edits
      (List.length r.mismatches);
    Format.fprintf ppf
      "  verdict flips: %d (%d to feasible, %d to infeasible)@,"
      r.verdict_flips r.flips_to_feasible r.flips_to_infeasible;
    let total = r.computed + r.reused in
    let pct =
      if total = 0 then 0.0
      else 100.0 *. float_of_int r.reused /. float_of_int total
    in
    Format.fprintf ppf
      "  labels: %d computed, %d reused (%.1f%% reused), %d full rebuilds"
      r.computed r.reused pct r.full_rebuilds;
    List.iter
      (fun m ->
        Format.fprintf ppf "@,  MISMATCH %s seq %d step %d: %a" m.family
          m.sequence m.step pp_edit m.edit)
      r.mismatches
end
