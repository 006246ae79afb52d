module History = Radio_drip.History
module Protocol = Radio_drip.Protocol

type entry = {
  prev_class : int;
  label : Label.t;
}

type plan = {
  sigma : int;
  tables : entry array array;
  final_table : entry array;
  singleton_class : int option;
}

let table_of_pairs pairs =
  Array.map (fun (prev_class, label) -> { prev_class; label }) pairs

let plan_of_run (run : Classifier.run) =
  let sigma = Radio_config.Config.span run.Classifier.config in
  (* L_1 is the fixed one-entry list (1, null); L_j for j >= 2 is the class
     table produced by iteration j - 1; the table of the *last* iteration is
     not a phase table (its phase is replaced by termination) but serves as
     the decision function's final class table. *)
  let iteration_tables =
    List.map
      (fun it -> table_of_pairs (Classifier.table_of_iteration it))
      run.Classifier.iterations
  in
  let rec split_last = function
    (* radiolint: allow partiality — classifier runs hold an iteration *)
    | [] -> invalid_arg "Canonical.plan_of_run: run with no iterations"
    | [ last ] -> ([], last)
    | x :: rest ->
        let init, last = split_last rest in
        (x :: init, last)
  in
  let phase_tables, final_table = split_last iteration_tables in
  let l1 = [| { prev_class = 1; label = [] } |] in
  let singleton_class =
    match run.Classifier.verdict with
    | Classifier.Feasible { singleton_class } -> Some singleton_class
    | Classifier.Infeasible -> None
  in
  {
    sigma;
    tables = Array.of_list (l1 :: phase_tables);
    final_table;
    singleton_class;
  }

let num_phases plan = Array.length plan.tables

let phase_bounds plan =
  let t = num_phases plan in
  let bounds = Array.make (t + 1) 0 in
  for j = 1 to t do
    let blocks = Array.length plan.tables.(j - 1) in
    bounds.(j) <- bounds.(j - 1) + (blocks * ((2 * plan.sigma) + 1)) + plan.sigma
  done;
  bounds

let local_termination_round plan =
  let bounds = phase_bounds plan in
  bounds.(num_phases plan) + 1

(* First entry (1-based index) of [entries] matching the node's previous
   transmission block and its observed label; [None] when lost. *)
let match_entry entries ~prev_block ~obs_label =
  match prev_block with
  | None -> None
  | Some pb ->
      let rec scan k =
        if k > Array.length entries then None
        else
          let e = entries.(k - 1) in
          if e.prev_class = pb && Label.equal e.label obs_label then Some k
          else scan (k + 1)
      in
      scan 1

(* A class table indexed by key: open addressing over the
   (prev_class, label) hash, [slots.(s)] an entry index (1-based) or 0
   for an empty slot.  A key listed twice keeps its first entry, as
   [match_entry]'s scan finds it. *)
type index = {
  entries : entry array;
  slots : int array;
  mask : int;
}

(* The slot holding [(pb, label)]'s entry, or the empty slot where it
   goes. *)
let rec probe idx pb label s =
  let k = idx.slots.(s) in
  if k = 0 then s
  else
    let e = idx.entries.(k - 1) in
    if e.prev_class = pb && Label.equal e.label label then s
    else probe idx pb label ((s + 1) land idx.mask)

let slot_of_key idx pb label =
  probe idx pb label (Label.hash_key pb label land idx.mask)

let index entries =
  let rec size s = if s >= 2 * Array.length entries then s else size (2 * s) in
  let size = size 4 in
  let idx = { entries; slots = Array.make size 0; mask = size - 1 } in
  Array.iteri
    (fun i e ->
      let s = slot_of_key idx e.prev_class e.label in
      if idx.slots.(s) = 0 then idx.slots.(s) <- i + 1)
    entries;
  idx

(* [match_entry] by key. *)
let lookup idx ~prev_block ~obs_label =
  match prev_block with
  | None -> None
  | Some pb -> (
      match idx.slots.(slot_of_key idx pb obs_label) with
      | 0 -> None
      | k -> Some k)

let entry_lookup entries = lookup (index entries)

(* A plan's tables, indexed once: every phase table and the final one. *)
type compiled = {
  plan : plan;
  phase_index : index array;
  final_index : index;
}

let compile plan =
  {
    plan;
    phase_index = Array.map index plan.tables;
    final_index = index plan.final_table;
  }

(* The offset of a round within a phase ([1 .. B(2σ+1) + σ]) is slot
   [slot_of] of block [block_of] when [in_blocks], else one of the σ
   trailing listen rounds. *)
let in_blocks ~sigma ~blocks offset = offset <= blocks * ((2 * sigma) + 1)
let block_of ~sigma offset = ((offset - 1) / ((2 * sigma) + 1)) + 1
let slot_of ~sigma offset = ((offset - 1) mod ((2 * sigma) + 1)) + 1

(* DRIP's one transmission rule: the middle slot of the node's block. *)
let transmits ~sigma ~blocks ~offset tblock =
  in_blocks ~sigma ~blocks offset
  && slot_of ~sigma offset = sigma + 1
  && match tblock with Some a -> a = block_of ~sigma offset | None -> false

(* The offset of that middle slot in block [a]. *)
let transmit_offset ~sigma a = ((a - 1) * ((2 * sigma) + 1)) + sigma + 1

let mark_of_entry = function
  | History.Message _ -> Some Label.One
  | History.Collision -> Some Label.Many
  | History.Silence -> None

(* [obs] with what a node records at [offset] into phase [j] (1-based) on
   perceiving [e] added: an audible entry inside the phase's blocks. *)
let observe_into plan ~j ~offset e obs =
  let sigma = plan.sigma in
  match mark_of_entry e with
  | Some mark
    when in_blocks ~sigma ~blocks:(Array.length plan.tables.(j - 1)) offset ->
      (block_of ~sigma offset, slot_of ~sigma offset, mark) :: obs
  | Some _ | None -> obs

(* One node's place in the schedule: a pure function of its local history
   (the tests check this against the replay in [block_trace]). *)
type node = {
  mutable rounds_done : int;
  mutable phase : int;
  mutable tblock : int option;
  mutable obs : (int * int * Label.mark) list;  (* this phase's, reversed *)
  mutable tx_round : int;  (* this phase's transmission; 0 when lost *)
}

let protocol_of { plan; phase_index; _ } =
  let bounds = phase_bounds plan in
  let t = num_phases plan in
  let sigma = plan.sigma in
  (* The phase's one transmission round is fixed when the phase opens, so
     a round costs no division: [decide] answers with a quiet horizon up to
     that round, or up to the phase's end (the schedule's end once the node
     is lost), and [skip] jumps over it. *)
  let open_phase s =
    s.tx_round <-
      (match s.tblock with
      | Some a -> bounds.(s.phase - 1) + transmit_offset ~sigma a
      | None -> 0)
  in
  let close_phase s =
    let j = s.phase in
    (if Option.is_some s.tblock then
       let obs_label = Label.of_observations s.obs in
       s.tblock <- lookup phase_index.(j) ~prev_block:s.tblock ~obs_label);
    s.obs <- [];
    s.phase <- j + 1;
    open_phase s
  in
  let decide s =
    let i = s.rounds_done + 1 in
    if i > bounds.(t) then Protocol.Terminate
    else if i = s.tx_round then Protocol.Transmit "1"
    else
      (* A lost node stays lost: it only listens until the schedule ends. *)
      let last =
        if s.tx_round = 0 then bounds.(t)
        else if i < s.tx_round then s.tx_round - 1
        else bounds.(s.phase)
      in
      Protocol.Quiet (last - i + 1)
  in
  let observe s e =
    let i = s.rounds_done + 1 in
    s.rounds_done <- i;
    if i <= bounds.(t) then begin
      let j = s.phase in
      s.obs <- observe_into plan ~j ~offset:(i - bounds.(j - 1)) e s.obs;
      if i = bounds.(j) && j < t then close_phase s
    end
  in
  (* [k] silent rounds: no observation, at most one phase end per step. *)
  let rec skip s k =
    if k > 0 then begin
      let left = bounds.(s.phase) - s.rounds_done in
      if s.phase < t && k >= left then begin
        s.rounds_done <- bounds.(s.phase);
        close_phase s;
        skip s (k - left)
      end
      else s.rounds_done <- s.rounds_done + k
    end
  in
  let first_block = lookup phase_index.(0) ~prev_block:(Some 1) ~obs_label:[] in
  let spawn () =
    let s =
      {
        rounds_done = 0;
        phase = 1;
        tblock = first_block;
        obs = [];
        tx_round = 0;
      }
    in
    open_phase s;
    {
      Protocol.on_wakeup = ignore;
      decide = (fun () -> decide s);
      observe = observe s;
      skip = skip s;
    }
  in
  { Protocol.name = "canonical"; spawn }

let protocol plan = protocol_of (compile plan)

(* The label a node perceives in phase [j], read round by round (the
   literal reading [pure_drip] keeps). *)
let observations_of_phase plan bounds h ~j =
  let obs = ref [] in
  for offset = 1 to bounds.(j) - bounds.(j - 1) do
    let e = History.get h (bounds.(j - 1) + offset) in
    obs := observe_into plan ~j ~offset e !obs
  done;
  Label.of_observations !obs

(* One replay of [h] through the plan, event by event: the block used in
   each phase, and the label observed in the final phase, which only
   [final_class] needs.  [O(events + phases)]. *)
let replay_blocks ~caller { plan; phase_index; _ } h =
  let bounds = phase_bounds plan in
  let t = num_phases plan in
  if History.length h < bounds.(t) + 1 then
    (* radiolint: allow partiality — callers decide on terminated nodes only *)
    invalid_arg (caller ^ ": history shorter than the schedule");
  (* [obs.(j)]: phase [j]'s observations, latest first; phase 0 has none. *)
  let obs = Array.make (t + 1) [] in
  let j = ref 1 in
  History.fold
    (fun () i e ->
      if i >= 1 && i <= bounds.(t) then begin
        while i > bounds.(!j) do
          incr j
        done;
        obs.(!j) <-
          observe_into plan ~j:!j ~offset:(i - bounds.(!j - 1)) e obs.(!j)
      end)
    () h;
  let blocks_used = Array.make t None in
  let prev_block = ref (Some 1) in
  for j = 1 to t do
    let tb =
      lookup phase_index.(j - 1) ~prev_block:!prev_block
        ~obs_label:(Label.of_observations obs.(j - 1))
    in
    blocks_used.(j - 1) <- tb;
    prev_block := tb
  done;
  (blocks_used, Label.of_observations obs.(t))

let block_trace plan =
  let c = compile plan in
  fun h -> fst (replay_blocks ~caller:"Canonical.block_trace" c h)

let final_class_of c h =
  let trace, last_obs = replay_blocks ~caller:"Canonical.final_class" c h in
  let t = num_phases c.plan in
  lookup c.final_index ~prev_block:trace.(t - 1) ~obs_label:last_obs

let final_class plan = final_class_of (compile plan)

let pure_drip plan h =
  let bounds = phase_bounds plan in
  let t = num_phases plan in
  (* [h] is the prefix H[0 .. i-1]; we output the action of local round i. *)
  let i = History.length h in
  (* radiolint: allow partiality — the engine asks after the wake-up entry *)
  if i = 0 then invalid_arg "Canonical.pure_drip: empty history prefix"
  else if i > bounds.(t) then Protocol.Terminate
  else begin
    let rec find j = if i <= bounds.(j) then j else find (j + 1) in
    let j = find 1 in
    (* Recompute tBlock of phase j by replaying phases 1 .. j-1, all of
       which the prefix fully covers. *)
    let tb = ref (match_entry plan.tables.(0) ~prev_block:(Some 1) ~obs_label:[]) in
    for jj = 2 to j do
      let obs = observations_of_phase plan bounds h ~j:(jj - 1) in
      tb := match_entry plan.tables.(jj - 1) ~prev_block:!tb ~obs_label:obs
    done;
    let offset = i - bounds.(j - 1) in
    let blocks = Array.length plan.tables.(j - 1) in
    if transmits ~sigma:plan.sigma ~blocks ~offset !tb then
      Protocol.Transmit "1"
    else Protocol.Listen
  end

let pure_protocol plan =
  Protocol.of_pure ~name:"canonical-pure" (pure_drip plan)

let decision_of c h =
  match c.plan.singleton_class with
  | None -> false
  | Some m -> Option.equal Int.equal (final_class_of c h) (Some m)

let decision plan = decision_of (compile plan)

let election plan =
  let c = compile plan in
  { Radio_sim.Runner.protocol = protocol_of c; decision = decision_of c }

type outcome = {
  metrics : Radio_sim.Metrics.t;
  completion_round : int;
  final_class : int array;
}

(* Lemma 3.9: a phase's receptions are the iteration's labels, one
   triple per non-silent round, so a [One] is a delivery and a [Many] a
   collision heard. *)
let outcome (run : Classifier.run) plan ~hi =
  let n = Radio_config.Config.size run.Classifier.config in
  let ones = ref 0 and manys = ref 0 in
  let rec count = function
    | [] -> ()
    | { Label.mark = Label.One; _ } :: rest ->
        incr ones;
        count rest
    | { Label.mark = Label.Many; _ } :: rest ->
        incr manys;
        count rest
  in
  List.iter
    (fun (it : Classifier.iteration) -> Array.iter count it.labels)
    run.Classifier.iterations;
  let completion_round = hi + local_termination_round plan in
  {
    metrics =
      {
        Radio_sim.Metrics.transmissions = n * num_phases plan;
        deliveries = !ones;
        collisions_heard = !manys;
        forced_wakeups = 0;
        spontaneous_wakeups = n;
        rounds = completion_round + 1;
      };
    completion_round;
    final_class = (Classifier.last_iteration run).new_class;
  }

let upper_bound_rounds ~n ~sigma =
  let phases = (n + 1) / 2 in
  (phases * ((n * ((2 * sigma) + 1)) + sigma)) + 1

(* ------------------------------------------------------------------ *)
(* Configuration cache keys                                            *)
(* ------------------------------------------------------------------ *)

let iso_cache_bound = 8

(* Decimal digits of [x >= 0]. *)
let digits x =
  let rec go x k = if x < 10 then k else go (x / 10) (k + 1) in
  go x 1

(* Writes [x >= 0] into [b], its last digit at [i]. *)
let rec put_int b i x =
  Bytes.set b i "0123456789".[x mod 10];
  if x >= 10 then put_int b (i - 1) (x / 10)

(* Straight from the tag and adjacency arrays into a buffer of the
   exact size, counted first: [n], two bars, the tags and the spaces
   between them, and per edge its endpoints, a dash and a separator
   (one fewer separator than edges). *)
let raw_key c =
  let module C = Radio_config.Config in
  let module G = Radio_graph.Graph in
  let g = C.graph c in
  let n = C.size c in
  let tags = C.tags c in
  let len = ref (digits n + 2 + max 0 (n - 1)) in
  Array.iter (fun t -> len := !len + digits t) tags;
  G.iter_edges g ~f:(fun u w -> len := !len + digits u + digits w + 2);
  if G.num_edges g > 0 then decr len;
  let b = Bytes.create !len in
  let pos = ref 0 in
  let add_int x =
    pos := !pos + digits x;
    put_int b (!pos - 1) x
  in
  let add_char ch =
    Bytes.set b !pos ch;
    incr pos
  in
  add_int n;
  add_char '|';
  Array.iteri
    (fun v t ->
      if v > 0 then add_char ' ';
      add_int t)
    tags;
  add_char '|';
  let edges_from = !pos in
  G.iter_edges g ~f:(fun u w ->
      if !pos > edges_from then add_char ' ';
      add_int u;
      add_char '-';
      add_int w);
  Bytes.unsafe_to_string b

let canonical_form c =
  let module C = Radio_config.Config in
  let n = C.size c in
  if n = 0 || n > iso_cache_bound then (c, Array.init n Fun.id)
  else
    let perm =
      Radio_graph.Props.canonical_labelling ~colours:(C.tags c) (C.graph c)
    in
    (C.relabel c perm, perm)

let cache_key c = raw_key (fst (canonical_form c))
