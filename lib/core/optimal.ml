module C = Radio_config.Config
module G = Radio_graph.Graph
module H = Radio_drip.History

type outcome =
  | Broken_at of int
  | Never
  | Not_within_horizon
  | Search_budget_exhausted

(* History keys are interned incrementally: key 0 is "asleep" (the shared
   empty history ⊥); every other key denotes (previous key, this round's
   event).  Events carry the sender's class for messages, so protocols can
   name their classes - the strongest thing an anonymous DRIP can say. *)
type event =
  | Ev_silence
  | Ev_msg of int
  | Ev_noise
  | Ev_wake_silent
  | Ev_wake_msg of int

(* Interning lives in Radio_exec.Intern: a global (parent, event) -> id
   table with first-seen dense ids starting at 1 (0 is reserved for ⊥),
   plus task-local views whose provisional ids are merged back — in
   submission order — at the parallel search's round barriers, keeping
   the ids bit-identical to a sequential left-to-right exploration. *)
module Intern = Radio_exec.Intern

(* The interner's keys are ints: the parent key fills the high bits, the
   event code the low 32 (silence 0, noise 1, spontaneous wake-up 2,
   message [c] at [2c + 3], forced wake-up by [c] at [2c + 4]).  The map
   is injective while ids stay below 2^31, far past any reachable
   history count. *)
let pack parent event =
  let code =
    match event with
    | Ev_silence -> 0
    | Ev_noise -> 1
    | Ev_wake_silent -> 2
    | Ev_msg c -> (2 * c) + 3
    | Ev_wake_msg c -> (2 * c) + 4
  in
  (parent lsl 32) lor code

let separated keys =
  let n = Array.length keys in
  let rec outer v =
    if v >= n then false
    else if keys.(v) <> 0
            &&
            let rec inner w =
              w >= n || ((w = v || keys.(w) <> keys.(v)) && inner (w + 1))
            in
            inner 0
    then true
    else outer (v + 1)
  in
  outer 0

let distinct_awake_keys keys =
  List.sort_uniq Int.compare
    (List.filter (fun k -> k <> 0) (Array.to_list keys))

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun t -> x :: t) s

(* [get parent event] interns one history extension; the search threads
   either the global table's [get] (sequential) or a task-local view's
   (parallel) through here. *)
let step config ~get keys ~round ~transmitting =
  let g = C.graph config in
  let n = C.size config in
  let is_tx v = keys.(v) <> 0 && List.mem keys.(v) transmitting in
  Array.init n (fun v ->
      if keys.(v) <> 0 then begin
        (* awake: compute this round's history entry *)
        let event =
          if is_tx v then Ev_silence
          else begin
            let senders =
              G.fold_neighbours g v ~init:[] ~f:(fun acc w ->
                  if is_tx w then keys.(w) :: acc else acc)
            in
            match senders with
            | [] -> Ev_silence
            | [ c ] -> Ev_msg c
            | _ -> Ev_noise
          end
        in
        get keys.(v) event
      end
      else begin
        (* asleep: forced wake by a lone transmitting neighbour, else
           spontaneous at the tag round *)
        let senders =
          G.fold_neighbours g v ~init:[] ~f:(fun acc w ->
              if is_tx w then keys.(w) :: acc else acc)
        in
        match senders with
        | [ c ] -> get 0 (Ev_wake_msg c)
        | _ -> if C.tag config v = round then get 0 Ev_wake_silent else 0
      end)

module StateSet = Set.Make (struct
  type t = int array

  (* All states in one search share a length, but stay total regardless. *)
  let compare (a : int array) (b : int array) =
    match Int.compare (Array.length a) (Array.length b) with
    | 0 ->
        let rec go i =
          if i = Array.length a then 0
          else
            match Int.compare a.(i) b.(i) with
            | 0 -> go (i + 1)
            | c -> c
        in
        go 0
    | c -> c
end)

let breaking_time ?pool ?(horizon = 24) ?(max_states = 200_000) config =
  let config =
    if C.is_normalized config then config
    else C.create (C.graph config) (C.tags config)
  in
  let n = C.size config in
  if n = 0 then invalid_arg "Optimal.breaking_time: empty configuration";
  (* Infeasible configurations never separate (Lemma 3.16): skip the
     search, which would otherwise chase growing histories forever. *)
  if not (Classifier.is_feasible (Fast_classifier.classify config)) then Never
  else begin
  let intern = Intern.create ~first:1 () in
  let explored = ref 0 in
  (* Fold one expanded successor into the round's accumulator, exactly as
     the historical sequential loop did: separated states break, the rest
     dedup into the next frontier. *)
  let absorb next broken keys' =
    if separated keys' then broken := true
    else if not (StateSet.mem keys' !next) then begin
      next := StateSet.add keys' !next;
      incr explored
    end
  in
  let expand_seq ~round frontier next broken =
    StateSet.iter
      (fun keys ->
        let get parent event = Intern.get intern (pack parent event) in
        List.iter
          (fun transmitting ->
            absorb next broken (step config ~get keys ~round ~transmitting))
          (subsets (distinct_awake_keys keys)))
      frontier
  in
  (* Parallel rounds: each task expands one contiguous chunk of the
     frontier against a task-local interner view (the global table is
     frozen while the batch is in flight), then — after the batch
     barrier — each chunk's fresh keys are committed in submission order.
     A key's id is fixed by its first encounter in frontier order whether
     that happens inside a chunk, at an earlier chunk's commit, or in the
     sequential loop, so the id assignment is bit-identical to
     [expand_seq] (see Radio_exec.Intern).  Chunk-level (not per-state)
     views matter: a state expands in ~µs, so a hash table and a commit
     per state used to cost several times the work being parallelised. *)
  let expand_par pool ~round frontier next broken =
    let states = Array.of_list (StateSet.elements frontier) in
    let n = Array.length states in
    (* One chunk per worker, not the pool's usual 4×: the frozen global
       table means every chunk re-interns the fresh keys it shares with
       its neighbours (adjacent states produce heavily overlapping
       successors), so duplicated dedup work scales with the chunk count
       and quickly eats the parallel gain. *)
    let jobs = Radio_exec.Pool.jobs pool in
    let chunk = (n + jobs - 1) / jobs in
    let nchunks = (n + chunk - 1) / chunk in
    let chunks =
      Array.init nchunks (fun c ->
          Array.sub states (c * chunk) (Int.min chunk (n - (c * chunk))))
    in
    let results =
      Radio_exec.Pool.map_array pool ~chunk:1
        ~f:(fun states ->
          let local = Intern.local intern in
          let get parent event = Intern.get_local local (pack parent event) in
          let nexts =
            Array.map
              (fun keys ->
                List.map
                  (fun transmitting ->
                    step config ~get keys ~round ~transmitting)
                  (subsets (distinct_awake_keys keys)))
              states
          in
          (local, nexts))
        chunks
    in
    Array.iter
      (fun (local, nexts) ->
        (* Provisional ids only ever appear as whole key entries: parents
           and message classes are drawn from the current (already
           global) state, so no packed key embeds one and the replay
           needs no remap. *)
        let resolve = Intern.commit intern ~remap:(fun _ k -> k) local in
        Array.iter
          (fun per_state ->
            List.iter
              (fun keys' -> absorb next broken (Array.map resolve keys'))
              per_state)
          nexts)
      results
  in
  (* The local-view/commit machinery of [expand_par] has a per-batch cost
     of its own, so frontiers the pool would serialise anyway (below
     [min_parallel_batch]) go straight through the sequential expander —
     both produce bit-identical frontiers, so mixing them per round is
     invisible.  [fsize] is the frontier's cardinality, threaded through
     [bfs] (each round knows how many states it added) so the choice
     costs an integer compare, not a set traversal. *)
  let expand =
    match pool with
    | Some pool when Radio_exec.Pool.jobs pool > 1 ->
        fun ~fsize ~round frontier next broken ->
          if fsize < Radio_exec.Pool.min_parallel_batch then
            expand_seq ~round frontier next broken
          else expand_par pool ~round frontier next broken
    | _ -> fun ~fsize:_ ~round frontier next broken ->
        expand_seq ~round frontier next broken
  in
  let rec bfs round frontier fsize =
    if StateSet.is_empty frontier then Not_within_horizon
    else if round > horizon then Not_within_horizon
    else if !explored > max_states then Search_budget_exhausted
    else begin
      (* Expand every state by every choice of transmitting classes. *)
      let next = ref StateSet.empty in
      let broken = ref false in
      let before = !explored in
      expand ~fsize ~round frontier next broken;
      if !broken then Broken_at round
      else bfs (round + 1) !next (!explored - before)
    end
  in
  let initial = StateSet.singleton (Array.make n 0) in
  (* Round 0 may already separate (a lone tag-0 node among sleepers). *)
  bfs 0 initial 1
  end

let canonical_breaking_time ?(max_rounds = 1_000_000) config =
  let run = Classifier.classify config in
  let plan = Canonical.plan_of_run run in
  let o =
    Radio_sim.Engine.run ~max_rounds (Canonical.protocol plan) config
  in
  if not o.Radio_sim.Engine.all_terminated then None
  else begin
    let n = C.size config in
    let prefix v r =
      (* node v's history prefix at the end of global round r; None = ⊥ *)
      let wake = o.Radio_sim.Engine.wake_round.(v) in
      if wake < 0 || r < wake then None
      else
        let len =
          min (r - wake + 1) (Array.length o.Radio_sim.Engine.histories.(v))
        in
        Some (Array.sub o.Radio_sim.Engine.histories.(v) 0 len)
    in
    let sep_at r =
      let keys = Array.init n (fun v -> prefix v r) in
      let unique v =
        match keys.(v) with
        | None -> false
        | Some h ->
            let rec check w =
              w >= n
              || ((w = v
                  ||
                  match keys.(w) with
                  | None -> true
                  | Some h' -> not (H.equal h h'))
                 && check (w + 1))
            in
            check 0
      in
      let rec any v = v < n && (unique v || any (v + 1)) in
      any 0
    in
    let limit = Radio_sim.Engine.completion_round o in
    let rec find r = if r > limit then None else if sep_at r then Some r else find (r + 1) in
    find 0
  end
