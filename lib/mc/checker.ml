module C = Radio_config.Config
module G = Radio_graph.Graph
module History = Radio_drip.History
module Protocol = Radio_drip.Protocol
module Engine = Radio_sim.Engine
module Trace = Radio_sim.Trace
module Classifier = Election.Classifier
module Canonical = Election.Canonical
module Symmetry = Election.Symmetry
module Pool = Radio_exec.Pool
module Interner = Radio_exec.Intern

type budget =
  [ `Depth
  | `States
  ]

type stats = {
  states_explored : int;
  states_raw : int;
  peak_frontier : int;
  depth_reached : int;
  distinct_keys : int;
  automorphisms : int;
  canonicalizations : int;
  visited_bytes : int;
}

type violation =
  | Two_leaders of int list
  | No_leader_on_feasible
  | Leader_on_infeasible of { leader : int }
  | Wrong_leader of { elected : int; canonical : int }
  | Liveness_bound_exceeded of { bound : int; completed : int }

type verdict =
  | Elected of { leader : int; round : int }
  | Non_election of { classes : int list list }
  | Violated of violation
  | Exhausted of budget

type result = {
  config : C.t;
  machine_name : string;
  verdict : verdict;
  trace : Trace.t;
  rounds : int;
  stats : stats;
}

let normalize config =
  if C.is_normalized config then config
  else C.create (C.graph config) (C.tags config)

let global_bound ~n ~sigma = sigma + Canonical.upper_bound_rounds ~n ~sigma

let default_depth config =
  global_bound ~n:(C.size config) ~sigma:(C.span config) + 1

(* Interner keys: a history key [(parent, event)] packed into one int,
   the parent in the high bits and the receive-event code in the low 32 —
   silence 0, noise 1, a message at its index plus 2.  Universal-mode
   messages are the sender's class key; protocol mode numbers each run's
   message strings in a table of its own.  The codes are a bijection onto
   the history entries, and both modes intern these ints in one
   {!Radio_exec.Intern}, which numbers first-seen keys from 1. *)
let ev_silence = 0
let ev_noise = 1

(* radiolint: allow range-overflow -- parents are interner ids, kept
   below 2^30 in both modes (max_ids), so the shift fits *)
let pack parent code = (parent lsl 32) lor code

(* The id bound that keeps [pack] lossless: parents in 30 bits, message
   codes in 32. *)
let max_ids = 1 lsl 30

(* Neighbour lists as one offset array over one target array: the
   neighbours of [v] are [adj.(i)] for [adj_start.(v) <= i <
   adj_start.(v + 1)].  Both modes count senders over it. *)
let adjacency g =
  let n = G.size g in
  let adj_start = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    adj_start.(v + 1) <- adj_start.(v) + G.degree g v
  done;
  let adj = Array.make adj_start.(n) 0 in
  for v = 0 to n - 1 do
    ignore
      (G.fold_neighbours g v ~init:adj_start.(v) ~f:(fun i w ->
           adj.(i) <- w;
           i + 1)
        : int)
  done;
  (adj_start, adj)

(* Protocol mode: the machine is deterministic, so the transition system is
   a single chain of interned state vectors; walking it is still a static
   exploration (per-key memoized [decide], no Protocol instances live
   across rounds), and the visited chain doubles as the concrete trace. *)
let check ?depth ?(states = 200_000) ~machine config =
  let config = normalize config in
  let n = C.size config in
  (* radiolint: allow partiality — n > 0: anorad and serve refuse it at load *)
  if n = 0 then invalid_arg "Checker.check: empty configuration";
  let depth =
    match depth with Some d -> d | None -> default_depth config
  in
  (* A round interns at most one key per node, so this cap keeps every
     id below [max_ids]. *)
  let states = Int.min states (max_ids - n - 2) in
  let adj_start, adj = adjacency (C.graph config) in
  let intern = Interner.create () in
  (* The run's message table: each distinct message string gets the next
     index, in first-transmitted order. *)
  let index : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let messages = ref (Array.make 16 "") in
  let code_of m =
    match Hashtbl.find_opt index m with
    | Some i -> i + 2
    | None ->
        let i = Hashtbl.length index in
        Hashtbl.replace index m i;
        if i = Array.length !messages then
          messages := Array.append !messages (Array.make i "");
        !messages.(i) <- m;
        i + 2
  in
  let event code =
    if code = ev_silence then History.Silence
    else if code = ev_noise then History.Collision
    else History.Message !messages.(code - 2)
  in
  (* The history key [k] denotes.  The chain from [k] up to the root runs
     from the last entry to the first: entries are added on the way back
     down, in index order. *)
  let history k =
    let b = History.Builder.create () in
    let rec add k =
      if k = 0 then 0
      else begin
        let key = Interner.key intern k in
        let i = add (key lsr 32) in
        History.Builder.add b i (event (key land 0xffff_ffff));
        i + 1
      end
    in
    History.Builder.build b ~length:(add k)
  in
  let decide_cache : (int, Protocol.action) Hashtbl.t = Hashtbl.create 256 in
  let decide k =
    match Hashtbl.find_opt decide_cache k with
    | Some a -> a
    | None ->
        let a = machine.Machine.decide (history k) in
        Hashtbl.replace decide_cache k a;
        a
  in
  let decision k = machine.Machine.decision (history k) in
  (* per node: the code of the message it transmits this round, else 0 *)
  let tx = Array.make n 0 in
  (* What [v] hears: silence, the lone transmitting neighbour's message,
     or noise. *)
  let heard v =
    let code = ref ev_silence in
    let i = ref adj_start.(v) in
    let stop = adj_start.(v + 1) in
    while !i < stop do
      let c = tx.(adj.(!i)) in
      if c <> 0 then
        if !code = ev_silence then code := c
        else begin
          code := ev_noise;
          i := stop
        end;
      incr i
    done;
    !code
  in
  let state = ref (State.initial n) in
  let leaders = ref [] in
  let rev_trace = ref [] in
  let last_term_round = ref 0 in
  let rounds = ref 0 in
  let verdict = ref None in
  let r = ref 0 in
  while Option.is_none !verdict do
    if State.all_terminated !state then
      verdict :=
        Some
          (match !leaders with
          | [ l ] -> Elected { leader = l; round = !last_term_round }
          | [] -> Non_election { classes = State.classes !state }
          | ls -> Violated (Two_leaders (List.sort Int.compare ls)))
    else if !r >= depth then verdict := Some (Exhausted `Depth)
    else if Interner.size intern > states then
      verdict := Some (Exhausted `States)
    else begin
      let cur = !state in
      let next = Array.copy cur in
      Array.fill tx 0 n 0;
      let transmitters = ref [] in
      let terminated = ref [] in
      let woken = ref [] in
      (* Phase A: decisions of running nodes (all woke before round r:
         Phase C below wakes into [next], never into [cur]). *)
      for v = n - 1 downto 0 do
        if cur.(v) > 0 then
          match decide cur.(v) with
          | Protocol.Terminate ->
              next.(v) <- -cur.(v);
              terminated := v :: !terminated;
              if decision cur.(v) then leaders := v :: !leaders
          | Protocol.Transmit m ->
              tx.(v) <- code_of m;
              transmitters := (v, m) :: !transmitters
          | Protocol.Listen | Protocol.Quiet _ -> ()
      done;
      (* Phase B: receptions at nodes still running after Phase A;
         transmitters hear nothing. *)
      for v = 0 to n - 1 do
        if cur.(v) > 0 && next.(v) > 0 then
          let code = if tx.(v) <> 0 then ev_silence else heard v in
          next.(v) <- Interner.get intern (pack cur.(v) code)
      done;
      (* Phase C: wake-ups of sleeping nodes. *)
      for v = n - 1 downto 0 do
        if cur.(v) = 0 then begin
          let code = heard v in
          if code > ev_noise then begin
            next.(v) <- Interner.get intern (pack 0 code);
            woken := (v, Trace.Forced !messages.(code - 2)) :: !woken
          end
          else if C.tag config v = !r then begin
            next.(v) <- Interner.get intern (pack 0 ev_silence);
            woken := (v, Trace.Spontaneous) :: !woken
          end
        end
      done;
      (match !terminated with [] -> () | _ -> last_term_round := !r);
      (match (!transmitters, !woken, !terminated) with
      | [], [], [] -> () (* quiet round: omitted, as in Trace.Acc *)
      | _ ->
          rev_trace :=
            {
              Trace.round = !r;
              transmitters = !transmitters;
              woken = !woken;
              terminated = !terminated;
            }
            :: !rev_trace);
      (match !leaders with
      | _ :: _ :: _ ->
          verdict :=
            Some (Violated (Two_leaders (List.sort Int.compare !leaders)))
      | _ -> ());
      state := next;
      incr r;
      rounds := !r
    end
  done;
  let verdict =
    (* radiolint: allow assert-false — the loop only exits once the
       verdict reference is filled. *)
    match !verdict with Some v -> v | None -> assert false
  in
  {
    config;
    machine_name = machine.Machine.name;
    verdict;
    trace = List.rev !rev_trace;
    rounds = !rounds;
    stats =
      {
        states_explored = !rounds + 1;
        states_raw = !rounds + 1;
        peak_frontier = 1;
        depth_reached = !rounds;
        distinct_keys = Interner.size intern;
        automorphisms = 1;
        canonicalizations = 0;
        visited_bytes = 0;
      };
  }

let drip_family name =
  String.equal name "drip" || String.equal name "pure-drip"

let verify ?depth ?states ?machine (a : Election.Feasibility.analysis) =
  let config = a.run.Classifier.config in
  let machine =
    match machine with Some m -> m | None -> Machine.drip a.plan
  in
  let res = check ?depth ?states ~machine config in
  let n = C.size config in
  let sigma = C.span config in
  let bound = global_bound ~n ~sigma in
  let verdict =
    match res.verdict with
    | Elected { leader; round } -> (
        match a.leader with
        | None -> Violated (Leader_on_infeasible { leader })
        | Some canonical
          when drip_family res.machine_name && canonical <> leader ->
            Violated (Wrong_leader { elected = leader; canonical })
        | Some _ when round > bound ->
            Violated (Liveness_bound_exceeded { bound; completed = round })
        | Some _ -> res.verdict)
    | Non_election _ ->
        if a.feasible then Violated No_leader_on_feasible
        else res.verdict
    | Violated _ | Exhausted _ -> res.verdict
  in
  { res with verdict }

type replay = {
  outcome : Engine.outcome;
  trace_matches : bool;
  report : Radio_lint.Report.t;
}

let equal_wake_kind k1 k2 =
  match (k1, k2) with
  | Trace.Spontaneous, Trace.Spontaneous -> true
  | Trace.Forced m1, Trace.Forced m2 -> String.equal m1 m2
  | Trace.Spontaneous, _ | Trace.Forced _, _ -> false

let equal_round_events (e1 : Trace.round_events) (e2 : Trace.round_events) =
  e1.Trace.round = e2.Trace.round
  && List.equal
       (fun (v1, m1) (v2, m2) -> v1 = v2 && String.equal m1 m2)
       e1.Trace.transmitters e2.Trace.transmitters
  && List.equal
       (fun (v1, k1) (v2, k2) -> v1 = v2 && equal_wake_kind k1 k2)
       e1.Trace.woken e2.Trace.woken
  && List.equal Int.equal e1.Trace.terminated e2.Trace.terminated

let trace_equal t1 t2 = List.equal equal_round_events t1 t2

let replay ?max_rounds ~machine res =
  let max_rounds =
    match max_rounds with
    | Some m -> m
    | None -> (match res.rounds with 0 -> 1 | r -> r)
  in
  let outcome =
    Engine.run ~max_rounds ~record_trace:true machine.Machine.protocol
      res.config
  in
  {
    outcome;
    trace_matches = trace_equal res.trace outcome.Engine.trace;
    report =
      Radio_lint.Invariants.validate ~protocol:machine.Machine.protocol
        outcome;
  }

(* Universal mode: explore every deterministic protocol at once, branching
   over the subsets of awake history classes that transmit; messages
   carry the sender's class key, the strongest content an anonymous DRIP
   can convey.  There is no termination action here — the
   mode answers reachability questions (when can some node's history
   separate?) and carries the symmetry-reduction machinery. *)
type exploration = {
  config : C.t;
  separated_at : int option;
  exhausted : budget option;
  stats : stats;
}

let separated (s : State.t) =
  let n = Array.length s in
  let unique v =
    s.(v) > 0
    &&
    let rec inner w =
      w >= n || ((w = v || abs s.(w) <> s.(v)) && inner (w + 1))
    in
    inner 0
  in
  let rec outer v = v < n && (unique v || outer (v + 1)) in
  outer 0

(* Frontier waves: each BFS level is expanded in slices of this many
   entries — expand and stage the whole slice (in parallel when a pool is
   given), then insert it in submission order.  The size is a constant, never
   derived from the worker count, so wave boundaries — and with them
   interning order, cap trips and every stat — are identical at every
   [--jobs] level: a cap that trips mid-wave still sees the whole wave's
   keys interned, so the constant is part of the output contract.  It
   also sizes the chunk buffers, which hold one wave's successors (about
   a hundred KiB on the E19 rows), and sets the granularity of
   [progress]. *)
let wave_entries = 2_048

(* Inserts warm the visited table this many successors ahead. *)
let prefetch_group = 32

(* One chunk of a wave: a contiguous run of frontier entries, expanded on
   one worker into a flat int buffer that is reused across waves and
   levels.  Per successor the buffer holds [n + 2] ints — the [n] slots,
   a tag word, the crash budget spent; per entry [counts] holds the
   successor count.  The expansion writes slots straight from the
   interner view — non-negative global ids or negative provisional ones
   — so the terminated/crashed sign of {!State.t} cannot be applied yet:
   the tag word holds the dead mask.  Once the views are committed the
   stage step resolves and canonicalizes each successor in place, and the
   tag word becomes its visited-set hash over its separation bit. *)
type chunk = {
  mutable first : int;  (* arena offset of the chunk's first entry *)
  mutable entries : int;
  mutable counts : int array;
  mutable buf : int array;
  mutable used : int;  (* ints of [buf] the last fill wrote *)
  mutable resolve : int -> int;  (* the committed view's resolver *)
  cur : State.t;  (* the entry being expanded; the successor being staged *)
  keys : int array;  (* its distinct awake keys, ascending *)
  bit : int array;  (* per node: its class's subset bit, 0 unless awake *)
  best : State.t;  (* canonicalization scratch *)
}

let new_chunk n =
  {
    first = 0;
    entries = 0;
    counts = Array.make 16 0;
    (* radiolint: allow range-overflow -- n <= 62, guarded by explore *)
    buf = Array.make (16 * (n + 2)) 0;
    used = 0;
    resolve = Fun.id;
    cur = Array.make n 0;
    keys = Array.make n 0;
    bit = Array.make n 0;
    best = Array.make n 0;
  }

(* The chunk's buffer with room for [need] more ints past the [used]
   ones; buffers start small so a tiny explore never pays for wave-sized
   arrays. *)
let reserve c ~used need =
  let cap = Array.length c.buf in
  if used + need > cap then begin
    let cap' = ref (2 * cap) in
    while used + need > !cap' do
      (* radiolint: allow range-overflow -- buffer doubling, bounded by
         allocatable memory *)
      cap' := 2 * !cap'
    done;
    let buf = Array.make !cap' 0 in
    Array.blit c.buf 0 buf 0 used;
    c.buf <- buf
  end;
  c.buf

let max_explore_nodes = 62
let max_explore_states ~n = (1 lsl 32) / (State.Packed.max_bytes ~n + 2)

let explore ?(depth = 24) ?(states = 2_000_000) ?(reduction = true)
    ?(faults = 0) ?(until_separated = false) ?pool ?progress config =
  let config = normalize config in
  let g = C.graph config in
  let n = C.size config in
  (* radiolint: allow partiality — n > 0: anorad and serve refuse it at load *)
  if n = 0 then invalid_arg "Checker.explore: empty configuration";
  if n > max_explore_nodes then
    (* radiolint: allow partiality — anorad mc and optimal refuse n > 62 *)
    invalid_arg "Checker.explore: crash mask supports n <= 62";
  let autos = if reduction then Symmetry.automorphisms config else [] in
  let tags = C.tags config in
  let max_tag = Array.fold_left (fun a t -> if t > a then t else a) 0 tags in
  (* Spontaneous wake-ups are spent after [max_tag]: beyond it the
     transition relation is round-invariant and states may be merged
     across rounds. *)
  let round_class r = if r > max_tag then max_tag + 1 else r in
  let adj_start, adj = adjacency g in
  let width = n + 2 in
  let intern = Interner.create () in
  let visited = Visited.create ~slots:n () in
  let raw = ref 0 in
  let canonicalizations = ref 0 in
  let peak = ref 0 in
  let depth_seen = ref 0 in
  let separated_at = ref None in
  let exhausted = ref None in
  (* What node [v] hears when the classes in [mask] transmit: silence,
     the lone transmitting neighbour's key, or noise. *)
  let heard (c : chunk) mask v =
    let code = ref ev_silence in
    let i = ref adj_start.(v) in
    let stop = adj_start.(v + 1) in
    while !i < stop do
      let w = adj.(!i) in
      if mask land c.bit.(w) <> 0 then
        if !code = ev_silence then code := c.cur.(w) + 2
        else begin
          code := ev_noise;
          i := stop
        end;
      incr i
    done;
    !code
  in
  (* Expands a chunk's entries against a fresh interner view and returns
     the view.  Per entry, in deterministic order: per transmitting subset
     the base successor, then (with crash budget left) one crash variant
     per awake node, ascending.  Subsets are bitmasks counted upward, with
     the largest key on bit 0 — exactly the order the list recursion
     [subsets (x :: rest) = subsets rest @ map (cons x) (subsets rest)]
     produces over the ascending keys. *)
  let fill round (c : chunk) =
    let view = Interner.local intern in
    let cur = c.cur in
    let keys = c.keys in
    (* the fill level lives in a local, not in the chunk record, so
       workers filling neighbouring chunks never write to a shared cache
       line *)
    let len = ref 0 in
    let off = ref c.first in
    for e = 0 to c.entries - 1 do
      let spent = Visited.decode visited !off cur in
      off := Visited.next visited !off;
      (* distinct awake keys, ascending, by insertion *)
      let d = ref 0 in
      for v = 0 to n - 1 do
        let k = cur.(v) in
        if k > 0 then begin
          let i = ref 0 in
          while !i < !d && keys.(!i) < k do
            incr i
          done;
          if !i = !d || keys.(!i) <> k then begin
            for j = !d downto !i + 1 do
              keys.(j) <- keys.(j - 1)
            done;
            keys.(!i) <- k;
            incr d
          end
        end
      done;
      let d = !d in
      for v = 0 to n - 1 do
        let k = cur.(v) in
        if k > 0 then begin
          let i = ref 0 in
          while keys.(!i) <> k do
            incr i
          done;
          (* radiolint: allow range-overflow -- i < d <= n <= 62, guarded
             at the top of explore *)
          c.bit.(v) <- 1 lsl (d - 1 - !i)
        end
        else c.bit.(v) <- 0
      done;
      let variants = if spent < faults then n + 1 else 1 in
      let count = ref 0 in
      (* radiolint: allow range-overflow -- d <= n <= 62 *)
      for mask = 0 to (1 lsl d) - 1 do
        let buf = reserve c ~used:!len (variants * width) in
        let base = !len in
        let dead = ref 0 in
        for v = 0 to n - 1 do
          let k = cur.(v) in
          if k > 0 then
            (* transmitters hear nothing *)
            let code =
              if mask land c.bit.(v) <> 0 then ev_silence else heard c mask v
            in
            buf.(base + v) <- Interner.get_local view (pack k code)
          else if k < 0 then begin
            (* crashed or terminated: frozen *)
            buf.(base + v) <- -k;
            (* radiolint: allow range-overflow -- v < n <= 62 *)
            dead := !dead lor (1 lsl v)
          end
          else
            let code = heard c mask v in
            buf.(base + v) <-
              (if code > ev_noise then Interner.get_local view (pack 0 code)
               else if tags.(v) = round then
                 Interner.get_local view (pack 0 ev_silence)
               else 0)
        done;
        buf.(base + n) <- !dead;
        buf.(base + n + 1) <- spent;
        len := base + width;
        incr count;
        (* Crash adversary: after the round's exchanges, any single awake
           node may die (key frozen, negated).  Crashing automorphic twins
           yields automorphic sibling states — the case the symmetry
           quotient collapses. *)
        if spent < faults then
          for v = 0 to n - 1 do
            (* radiolint: allow range-overflow -- v < n <= 62 *)
            let b = 1 lsl v in
            if buf.(base + v) <> 0 && !dead land b = 0 then begin
              let at = !len in
              Array.blit buf base buf at n;
              buf.(at + n) <- !dead lor b;
              buf.(at + n + 1) <- spent + 1;
              len := at + width;
              incr count
            end
          done
      done;
      c.counts.(e) <- !count
    done;
    c.used <- !len;
    view
  in
  (* Lexicographic minimum over the automorphic images, computed through
     the inverse permutations (image slot [i] holds [s.(inv.(i))]) so each
     candidate is compared as it is read and abandoned at its first larger
     slot; the result lands in one scratch array. *)
  let inverses =
    Array.of_list
      (List.map
         (fun phi ->
           let inv = Array.make n 0 in
           Array.iteri (fun v w -> inv.(w) <- v) phi;
           inv)
         autos)
  in
  let canonical best (s : State.t) =
    (* at most the identity: nothing to quotient *)
    if Array.length inverses <= 1 then s
    else begin
      Array.blit s 0 best 0 n;
      for a = 0 to Array.length inverses - 1 do
        let inv = inverses.(a) in
        let i = ref 0 in
        while !i < n do
          let x = s.(inv.(!i)) in
          let b = best.(!i) in
          if x = b then incr i
          else begin
            if x < b then
              for j = !i to n - 1 do
                best.(j) <- s.(inv.(j))
              done;
            i := n
          end
        done
      done;
      best
    end
  in
  (* Stages a chunk whose view is committed, on any domain: per successor
     resolve the slots into the chunk's scratch state and apply the sign
     mask, test separation (only while no earlier wave has separated, so
     the bit is consulted), canonicalize, and write the canonical slots
     and [hash lsl 1 lor separated] back over the successor's own slots
     and tag word.  Frontier entries carry the crash budget already spent:
     two states that agree node-wise but differ in remaining faults have
     different futures, so the hash covers it. *)
  let stage ~round_class ~separation (c : chunk) =
    let s = c.cur in
    let buf = c.buf in
    for j = 0 to (c.used / width) - 1 do
      let base = j * width in
      let dead = buf.(base + n) in
      for v = 0 to n - 1 do
        let id = c.resolve buf.(base + v) in
        (* radiolint: allow range-overflow -- v < n <= 62 *)
        s.(v) <- (if dead land (1 lsl v) <> 0 then -id else id)
      done;
      let sep = separation && separated s in
      Array.blit (canonical c.best s) 0 buf base n;
      let spent = buf.(base + n + 1) in
      let hash = Visited.hash ~round_class ~spent buf ~pos:base ~len:n in
      (* radiolint: allow range-overflow -- the top hash bit is dropped by
         design: Visited reads only the low 30 *)
      buf.(base + n) <- (hash lsl 1) lor Bool.to_int sep
    done
  in
  (* Inserts one staged chunk on the orchestrating domain, in submission
     order, with the exact sequential bookkeeping — the per-entry and
     per-successor cap checks, raw count, separation at the current round,
     one canonicalization counted and one visited-set probe per successor
     at the next.  A fresh state is published at the arena tail, which is
     where the next level's frontier is read from. *)
  let insert ~round (c : chunk) =
    let round_class = round_class (round + 1) in
    let buf = c.buf in
    let p = ref 0 in
    let warm = ref 0 in
    for e = 0 to c.entries - 1 do
      let count = c.counts.(e) in
      if Visited.size visited >= states then exhausted := Some `States
      else
        for j = 0 to count - 1 do
          let base = !p + (j * width) in
          if base >= !warm then begin
            (* Load the home slots of the next [prefetch_group] successors
               in one tight loop, so their cache misses overlap. *)
            warm := Int.min c.used (base + (prefetch_group * width));
            let q = ref base in
            while !q < !warm do
              Visited.prefetch visited ~hash:(buf.(!q + n) lsr 1);
              q := !q + width
            done
          end;
          let tag = buf.(base + n) in
          incr raw;
          if Option.is_none !separated_at && tag land 1 = 1 then
            separated_at := Some round;
          if Visited.size visited >= states then
            (* Enforced per insertion, not per BFS level: one wide level
               could otherwise overshoot the budget by orders of
               magnitude. *)
            exhausted := Some `States
          else begin
            incr canonicalizations;
            ignore
              (Visited.add_hashed visited ~hash:(tag lsr 1) ~round_class
                 ~spent:buf.(base + n + 1) buf ~pos:base
                : bool)
          end
        done;
      p := !p + (count * width)
    done
  in
  (* One wave: cut [wlen] entries starting at arena offset [off] into
     chunks — one without a pool, at jobs 1 or below the pool's parallel
     threshold, else one per worker — and return the offset after the
     wave.  Three steps, the first and last on the orchestrating domain:
     (1) expand every chunk, then replay the views in submission order
     and keep each chunk's resolver; (2) stage every chunk (resolve,
     canonicalize, hash — no visited-set access, so chunks run in
     parallel); (3) insert the staged successors chunk by chunk in
     submission order.  Chunks read the frontier's final ids, so no
     provisional id is ever embedded in a key — only successor slots need
     resolving.  Logs replay in
     submission order, so ids (and everything downstream of them) are the
     same for any chunking; replaying a whole wave's views before its
     first insert changes nothing, since ids never depend on the visited
     set. *)
  let chunks =
    Array.init
      (match pool with Some p -> Pool.jobs p | None -> 1)
      (fun _ -> new_chunk n)
  in
  let wave round off wlen =
    let nchunks =
      match pool with
      | Some p when Pool.jobs p > 1 && wlen >= Pool.min_parallel_batch ->
          let per = (wlen + Pool.jobs p - 1) / Pool.jobs p in
          (wlen + per - 1) / per
      | _ -> 1
    in
    let per = (wlen + nchunks - 1) / nchunks in
    let off = ref off in
    for i = 0 to nchunks - 1 do
      let c = chunks.(i) in
      let entries = Int.min per (wlen - (i * per)) in
      c.first <- !off;
      c.entries <- entries;
      if Array.length c.counts < entries then
        c.counts <- Array.make (Int.max entries (2 * Array.length c.counts)) 0;
      for _ = 1 to entries do
        off := Visited.next visited !off
      done
    done;
    let parallel =
      match pool with Some p when nchunks > 1 -> Some p | _ -> None
    in
    let part = Array.sub chunks 0 nchunks in
    let views =
      match parallel with
      | Some p ->
          Array.concat
            (Array.to_list
               (Pool.map_chunked p
                  ~f:(fun part -> Array.map (fill round) part)
                  part))
      | None -> [| fill round chunks.(0) |]
    in
    Array.iteri
      (fun i view ->
        chunks.(i).resolve <- Interner.commit intern view;
        if Interner.next_id intern >= max_ids then
          (* radiolint: allow partiality — callers cap states at
             max_explore_states (anorad mc checks --states) *)
          invalid_arg
            "Checker.explore: history keys exceed the packed id range")
      views;
    let round_class = round_class (round + 1) in
    let separation = Option.is_none !separated_at in
    (match parallel with
    | Some p ->
        ignore
          (Pool.map_chunked p
             ~f:(fun part -> Array.iter (stage ~round_class ~separation) part)
             part
            : unit array)
    | None -> stage ~round_class ~separation chunks.(0));
    Array.iter (insert ~round) part;
    !off
  in
  let report round flen =
    match progress with
    | None -> ()
    | Some f ->
        f ~round ~frontier:flen ~explored:(Visited.size visited)
          ~bytes:(Visited.memory_bytes visited)
  in
  (* Level [round]'s frontier is the run of [flen] entries at arena offset
     [first]: exactly what [Visited.add_hashed] published while the
     previous level was inserted, in insertion order. *)
  let rec level round first flen =
    if flen = 0 then ()
    else if until_separated && Option.is_some !separated_at then ()
    else if round >= depth then exhausted := Some `Depth
    else begin
      depth_seen := round;
      if flen > !peak then peak := flen;
      let next_first = Visited.cursor visited in
      let before = Visited.size visited in
      let pos = ref 0 in
      let off = ref first in
      while !pos < flen do
        if Visited.size visited >= states then begin
          (* Every remaining entry would be skipped by the per-entry cap
             check; record the trip without expanding them. *)
          exhausted := Some `States;
          pos := flen
        end
        else begin
          let wlen = Int.min wave_entries (flen - !pos) in
          off := wave round !off wlen;
          pos := !pos + wlen;
          report round flen
        end
      done;
      level (round + 1) next_first (Visited.size visited - before)
    end
  in
  let first = Visited.cursor visited in
  if states <= 0 then exhausted := Some `States
  else begin
    incr canonicalizations;
    ignore
      (Visited.add visited ~round_class:0 ~spent:0
         (canonical (Array.make n 0) (State.initial n))
        : bool)
  end;
  level 0 first (Visited.size visited);
  {
    config;
    separated_at = !separated_at;
    exhausted = !exhausted;
    stats =
      {
        states_explored = Visited.size visited;
        states_raw = !raw;
        peak_frontier = !peak;
        depth_reached = !depth_seen;
        distinct_keys = Interner.size intern;
        automorphisms = (match autos with [] -> 1 | l -> List.length l);
        canonicalizations = !canonicalizations;
        visited_bytes = Visited.memory_bytes visited;
      };
  }

let pp_violation ppf = function
  | Two_leaders vs ->
      Format.fprintf ppf "two leaders elected: nodes %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Format.pp_print_int)
        vs
  | No_leader_on_feasible ->
      Format.pp_print_string ppf
        "no leader elected on a classifier-feasible configuration"
  | Leader_on_infeasible { leader } ->
      Format.fprintf ppf
        "node %d elected on a classifier-infeasible configuration" leader
  | Wrong_leader { elected; canonical } ->
      Format.fprintf ppf "node %d elected but the canonical leader is %d"
        elected canonical
  | Liveness_bound_exceeded { bound; completed } ->
      Format.fprintf ppf
        "election completed in round %d, past the O(n^2 sigma) bound %d"
        completed bound

let violation_id = function
  | Two_leaders _ -> "mc-two-leaders"
  | No_leader_on_feasible -> "mc-no-leader"
  | Leader_on_infeasible _ -> "mc-leader-on-infeasible"
  | Wrong_leader _ -> "mc-wrong-leader"
  | Liveness_bound_exceeded _ -> "mc-liveness-bound"

let pp_verdict ppf = function
  | Elected { leader; round } ->
      Format.fprintf ppf "elected node %d in round %d" leader round
  | Non_election { classes } ->
      Format.fprintf ppf
        "non-election: terminal symmetric state with classes %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           (fun ppf cls ->
             Format.fprintf ppf "{%a}"
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
                  Format.pp_print_int)
               cls))
        classes
  | Violated v -> Format.fprintf ppf "VIOLATION: %a" pp_violation v
  | Exhausted `Depth -> Format.pp_print_string ppf "depth budget exhausted"
  | Exhausted `States -> Format.pp_print_string ppf "state budget exhausted"
