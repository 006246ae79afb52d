(* The bounded model checker (lib/mc): differential agreement with the
   classifier over the exhaustive small-configuration universe, bit-for-bit
   counterexample replay through the engine, mutant detection, and the
   symmetry-reduction quotient. *)

module C = Radio_config.Config
module F = Radio_config.Families
module G = Radio_graph.Graph
module Cl = Election.Classifier
module Fast = Election.Fast_classifier
module Fe = Election.Feasibility
module Sym = Election.Symmetry
module Lint = Radio_lint.Invariants
module State = Radio_mc.State
module Machine = Radio_mc.Machine
module Checker = Radio_mc.Checker
module Mutant = Radio_mc.Mutant
module Oracle = Radio_mc.Oracle

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let uniform_cycle n = C.uniform (Radio_graph.Gen.cycle n) 0

(* --- State encoding ------------------------------------------------- *)

(* The boxed state encoding the explorer replaced, kept as this file's
   oracle: a decimal string key per state and a list-based orbit minimum.
   The packed visited set and the explorer's in-place canonicalization
   must draw the same separations. *)
let compare_states (a : State.t) (b : State.t) =
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

let state_equal a b = compare_states a b = 0

let encode ~round_class (s : State.t) =
  String.concat "."
    (string_of_int round_class :: List.map string_of_int (Array.to_list s))

(* [permute phi s]: the state in which node [phi.(v)] carries [s.(v)]. *)
let permute (phi : int array) (s : State.t) : State.t =
  let out = Array.make (Array.length s) 0 in
  Array.iteri (fun v k -> out.(phi.(v)) <- k) s;
  out

(* Lexicographically smallest variant over a list of automorphisms. *)
let canonicalize autos (s : State.t) : State.t =
  List.fold_left
    (fun best phi ->
      let cand = permute phi s in
      if compare_states cand best < 0 then cand else best)
    s autos

let state_tests =
  [
    Alcotest.test_case "canonicalize picks the orbit minimum" `Quick
      (fun () ->
        let config = uniform_cycle 4 in
        let autos = Sym.automorphisms config in
        check_int "C4 has the dihedral group" 8 (List.length autos);
        let s = [| 3; 1; 1; 1 |] in
        let canon = canonicalize autos s in
        check "canonical is minimal" true
          (state_equal canon [| 1; 1; 1; 3 |]);
        (* every permuted variant canonicalizes identically *)
        List.iter
          (fun phi ->
            check "orbit collapses" true
              (state_equal canon
                 (canonicalize autos (permute phi s))))
          autos);
    Alcotest.test_case "encode separates round classes" `Quick (fun () ->
        let s = [| 1; 0 |] in
        check "same state, different round class" true
          (encode ~round_class:0 s <> encode ~round_class:1 s);
        check "same round class" true
          (String.equal
             (encode ~round_class:2 s)
             (encode ~round_class:2 [| 1; 0 |])));
  ]

(* --- Automorphism groups -------------------------------------------- *)

let symmetry_tests =
  [
    Alcotest.test_case "asymmetric config has only the identity" `Quick
      (fun () ->
        let autos = Sym.automorphisms (F.h_family 2) in
        check_int "trivial group" 1 (List.length autos);
        check "identity" true
          (match autos with
          | [ phi ] -> Array.for_all (fun v -> phi.(v) = v) (Array.mapi (fun i _ -> i) phi)
          | _ -> false));
    Alcotest.test_case "s-family path has the reversal" `Quick (fun () ->
        let autos = Sym.automorphisms (F.s_family 2) in
        check_int "id + reversal" 2 (List.length autos));
    Alcotest.test_case "every listed permutation is an automorphism" `Quick
      (fun () ->
        let config = uniform_cycle 5 in
        let g = C.graph config in
        List.iter
          (fun phi ->
            List.iter
              (fun (u, v) ->
                check "edge preserved" true (G.mem_edge g phi.(u) phi.(v)))
              (G.edges g))
          (Sym.automorphisms config));
  ]

(* --- Protocol-mode verification ------------------------------------- *)

let feasible_config = F.h_family 2
let infeasible_config = F.s_family 2
let feasible = Fe.analyze feasible_config
let infeasible = Fe.analyze infeasible_config

let verify_tests =
  [
    Alcotest.test_case "feasible family elects the canonical leader" `Quick
      (fun () ->
        let res = Checker.verify feasible in
        match res.Checker.verdict with
        | Checker.Elected { leader; round } ->
            let expected =
              match Cl.canonical_leader (Fast.classify feasible_config) with
              | Some l -> l
              | None -> Alcotest.fail "family must be feasible"
            in
            check_int "canonical leader" expected leader;
            let n = C.size feasible_config in
            let sigma = C.span feasible_config in
            check "within the O(n^2 sigma) bound" true
              (round <= Checker.global_bound ~n ~sigma)
        | v -> Alcotest.failf "unexpected verdict: %a" Checker.pp_verdict v);
    Alcotest.test_case "infeasible family reaches a symmetric state" `Quick
      (fun () ->
        let res = Checker.verify infeasible in
        match res.Checker.verdict with
        | Checker.Non_election { classes } ->
            check "at least one class" true (List.length classes >= 1);
            List.iter
              (fun cls ->
                check "no singleton history class" true
                  (List.length cls >= 2))
              classes
        | v -> Alcotest.failf "unexpected verdict: %a" Checker.pp_verdict v);
    Alcotest.test_case "counterexample trace replays bit-for-bit" `Quick
      (fun () ->
        List.iter
          (fun config ->
            let a = Fe.analyze config in
            let machine = Machine.drip a.Fe.plan in
            let res = Checker.verify ~machine a in
            let rp = Checker.replay ~machine res in
            check "trace equality" true rp.Checker.trace_matches;
            check "model validation" true
              (Radio_lint.Report.ok rp.Checker.report))
          [ feasible_config; infeasible_config; F.g_family 2; F.h_family 1 ]);
    Alcotest.test_case "depth budget trips" `Quick (fun () ->
        let res = Checker.verify ~depth:1 feasible in
        check "exhausted" true
          (match res.Checker.verdict with
          | Checker.Exhausted `Depth -> true
          | _ -> false));
    Alcotest.test_case "pure-drip machine agrees with drip" `Quick (fun () ->
        let r1 = Checker.verify ~machine:(Machine.drip feasible.Fe.plan) feasible in
        let r2 =
          Checker.verify ~machine:(Machine.pure_drip feasible.Fe.plan) feasible
        in
        check "same trace" true
          (Checker.trace_equal r1.Checker.trace r2.Checker.trace));
    Alcotest.test_case "distinct messages stay distinct events" `Quick
      (fun () ->
        (* A relay that appends to what woke it, sends that twice, then
           echoes the last message it heard: the strings differ from hop
           to hop and repeat, and what a node echoes depends on the exact
           strings it received, so a merged or misnumbered entry of the
           run's message table shows as a trace that differs from the
           engine's. *)
        let module H = Radio_drip.History in
        let module P = Radio_drip.Protocol in
        let base h =
          match H.get h 0 with
          | H.Silence -> "a"
          | H.Message m -> m ^ "b"
          | H.Collision -> "x"
        in
        let last_heard h =
          H.fold
            (fun acc i e ->
              match e with H.Message m when i > 0 -> m | _ -> acc)
            "none" h
        in
        let relay h =
          match H.length h with
          | 1 | 3 -> P.Transmit (base h)
          | 5 -> P.Transmit (last_heard h ^ "c")
          | i when i < 8 -> P.Listen
          | _ -> P.Terminate
        in
        let machine = Machine.of_protocol (P.of_pure ~name:"relay" relay) in
        let res =
          Checker.check ~machine (F.tagged_path [| 0; 9; 9; 9; 9; 9 |])
        in
        let sent =
          List.sort_uniq String.compare
            (List.concat_map
               (fun e -> List.map snd e.Radio_sim.Trace.transmitters)
               res.Checker.trace)
        in
        check "many distinct messages" true (List.length sent >= 8);
        check "trace equality" true
          (Checker.replay ~machine res).Checker.trace_matches);
    Alcotest.test_case "wave machine verifies on its domain" `Quick (fun () ->
        (* a depth-tagged star: node 0 tag 0, leaves woken by the wave *)
        let g = Radio_graph.Gen.star 4 in
        let config = C.create g [| 0; 1; 1; 1 |] in
        check "wave applies" true (Election.Wave_election.applies config);
        let machine =
          match Machine.of_name (Fe.analyze config).Fe.plan "wave" with
          | Some m -> m
          | None -> Alcotest.fail "registry must know wave"
        in
        let res = Checker.check ~machine config in
        match res.Checker.verdict with
        | Checker.Elected { leader; _ } -> check_int "wave leader" 0 leader
        | v -> Alcotest.failf "unexpected verdict: %a" Checker.pp_verdict v);
  ]

(* --- Mutants --------------------------------------------------------- *)

let mutant_tests =
  [
    Alcotest.test_case "greedy decision mutant violates safety" `Quick
      (fun () ->
        let machine = Mutant.greedy_decision feasible.Fe.plan in
        let res = Checker.check ~machine feasible_config in
        (match res.Checker.verdict with
        | Checker.Violated (Checker.Two_leaders ls) ->
            check "at least two leaders" true (List.length ls >= 2)
        | v -> Alcotest.failf "unexpected verdict: %a" Checker.pp_verdict v);
        (* The action schedule is the canonical DRIP's, so the trace is a
           valid execution: check-trace passes, as the verdict predicts. *)
        let rp = Checker.replay ~machine res in
        check "trace equality" true rp.Checker.trace_matches;
        check "replay passes validation" true
          (Radio_lint.Report.ok rp.Checker.report));
    Alcotest.test_case "early-stop mutant breaks liveness" `Quick (fun () ->
        let machine = Mutant.early_stop feasible.Fe.plan in
        let res = Checker.verify ~machine feasible in
        (match res.Checker.verdict with
        | Checker.Violated Checker.No_leader_on_feasible -> ()
        | v -> Alcotest.failf "unexpected verdict: %a" Checker.pp_verdict v);
        (* Replaying under the mutant itself is bit-for-bit clean... *)
        let rp = Checker.replay ~machine res in
        check "trace equality" true rp.Checker.trace_matches;
        check "self-replay passes" true
          (Radio_lint.Report.ok rp.Checker.report);
        (* ...but the same outcome validated against the healthy canonical
           protocol fails check-trace, exactly as the verdict predicts. *)
        let healthy = (Machine.drip feasible.Fe.plan).Machine.protocol in
        check "fails against healthy protocol" false
          (Radio_lint.Report.ok
             (Lint.validate ~protocol:healthy rp.Checker.outcome)));
  ]

(* --- Packed codes and the compact visited set ------------------------ *)

module Visited = Radio_mc.Visited
module Pool = Radio_exec.Pool

(* The oracle's exhaustive universe: every connected graph on [n <= 4]
   nodes (up to isomorphism) crossed with every tag census of span
   [<= 2]. *)
let small_configs () =
  List.concat_map
    (fun (_, _, configs) -> configs)
    (Election.Census.universe ~max_n:4 ~max_span:2)

(* Deterministic slot material covering every sign/magnitude shape a
   reachable state can hold (asleep, small running keys, terminated
   negatives, multi-byte varint keys). *)
let slot_pool = [| 0; 1; 2; -1; -2; 5; -7; 300; -300; 40_000 |]

let synth_state ~n i =
  Array.init n (fun v -> slot_pool.((i * 7 + v * 3 + (i / 11)) mod 10))

(* The code of one state, written at offset 0 of a fresh buffer. *)
let pack ~round_class ~spent (s : State.t) =
  let n = Array.length s in
  let buf = Bytes.create (State.Packed.max_bytes ~n) in
  let len =
    State.Packed.write_sub buf ~pos:0 ~round_class ~spent s ~off:0 ~n
  in
  Bytes.sub buf 0 len

(* Every entry of a visited set as [(spent, slots)], in insertion order,
   read the way the explorer reads a frontier: [cursor], [next], [decode]. *)
let set_entries v ~slots =
  let s = Array.make slots 0 in
  let stop = Visited.cursor v in
  let rec walk off acc =
    if off >= stop then List.rev acc
    else
      let spent = Visited.decode v off s in
      walk (Visited.next v off) ((spent, Array.to_list s) :: acc)
  in
  walk 0 []

let packed_tests =
  [
    Alcotest.test_case "zigzag is the standard bijection" `Quick (fun () ->
        let open State.Packed in
        List.iter
          (fun (signed, unsigned) ->
            check_int "zigzag" unsigned (zigzag signed);
            check_int "unzigzag" signed (unzigzag unsigned))
          [ (0, 0); (-1, 1); (1, 2); (-2, 3); (2, 4); (123456, 246912) ];
        List.iter
          (fun k -> check_int "roundtrip" k (unzigzag (zigzag k)))
          [ 0; 1; -1; 17; -17; 40_000; -40_000; max_int; min_int + 1 ]);
    Alcotest.test_case "pack/unpack roundtrip" `Quick (fun () ->
        for n = 1 to 6 do
          for i = 0 to 199 do
            let s = synth_state ~n i in
            let round_class = i mod 3 and spent = i mod 2 in
            let code = pack ~round_class ~spent s in
            check "code within bound" true
              (Bytes.length code <= State.Packed.max_bytes ~n);
            let s' = Array.make n 0 in
            check_int "spent survives" spent
              (State.Packed.read_into code ~pos:0 s');
            check "slots survive" true (state_equal s s')
          done
        done);
    Alcotest.test_case "write agrees with pack at any offset" `Quick
      (fun () ->
        (* the state sits mid-array and is written mid-buffer, as in the
           explorer's chunks and the visited set's arena *)
        let s = [| 3; 0; -5; 40_000 |] in
        let code = pack ~round_class:2 ~spent:1 s in
        let src = Array.append [| 9; 9 |] s in
        let buf = Bytes.make (16 + State.Packed.max_bytes ~n:4) '\xff' in
        let stop =
          State.Packed.write_sub buf ~pos:16 ~round_class:2 ~spent:1 src
            ~off:2 ~n:4
        in
        check_int "length" (Bytes.length code) (stop - 16);
        check "bytes equal" true
          (Bytes.equal code (Bytes.sub buf 16 (Bytes.length code))));
    Alcotest.test_case "visited set agrees with the legacy boxed path"
      `Quick
      (fun () ->
        (* Differential test over the full n <= 4 configuration universe:
           the packed open-addressing set must draw exactly the separations
           the old [encode]-keyed hashtable drew, on canonicalized states
           (pack after canonicalize = the legacy boxed key). *)
        let configs = small_configs () in
        check "universe rebuilt" true (List.length configs = 434);
        List.iter
          (fun config ->
            let n = C.size config in
            let autos = Sym.automorphisms config in
            let visited = Visited.create ~bits:4 ~slots:n () in
            let legacy = Hashtbl.create 64 in
            for i = 0 to 99 do
              let round_class = i mod 3 and spent = i mod 2 in
              let canon = canonicalize autos (synth_state ~n i) in
              let key =
                Printf.sprintf "%d|%d|%s" round_class spent
                  (encode ~round_class canon)
              in
              let fresh = Visited.add visited ~round_class ~spent canon in
              check "add reports freshness" (not (Hashtbl.mem legacy key))
                fresh;
              Hashtbl.replace legacy key ();
              check "a second add sees the first" false
                (Visited.add visited ~round_class ~spent canon)
            done;
            check_int "same cardinality" (Hashtbl.length legacy)
              (Visited.size visited))
          configs);
    Alcotest.test_case "cursor walk reads every entry" `Quick
      (fun () ->
        (* Push the set through several table doublings and arena growths,
           then decode everything back out in insertion order. *)
        let n = 3 in
        let visited = Visited.create ~bits:4 ~slots:n () in
        let inserted = ref [] in
        for i = 0 to 9_999 do
          let s = [| i - 5_000; (i * 17) - 80_000; i mod 7 |] in
          let round_class = i mod 5 and spent = i mod 3 in
          check "all fresh" true (Visited.add visited ~round_class ~spent s);
          inserted := (spent, Array.to_list s) :: !inserted
        done;
        check_int "all held" 10_000 (Visited.size visited);
        check "footprint reported" true (Visited.memory_bytes visited > 0);
        check "every entry, in order" true
          (set_entries visited ~slots:n = List.rev !inserted));
  ]


(* --- Arena growth boundaries and varint width thresholds ------------- *)

let visited_edge_tests =
  [
    Alcotest.test_case "duplicate rollback across arena growth boundaries"
      `Quick (fun () ->
        (* [add] packs speculatively past [len] before probing, so a
           duplicate attempt can itself trigger an arena reallocation and
           must then roll back — leaving len, count and every published
           entry intact.  Walk enough distinct states to cross several
           doublings, re-adding an old state before every insert, and
           demand that at least one of those duplicate probes landed
           exactly on a growth boundary (memory grew while add returned
           false). *)
        let n = 3 in
        let visited = Visited.create ~bits:4 ~slots:n () in
        let state i = [| i - 700; (i * 17) - 9_000; (i mod 7) - 3 |] in
        let dup_growths = ref 0 in
        for i = 0 to 1_499 do
          if i > 0 then begin
            let before = Visited.memory_bytes visited in
            let s = state (i / 2) in
            check "duplicate rejected" false
              (Visited.add visited ~round_class:0 ~spent:0 s);
            if Visited.memory_bytes visited > before then
              incr dup_growths;
            check "duplicate still rejected" false
              (Visited.add visited ~round_class:0 ~spent:0 s)
          end;
          check "fresh state accepted" true
            (Visited.add visited ~round_class:0 ~spent:0 (state i));
          check_int "count tracks inserts" (i + 1) (Visited.size visited)
        done;
        check "a duplicate probe grew the arena" true (!dup_growths > 0);
        (* Nothing was corrupted by the speculative writes: every entry
           decodes back out exactly once, in insertion order. *)
        check "every entry survives growth" true
          (set_entries visited ~slots:n
          = List.init 1_500 (fun i -> (0, Array.to_list (state i)))));
    Alcotest.test_case "slot codes change width exactly at the varint \
                        thresholds" `Quick (fun () ->
        (* zigzag maps k to 2|k| - (k < 0): the 1->2 byte boundary sits at
           zigzag = 0x7f/0x80, i.e. k = -64 vs 64, and the 2->3 byte
           boundary at k = -8192 vs 8192. *)
        let code_len k = Bytes.length (pack ~round_class:0 ~spent:0 [| k |]) in
        let base = code_len 0 in
        List.iter
          (fun (k, extra) -> check_int "code width" (base + extra)
            (code_len k))
          [
            (63, 0); (-64, 0); (64, 1); (-65, 1);
            (8_191, 1); (-8_192, 1); (8_192, 2); (-8_193, 2);
          ];
        (* States straddling a threshold stay distinct in the set. *)
        let visited = Visited.create ~bits:3 ~slots:1 () in
        List.iter
          (fun k ->
            check "fresh across the boundary" true
              (Visited.add visited ~round_class:0 ~spent:0 [| k |]))
          [ -64; 64; -65; 63; -8_192; 8_192 ];
        check_int "all six held" 6 (Visited.size visited));
    Alcotest.test_case "add_hashed with Visited.hash builds what add builds"
      `Quick (fun () ->
        (* The staged explorer hashes on the pool and inserts with the
           precomputed hash; [add] hashes itself.  Same inputs in the same
           order, duplicates included, must give the same set. *)
        let n = 4 in
        let state j = [| j mod 17; j / 17; ((j * 7) mod 5) - 2; j mod 3 |] in
        let a = Visited.create ~bits:3 ~slots:n () in
        let b = Visited.create ~bits:3 ~slots:n () in
        let buf = Array.make (3 + n) 0 in
        for i = 0 to 4_999 do
          let j = if i mod 5 = 4 then i / 3 else i in
          let round_class = j mod 3 and spent = j mod 2 in
          (* the slots sit mid-buffer, as in the explorer's chunks *)
          Array.blit (state j) 0 buf 3 n;
          let hash = Visited.hash ~round_class ~spent buf ~pos:3 ~len:n in
          check "same freshness"
            (Visited.add a ~round_class ~spent (state j))
            (Visited.add_hashed b ~hash ~round_class ~spent buf ~pos:3)
        done;
        check_int "same size" (Visited.size a) (Visited.size b);
        check "same entries in the same order" true
          (set_entries a ~slots:n = set_entries b ~slots:n));
    Alcotest.test_case "one shared fragment: every probe compares codes"
      `Quick (fun () ->
        (* Hash 0 for every state puts all entries on one home slot with
           equal fragments, so freshness and duplicates rest on the code
           comparison alone, through several table doublings. *)
        let v = Visited.create ~bits:3 ~slots:3 () in
        let state i = [| i mod 11; i / 11; -(i mod 3) |] in
        let add i ~spent =
          Visited.add_hashed v ~hash:0 ~round_class:0 ~spent (state i) ~pos:0
        in
        for i = 0 to 299 do
          check "fresh" true (add i ~spent:(i mod 2));
          check "duplicate" false (add (i / 2) ~spent:(i / 2 mod 2));
          check "other budget is a different state" true
            (add i ~spent:(2 + (i mod 2)))
        done;
        check_int "all held" 600 (Visited.size v));
    Alcotest.test_case "growth from stored fragments keeps every member"
      `Quick (fun () ->
        (* From 8 slots, 600 entries at load 1/2 take the table to 2048
           slots, 8 doublings; each re-places the slots from the
           fragments they store, never from the arena, and every entry
           must still be found. *)
        let n = 5 in
        let v = Visited.create ~bits:3 ~slots:n () in
        let state i = [| i; (i * 31) mod 97; -(i mod 5); i / 13; 7 |] in
        for i = 0 to 599 do
          check "fresh" true
            (Visited.add v ~round_class:(i mod 4) ~spent:0 (state i))
        done;
        (* table bytes past 2^(3+6) slots, plus the initial 4 KiB arena *)
        check "6 or more doublings" true
          (Visited.memory_bytes v >= (8 * (8 lsl 6)) + 4096);
        for i = 0 to 599 do
          check "member after growth" false
            (Visited.add v ~round_class:(i mod 4) ~spent:0 (state i));
          check "no false member" true
            (Visited.add v ~round_class:((i + 1) mod 4) ~spent:0 (state i))
        done;
        check_int "members plus the new round classes" 1_200 (Visited.size v));
    Alcotest.test_case "create rejects widths the entry header cannot \
                        hold" `Quick (fun () ->
        check "reasonable width accepted" true
          (Visited.size (Visited.create ~slots:6_551 ()) = 0);
        match Visited.create ~slots:7_000 () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "7000-slot width must be rejected");
  ]

(* --- Universal mode and the symmetry quotient ------------------------ *)

let stats_equal (a : Checker.stats) (b : Checker.stats) =
  a.Checker.states_explored = b.Checker.states_explored
  && a.Checker.states_raw = b.Checker.states_raw
  && a.Checker.peak_frontier = b.Checker.peak_frontier
  && a.Checker.depth_reached = b.Checker.depth_reached
  && a.Checker.distinct_keys = b.Checker.distinct_keys
  && a.Checker.automorphisms = b.Checker.automorphisms
  && a.Checker.canonicalizations = b.Checker.canonicalizations
  && a.Checker.visited_bytes = b.Checker.visited_bytes

let exploration_equal (a : Checker.exploration) (b : Checker.exploration) =
  stats_equal a.Checker.stats b.Checker.stats
  && (match (a.Checker.separated_at, b.Checker.separated_at) with
     | None, None -> true
     | Some x, Some y -> x = y
     | _ -> false)
  &&
  match (a.Checker.exhausted, b.Checker.exhausted) with
  | None, None | Some `Depth, Some `Depth | Some `States, Some `States ->
      true
  | _ -> false

let explore_tests =
  [
    Alcotest.test_case "fault-free anonymous states are symmetric" `Quick
      (fun () ->
        (* Lockstep classes keep every reachable state automorphism-
           invariant, so the quotient changes nothing — the checker's
           restatement of the paper's symmetry impossibility. *)
        let config = uniform_cycle 4 in
        let on = Checker.explore ~depth:6 ~reduction:true config in
        let off = Checker.explore ~depth:6 ~reduction:false config in
        check "group found" true (on.Checker.stats.Checker.automorphisms > 1);
        check_int "identical visited sets"
          off.Checker.stats.Checker.states_explored
          on.Checker.stats.Checker.states_explored);
    Alcotest.test_case "symmetry reduction shrinks the visited set" `Quick
      (fun () ->
        (* A crash adversary names concrete nodes, breaking lockstep:
           killing automorphic twins yields automorphic sibling states the
           quotient collapses. *)
        let config = uniform_cycle 4 in
        let on = Checker.explore ~depth:6 ~faults:1 ~reduction:true config in
        let off =
          Checker.explore ~depth:6 ~faults:1 ~reduction:false config
        in
        check "group found" true (on.Checker.stats.Checker.automorphisms > 1);
        check "strictly fewer states" true
          (on.Checker.stats.Checker.states_explored
          < off.Checker.stats.Checker.states_explored);
        check "same separation verdict" true
          (match (on.Checker.separated_at, off.Checker.separated_at) with
          | None, None -> true
          | Some a, Some b -> a = b
          | _ -> false);
        check "peak frontier recorded" true
          (on.Checker.stats.Checker.peak_frontier >= 1));
    Alcotest.test_case "uniform cycle never separates" `Quick (fun () ->
        let e = Checker.explore ~depth:8 (uniform_cycle 4) in
        check "no separation" true (Option.is_none e.Checker.separated_at));
    Alcotest.test_case "feasible family separates" `Quick (fun () ->
        let e = Checker.explore ~depth:12 (F.h_family 1) in
        check "separates" true (Option.is_some e.Checker.separated_at));
    Alcotest.test_case "until_separated stops after the separating level"
      `Quick (fun () ->
        let config = F.h_family 3 in
        let full = Checker.explore ~depth:12 config in
        let early = Checker.explore ~depth:12 ~until_separated:true config in
        check "separates at 3" true (full.Checker.separated_at = Some 3);
        check "same round" true (early.Checker.separated_at = Some 3);
        check_int "last level expanded" 3
          early.Checker.stats.Checker.depth_reached;
        check "no budget tripped" true (Option.is_none early.Checker.exhausted);
        check "the full run goes on" true
          (full.Checker.stats.Checker.depth_reached > 3);
        (* never separating, the option changes nothing *)
        let cycle = uniform_cycle 4 in
        check "unchanged without separation" true
          (exploration_equal
             (Checker.explore ~depth:8 cycle)
             (Checker.explore ~depth:8 ~until_separated:true cycle)));
    Alcotest.test_case "state budget trips" `Quick (fun () ->
        let e = Checker.explore ~depth:20 ~states:1 (uniform_cycle 4) in
        check "exhausted" true
          (match e.Checker.exhausted with
          | Some `States -> true
          | _ -> false));
    Alcotest.test_case "parallel explore is bit-identical at any job count"
      `Quick
      (fun () ->
        (* The determinism contract: constant-size waves, per-chunk intern
           views committed in submission order — every stats field, the
           separation round and the budget verdict must coincide between
           the sequential path and every pool size. *)
        let config = F.h_family 2 in
        let base = Checker.explore ~depth:6 ~faults:1 config in
        check "reference run separates" true
          (Option.is_some base.Checker.separated_at);
        check "reference run is parallel-sized" true
          (base.Checker.stats.Checker.peak_frontier
          >= Pool.min_parallel_batch);
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun pool ->
                let e = Checker.explore ~depth:6 ~faults:1 ~pool config in
                check
                  (Printf.sprintf "identical exploration at jobs %d" jobs)
                  true
                  (exploration_equal base e)))
          [ 1; 2; 4 ]);
    Alcotest.test_case "cap trip is bit-identical at any job count" `Quick
      (fun () ->
        (* The cap can trip mid-wave; wave boundaries are jobs-independent,
           so where it trips (and every counter at that point) must not
           depend on the pool. *)
        let config = F.h_family 2 in
        let base = Checker.explore ~depth:8 ~faults:1 ~states:5_000 config in
        check "cap tripped" true
          (match base.Checker.exhausted with
          | Some `States -> true
          | _ -> false);
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun pool ->
                let e =
                  Checker.explore ~depth:8 ~faults:1 ~states:5_000 ~pool
                    config
                in
                check
                  (Printf.sprintf "identical cap trip at jobs %d" jobs)
                  true
                  (exploration_equal base e)))
          [ 1; 2; 4 ]);
    Alcotest.test_case "every raw successor canonicalizes exactly once"
      `Quick
      (fun () ->
        (* The hot-path fix: one canonicalization per successor (plus the
           initial state), with the single-probe visited set replacing the
           old canonicalize -> encode -> mem -> add chain. *)
        let e = Checker.explore ~depth:6 ~faults:1 (F.h_family 2) in
        check_int "canonicalizations = raw + 1"
          (e.Checker.stats.Checker.states_raw + 1)
          e.Checker.stats.Checker.canonicalizations;
        check "footprint recorded" true
          (e.Checker.stats.Checker.visited_bytes > 0));
  ]

(* --- Golden explorer counters ------------------------------------------ *)

(* The jobs-equality cases above run the same code on both sides, so an
   order change in interning or frontier traversal would pass them.  These
   pin the full counters of the two benchmark rows to the values the
   boxed-frontier explorer produced before the allocation-free rewrite:
   every one of them (key count, visited bytes, peak frontier) moves if a
   successor, a key or a frontier entry is visited in a different order.
   [levels] pins every BFS level's frontier size as [progress] reports
   it, so a level that gains a state while another loses one still
   shows. *)
let golden_tests =
  let golden name config ~depth ~explored ~raw ~keys ~canon ~peak ~bytes
      ~depth_reached ~autos ~levels =
    Alcotest.test_case name `Slow (fun () ->
        let check_run label ?pool () =
          let seen = ref [] in
          let progress ~round ~frontier ~explored:_ ~bytes:_ =
            match !seen with
            | (r, _) :: _ when r = round -> ()
            | _ -> seen := (round, frontier) :: !seen
          in
          let e = Checker.explore ~depth ~faults:1 ?pool ~progress config in
          Alcotest.(check (list (pair int int)))
            (label ^ ": frontier per level")
            (List.mapi (fun r f -> (r, f)) levels)
            (List.rev !seen);
          let s = e.Checker.stats in
          List.iter
            (fun (field, want, got) ->
              check_int (Printf.sprintf "%s: %s" label field) want got)
            [
              ("states_explored", explored, s.Checker.states_explored);
              ("states_raw", raw, s.Checker.states_raw);
              ("distinct_keys", keys, s.Checker.distinct_keys);
              ("canonicalizations", canon, s.Checker.canonicalizations);
              ("peak_frontier", peak, s.Checker.peak_frontier);
              ("visited_bytes", bytes, s.Checker.visited_bytes);
              ("depth_reached", depth_reached, s.Checker.depth_reached);
              ("automorphisms", autos, s.Checker.automorphisms);
            ];
          check (label ^ ": separated at round 1") true
            (match e.Checker.separated_at with Some 1 -> true | _ -> false);
          check (label ^ ": depth budget") true
            (match e.Checker.exhausted with
            | Some `Depth -> true
            | _ -> false)
        in
        check_run "no pool" ();
        Pool.with_pool ~jobs:2 (fun pool -> check_run "jobs 2" ~pool ()))
  in
  [
    golden "H_2, depth 8" (F.h_family 2) ~depth:8 ~explored:853_637
      ~raw:1_042_606 ~keys:21_014 ~canon:1_042_607 ~peak:64_705
      ~bytes:33_554_432 ~depth_reached:7 ~autos:1
      ~levels:[ 1; 3; 12; 50; 219; 1_081; 6_987; 64_705 ];
    golden "broken 6-ring, depth 6"
      (C.create (Radio_graph.Gen.cycle 6) [| 0; 1; 0; 1; 1; 1 |])
      ~depth:6 ~explored:423_687 ~raw:482_431 ~keys:6_107 ~canon:482_432
      ~peak:19_268 ~bytes:16_777_216 ~depth_reached:5 ~autos:2
      ~levels:[ 1; 2; 12; 100; 1_176; 19_268 ];
  ]

(* Protocol mode pinned the same way: every registered machine and
   mutant on five configurations, with the verdict, the rounds simulated,
   the interned key count and an MD5 of the [Trace.pp] text of each run.
   A wrong event code, a lost or merged message or a mis-materialized
   history moves the key count, the trace or the verdict. *)
let protocol_golden =
  [
    ( "h2", "drip",
      "elected node 0 in round 14",
      15, 35, "42914c25347d39b641ef782d771abf53" );
    ( "h2", "pure-drip",
      "elected node 0 in round 14",
      15, 35, "42914c25347d39b641ef782d771abf53" );
    ( "h2", "beacon",
      "non-election: terminal symmetric state with classes {0,3} {1,2}",
      4, 4, "98f560f89b3f1ae103b0bbd58de08bbf" );
    ( "h2", "silent",
      "non-election: terminal symmetric state with classes {0,1,2,3}",
      5, 1, "aeb014340bea0d1b27d8ca2e936d334e" );
    ( "h2", "min-beacon",
      "VIOLATION: two leaders elected: nodes 1, 2",
      3, 3, "523636ff6713de980877a26646811bcf" );
    ( "h2", "wave",
      "VIOLATION: two leaders elected: nodes 1, 2",
      3, 4, "2d6af0a22557bbd59b320558a6258a7a" );
    ( "h2", "mutant-greedy-decision",
      "VIOLATION: two leaders elected: nodes 1, 2",
      12, 32, "8e27618a6678d1452de949273cfc6a3f" );
    ( "h2", "mutant-early-stop",
      "non-election: terminal symmetric state with classes {0} {1} {2} {3}",
      14, 31, "a742adbb1f1d413c56ccf486a40de3e9" );
    ( "g2", "drip",
      "elected node 4 in round 16",
      17, 50, "c4b5e29b1d1e29464d5c4ff74962dad2" );
    ( "g2", "pure-drip",
      "elected node 4 in round 16",
      17, 50, "c4b5e29b1d1e29464d5c4ff74962dad2" );
    ( "g2", "beacon",
      "non-election: terminal symmetric state with classes {0,1,3,4,5,7,8} {2,6}",
      4, 4, "64a2a276e6b20c264d5f597402e1854f" );
    ( "g2", "silent",
      "non-election: terminal symmetric state with classes {0,1,2,3,4,5,6,7,8}",
      3, 1, "76233b1cd267f7c202eb9d1eef1cbe8c" );
    ( "g2", "min-beacon",
      "VIOLATION: two leaders elected: nodes 0, 1, 7, 8",
      3, 3, "e50f2e28d8a57b6f1db6baf3f17f62d0" );
    ( "g2", "wave",
      "VIOLATION: two leaders elected: nodes 0, 1, 7, 8",
      3, 4, "55ce3435af434e8fdc85e7cedae5fc1e" );
    ( "g2", "mutant-greedy-decision",
      "VIOLATION: two leaders elected: nodes 0, 1, 7, 8",
      16, 50, "5ecfedfb81c78ba45c037a3507e67204" );
    ( "g2", "mutant-early-stop",
      "non-election: terminal symmetric state with classes {0,8} {1,7} {2,6} {3,5} {4}",
      16, 45, "f7b6d9cc95dfa1e237776999eca97bd7" );
    ( "s2", "drip",
      "non-election: terminal symmetric state with classes {0,3} {1,2}",
      23, 39, "2c8b38900a879e02605ebe7dee74da51" );
    ( "s2", "pure-drip",
      "non-election: terminal symmetric state with classes {0,3} {1,2}",
      23, 39, "2c8b38900a879e02605ebe7dee74da51" );
    ( "s2", "beacon",
      "non-election: terminal symmetric state with classes {0,3} {1,2}",
      4, 4, "98f560f89b3f1ae103b0bbd58de08bbf" );
    ( "s2", "silent",
      "non-election: terminal symmetric state with classes {0,1,2,3}",
      4, 1, "3bff12671bdf583b963232e7e79dfc4d" );
    ( "s2", "min-beacon",
      "VIOLATION: two leaders elected: nodes 1, 2",
      3, 3, "523636ff6713de980877a26646811bcf" );
    ( "s2", "wave",
      "VIOLATION: two leaders elected: nodes 1, 2",
      3, 4, "2d6af0a22557bbd59b320558a6258a7a" );
    ( "s2", "mutant-greedy-decision",
      "VIOLATION: two leaders elected: nodes 1, 2",
      21, 38, "de29ca93166954edc71b5e3b3060f99a" );
    ( "s2", "mutant-early-stop",
      "non-election: terminal symmetric state with classes {0,3} {1,2}",
      22, 37, "8d0be00c6dbc4698e24cf709ecdad5b5" );
    ( "path7", "drip",
      "elected node 3 in round 16",
      17, 47, "41dcc359bebd7927e5ef1cf2ac9b7086" );
    ( "path7", "pure-drip",
      "elected node 3 in round 16",
      17, 47, "41dcc359bebd7927e5ef1cf2ac9b7086" );
    ( "path7", "beacon",
      "non-election: terminal symmetric state with classes {0,2,3,4,6} {1,5}",
      4, 4, "991d75156a8828e159081b292e81a25c" );
    ( "path7", "silent",
      "non-election: terminal symmetric state with classes {0,1,2,3,4,5,6}",
      3, 1, "4784c27535855d5e9859011a89bf3a47" );
    ( "path7", "min-beacon",
      "VIOLATION: two leaders elected: nodes 0, 6",
      3, 3, "540f59619def064e11d8b377206262b8" );
    ( "path7", "wave",
      "VIOLATION: two leaders elected: nodes 0, 6",
      3, 4, "e3b08e81ae4b1f4ab04f6171a2fca8a3" );
    ( "path7", "mutant-greedy-decision",
      "VIOLATION: two leaders elected: nodes 0, 6",
      16, 47, "ba3a628ec446ca37b69da649a0928827" );
    ( "path7", "mutant-early-stop",
      "non-election: terminal symmetric state with classes {0,6} {1,5} {2,4} {3}",
      16, 43, "749a92cacffb628d3310856cd58e22d8" );
    ( "ring6", "drip",
      "elected node 1 in round 6",
      7, 15, "c00d8b6a9e84d78a104fef965955e114" );
    ( "ring6", "pure-drip",
      "elected node 1 in round 6",
      7, 15, "c00d8b6a9e84d78a104fef965955e114" );
    ( "ring6", "beacon",
      "non-election: terminal symmetric state with classes {0,1,2,4} {3,5}",
      4, 4, "decbe0debbf7338493c018994be3bb9a" );
    ( "ring6", "silent",
      "non-election: terminal symmetric state with classes {0,1,2,3,4,5}",
      3, 1, "457085def31eaf70f1e92a353776a92a" );
    ( "ring6", "min-beacon",
      "VIOLATION: two leaders elected: nodes 0, 2",
      3, 3, "5be9cb38d5e136f1d6962a1fb40f8294" );
    ( "ring6", "wave",
      "VIOLATION: two leaders elected: nodes 0, 2",
      3, 4, "a3cdfdf592b3924bf06e8da8c5951de6" );
    ( "ring6", "mutant-greedy-decision",
      "VIOLATION: two leaders elected: nodes 0, 2",
      6, 15, "14513d2204b6d3c2a2a783fc5f23dbcf" );
    ( "ring6", "mutant-early-stop",
      "non-election: terminal symmetric state with classes {0,2} {1} {3,5} {4}",
      6, 11, "89039ecebd68a1e896d48714a53ebc08" );
  ]

let protocol_golden_tests =
  let row (config, machine, verdict, rounds, keys, trace) =
    Printf.sprintf "%s %s: %s; %d rounds, %d keys, trace %s" config machine
      verdict rounds keys trace
  in
  let configs =
    [
      ( "h2",
        (Option.get (Radio_config.Catalog.find "h2")).Radio_config.Catalog.config
      );
      ("g2", F.g_family 2);
      ("s2", F.s_family 2);
      ("path7", F.tagged_path [| 0; 1; 1; 1; 1; 1; 0 |]);
      ("ring6", F.tagged_cycle [| 0; 1; 0; 1; 1; 1 |]);
    ]
  in
  [
    Alcotest.test_case "protocol mode: every machine on five configs" `Quick
      (fun () ->
        let seen =
          List.concat_map
            (fun (cname, config) ->
              let plan = (Fe.analyze config).Fe.plan in
              List.map
                (fun name ->
                  let machine =
                    match Machine.of_name plan name with
                    | Some m -> m
                    | None -> Option.get (Mutant.of_name plan name)
                  in
                  let r = Checker.check ~machine config in
                  row
                    ( cname,
                      name,
                      Format.asprintf "%a" Checker.pp_verdict
                        r.Checker.verdict,
                      r.Checker.rounds,
                      r.Checker.stats.Checker.distinct_keys,
                      Digest.to_hex
                        (Digest.string
                           (Format.asprintf "%a" Radio_sim.Trace.pp
                              r.Checker.trace)) ))
                (Machine.names @ Mutant.names))
            configs
        in
        Alcotest.(check (list string))
          "verdict, rounds, keys, trace digest"
          (List.map row protocol_golden)
          seen);
  ]

(* --- Differential oracle --------------------------------------------- *)

let oracle_tests =
  [
    Alcotest.test_case "MC agrees with the classifier (n <= 4, replayed)"
      `Slow
      (fun () ->
        let r = Oracle.run ~max_n:4 ~max_span:2 ~replay:true () in
        check_int "exhaustive universe" 434 r.Oracle.configurations;
        check "feasible configs exist" true (r.Oracle.feasible > 0);
        check "infeasible configs exist" true (r.Oracle.infeasible > 0);
        (match r.Oracle.disagreements with
        | [] -> ()
        | d :: _ ->
            Alcotest.failf "disagreement: %a" Oracle.pp_disagreement d);
        check "consistent" true (Oracle.consistent r));
    Alcotest.test_case "verify on the analysis = literal-built verify (n <= 5)"
      `Quick
      (fun () ->
        (* The literal run is the oracle: it compiles the machine and
           judges the verdict on the other side. *)
        List.iter
          (fun (_, _, configs) ->
            List.iter
              (fun c ->
                let literal = Cl.classify c in
                let expected =
                  Checker.verify
                    ~machine:(Machine.drip (Election.Canonical.plan_of_run literal))
                    (Fe.analyze_run literal)
                in
                let got = Checker.verify (Fe.analyze c) in
                let what = Format.asprintf "%a" C.pp c in
                check ("machine " ^ what) true
                  (String.equal got.Checker.machine_name
                     expected.Checker.machine_name);
                check ("verdict " ^ what) true
                  (got.Checker.verdict = expected.Checker.verdict);
                check ("trace " ^ what) true
                  (Checker.trace_equal got.Checker.trace expected.Checker.trace);
                check ("stats " ^ what) true
                  (got.Checker.stats = expected.Checker.stats
                  && got.Checker.rounds = expected.Checker.rounds))
              configs)
          (Election.Census.universe ~max_n:5 ~max_span:2));
  ]

let () =
  Alcotest.run "mc"
    [
      ("state", state_tests);
      ("symmetry", symmetry_tests);
      ("verify", verify_tests);
      ("mutants", mutant_tests);
      ("packed", packed_tests);
      ("visited-edges", visited_edge_tests);
      ("explore", explore_tests);
      ("golden", golden_tests @ protocol_golden_tests);
      ("oracle", oracle_tests);
    ]
