(* Tests for the optimal symmetry-breaking-time search: exact agreement
   with the paper's lower bounds on H_m, Never on infeasible inputs,
   consistency with the canonical DRIP's measured separation, and outcome
   equality with a direct set-based search. *)

module C = Radio_config.Config
module F = Radio_config.Families
module G = Radio_graph.Graph
module Gen = Radio_graph.Gen
module O = Radio_mc.Optimal

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let broken_at = function
  | O.Broken_at r -> r
  | O.Never -> Alcotest.fail "unexpected Never"
  | O.Not_within_horizon -> Alcotest.fail "unexpected horizon exhaustion"
  | O.Search_budget_exhausted -> Alcotest.fail "unexpected budget exhaustion"

let test_h_family_matches_lemma_4_2 () =
  (* Lemma 4.2: every election algorithm for H_m needs at least m rounds;
     the search shows m is exactly achievable - the bound is tight. *)
  for m = 1 to 5 do
    check_int (Printf.sprintf "H_%d optimal = m" m) m
      (broken_at (O.breaking_time (F.h_family m)))
  done

let test_trivial_cases () =
  (* A lone tag-0 node among sleepers separates at round 0. *)
  check_int "two_cells" 0 (broken_at (O.breaking_time (F.two_cells ())));
  check_int "staircase" 0 (broken_at (O.breaking_time (F.staircase_clique 4)));
  check_int "single node" 0
    (broken_at (O.breaking_time (C.create (G.empty 1) [| 0 |])))

let test_infeasible_never () =
  List.iter
    (fun config -> check "Never" true (O.breaking_time config = O.Never))
    [
      F.s_family 2;
      F.symmetric_pair ();
      C.uniform (Gen.cycle 4) 0;
    ]

let test_optimal_le_canonical () =
  (* The canonical DRIP cannot separate earlier than the optimum. *)
  List.iter
    (fun config ->
      match (O.breaking_time config, O.canonical_breaking_time config) with
      | O.Broken_at opt, Some can ->
          check "optimal <= canonical separation" true (opt <= can)
      | _ -> Alcotest.fail "expected both measurements")
    [ F.h_family 2; F.h_family 4; F.two_cells (); F.staircase_clique 3 ]

let test_canonical_separation_le_completion () =
  (* Separation happens no later than the canonical election completes. *)
  let config = F.h_family 3 in
  let a = Election.Feasibility.analyze config in
  let r = Option.get (Election.Feasibility.verify_by_simulation a) in
  match
    (O.canonical_breaking_time config, r.Radio_sim.Runner.rounds_to_elect)
  with
  | Some sep, Some total -> check "sep <= total" true (sep <= total)
  | _ -> Alcotest.fail "expected measurements"

let test_budget_exhaustion_reported () =
  (* A tiny state budget on a non-trivial feasible instance gives up
     explicitly rather than looping. *)
  match O.breaking_time ~max_states:1 (F.h_family 4) with
  | O.Search_budget_exhausted | O.Broken_at _ ->
      (* Broken_at is possible if separation occurs before the budget
         check; both are acceptable terminations. *)
      check "terminates" true true
  | O.Never | O.Not_within_horizon -> Alcotest.fail "wrong outcome"

let test_horizon_reported () =
  (* With a horizon below the optimum, the search reports it. *)
  match O.breaking_time ~horizon:1 (F.h_family 3) with
  | O.Not_within_horizon -> check "horizon" true true
  | _ -> Alcotest.fail "expected horizon exhaustion"

let test_small_census_consistency () =
  (* On a sample of the small universe: feasible => optimal breaking time
     exists and is <= the canonical separation round. *)
  List.iter
    (fun (n, _, configs) ->
      if n = 3 then
        List.iter
          (fun config ->
            match O.breaking_time config with
            | O.Broken_at opt -> (
                match O.canonical_breaking_time config with
                | Some can -> check "opt <= canonical" true (opt <= can)
                | None -> Alcotest.fail "canonical should terminate")
            | O.Never ->
                check "classifier agrees" false
                  (Election.Feasibility.is_feasible config)
            | O.Not_within_horizon | O.Search_budget_exhausted ->
                Alcotest.fail "search should resolve tiny instances")
          configs)
    (Election.Census.universe ~max_n:3 ~max_span:2)

(* The direct search, kept as an oracle for the explorer-backed one: per
   round, every frontier state is expanded by every subset of its awake
   history classes; a separated successor ends the search at that round,
   the rest dedup into the next frontier (within the level only), and the
   state budget is checked at the start of each level.  A history key is
   a first-seen id for (parent key, event), 0 being the asleep history. *)
module Oracle = struct
  type event = Silence | Msg of int | Noise | Wake_silent | Wake_msg of int

  module States = Set.Make (struct
    type t = int array

    let compare = compare
  end)

  let separated keys =
    let n = Array.length keys in
    let unique v =
      keys.(v) <> 0
      && Seq.for_all
           (fun w -> w = v || keys.(w) <> keys.(v))
           (Seq.init n Fun.id)
    in
    Seq.exists unique (Seq.init n Fun.id)

  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun t -> x :: t) s

  let breaking_time ?(horizon = 24) ?(max_states = 200_000) config =
    let config = C.create (C.graph config) (C.tags config) in
    let g = C.graph config in
    let n = C.size config in
    let ids = Hashtbl.create 64 in
    let get parent ev =
      match Hashtbl.find_opt ids (parent, ev) with
      | Some k -> k
      | None ->
          let k = Hashtbl.length ids + 1 in
          Hashtbl.add ids (parent, ev) k;
          k
    in
    let step keys round transmitting =
      let is_tx v = keys.(v) <> 0 && List.mem keys.(v) transmitting in
      let senders v =
        G.fold_neighbours g v ~init:[] ~f:(fun acc w ->
            if is_tx w then keys.(w) :: acc else acc)
      in
      Array.init n (fun v ->
          if keys.(v) <> 0 then
            get keys.(v)
              (if is_tx v then Silence
               else
                 match senders v with
                 | [] -> Silence
                 | [ c ] -> Msg c
                 | _ -> Noise)
          else
            match senders v with
            | [ c ] -> get 0 (Wake_msg c)
            | _ -> if C.tag config v = round then get 0 Wake_silent else 0)
    in
    let explored = ref 0 in
    let rec bfs round frontier =
      if States.is_empty frontier || round > horizon then O.Not_within_horizon
      else if !explored > max_states then O.Search_budget_exhausted
      else begin
        let broken = ref false in
        let expand keys next =
          let classes =
            List.sort_uniq Int.compare
              (List.filter (fun k -> k <> 0) (Array.to_list keys))
          in
          List.fold_left
            (fun next transmitting ->
              let keys' = step keys round transmitting in
              if separated keys' then begin
                broken := true;
                next
              end
              else if States.mem keys' next then next
              else begin
                incr explored;
                States.add keys' next
              end)
            next (subsets classes)
        in
        let next = States.fold expand frontier States.empty in
        if !broken then O.Broken_at round else bfs (round + 1) next
      end
    in
    if not (Election.Feasibility.is_feasible config) then O.Never
    else bfs 0 (States.singleton (Array.make n 0))
end

let pp_outcome = function
  | O.Broken_at r -> Printf.sprintf "broken at %d" r
  | O.Never -> "never"
  | O.Not_within_horizon -> "horizon"
  | O.Search_budget_exhausted -> "budget"

(* The default search, tight state budgets (the families exhaust them)
   and a short horizon. *)
let settings = [ (None, None); (None, Some 10); (None, Some 1_000); (Some 2, None) ]

let check_same name config =
  List.iter
    (fun (horizon, max_states) ->
      let show = Option.fold ~none:"default" ~some:string_of_int in
      Alcotest.(check string)
        (Printf.sprintf "%s, horizon %s, budget %s" name (show horizon)
           (show max_states))
        (pp_outcome (Oracle.breaking_time ?horizon ?max_states config))
        (pp_outcome (O.breaking_time ?horizon ?max_states config)))
    settings

let test_differential_families () =
  List.iter
    (fun (name, config) -> check_same name config)
    (List.init 5 (fun i -> (Printf.sprintf "H_%d" (i + 1), F.h_family (i + 1)))
    @ List.init 3 (fun i ->
          (Printf.sprintf "G_%d" (i + 2), F.g_family (i + 2))))

let test_differential_universe () =
  (* every connected graph on n <= 5 nodes x every normalized tag vector
     of span <= 2 *)
  let universe =
    List.concat_map
      (fun (_, _, configs) -> configs)
      (Election.Census.universe ~max_n:5 ~max_span:2)
  in
  check_int "universe size" 4_865 (List.length universe);
  List.iteri
    (fun i config -> check_same (Printf.sprintf "configuration %d" i) config)
    universe

let () =
  Alcotest.run "optimal"
    [
      ( "breaking-time",
        [
          Alcotest.test_case "H_m = Lemma 4.2 bound" `Quick
            test_h_family_matches_lemma_4_2;
          Alcotest.test_case "trivial cases" `Quick test_trivial_cases;
          Alcotest.test_case "infeasible => Never" `Quick test_infeasible_never;
          Alcotest.test_case "optimal <= canonical" `Quick
            test_optimal_le_canonical;
          Alcotest.test_case "separation <= completion" `Quick
            test_canonical_separation_le_completion;
          Alcotest.test_case "budget reported" `Quick
            test_budget_exhaustion_reported;
          Alcotest.test_case "horizon reported" `Quick test_horizon_reported;
          Alcotest.test_case "census consistency" `Slow
            test_small_census_consistency;
        ] );
      ( "differential",
        [
          Alcotest.test_case "H_1..H_5, G_2..G_4 = direct search" `Quick
            test_differential_families;
          Alcotest.test_case "n <= 5 universe = direct search" `Slow
            test_differential_universe;
        ] );
    ]
