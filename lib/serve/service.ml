module C = Radio_config.Config
module Fe = Election.Feasibility
module Can = Election.Canonical
module Pool = Radio_exec.Pool

exception Invalid_configuration = C.Invalid_configuration

type counters = {
  mutable classify : int;
  mutable elect : int;
  mutable simulate : int;
  mutable mc_check : int;
  mutable stats : int;
  mutable errors : int;
}

type t = {
  cache : Fe.analysis Cache.t;
  counters : counters;
  mutable hits : int;
  mutable misses : int;
}

let create ~cache_entries =
  {
    cache = Cache.create ~capacity:cache_entries;
    counters =
      { classify = 0; elect = 0; simulate = 0; mc_check = 0; stats = 0; errors = 0 };
    hits = 0;
    misses = 0;
  }

type telemetry = {
  requests : int;
  errors : int;
  by_kind : (string * int) list;
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  cache_capacity : int;
  cache_evictions : int;
}

let telemetry t =
  let c = t.counters in
  {
    requests =
      c.classify + c.elect + c.simulate + c.mc_check + c.stats + c.errors;
    errors = c.errors;
    by_kind =
      [
        ("classify", c.classify);
        ("elect", c.elect);
        ("simulate", c.simulate);
        ("mc-check", c.mc_check);
        ("stats", c.stats);
      ];
    cache_hits = t.hits;
    cache_misses = t.misses;
    cache_entries = Cache.length t.cache;
    cache_capacity = Cache.capacity t.cache;
    cache_evictions = Cache.evictions t.cache;
  }

let hit_rate (tel : telemetry) =
  let total = tel.cache_hits + tel.cache_misses in
  if total = 0 then 0. else float_of_int tel.cache_hits /. float_of_int total

let count t (p : Protocol.parsed) =
  let c = t.counters in
  match p.request with
  | Error _ -> c.errors <- c.errors + 1
  | Ok (Classify _) -> c.classify <- c.classify + 1
  | Ok (Elect _) -> c.elect <- c.elect + 1
  | Ok (Simulate _) -> c.simulate <- c.simulate + 1
  | Ok (Mc_check _) -> c.mc_check <- c.mc_check + 1
  | Ok Stats -> c.stats <- c.stats + 1

(* ------------------------------------------------------------------ *)
(* Renderers: pure functions from (request, canonical analysis) to the
   response line.  These run on worker domains — no cache, no counters. *)

let metrics_fields (m : Radio_sim.Metrics.t) =
  [
    ("transmissions", Json.Int m.transmissions);
    ("deliveries", Json.Int m.deliveries);
    ("collisions_heard", Json.Int m.collisions_heard);
    ("forced_wakeups", Json.Int m.forced_wakeups);
    ("spontaneous_wakeups", Json.Int m.spontaneous_wakeups);
  ]

let int_opt = function Some n -> Json.Int n | None -> Json.Null

(* The analysis describes the canonical relabeling [perm] of the request
   configuration ([perm.(v)] is [v]'s canonical name); node ids in
   responses must be in the request's own labeling. *)
let unrelabel perm canonical_node =
  let n = Array.length perm in
  let u = ref (-1) in
  for v = 0 to n - 1 do
    if perm.(v) = canonical_node then u := v
  done;
  !u

let render_classify ~id (a : Fe.analysis) perm =
  let leader =
    match a.leader with
    | None -> Json.Null
    | Some lc -> Json.Int (unrelabel perm lc)
  in
  Protocol.response_ok ~id ~kind:"classify"
    ~cost:[ ("rounds", Json.Int a.election_local_rounds) ]
    [
      ("feasible", Json.Bool a.feasible);
      ("leader", leader);
      ("iterations", Json.Int (Election.Classifier.num_iterations a.run));
      ("local_rounds", Json.Int a.election_local_rounds);
    ]

(* The canonical DRIP's outcome on the request configuration, read off
   the cached analysis (Lemma 3.9, {!Can.outcome}) when [max_rounds]
   lets the run finish; [None] when it cuts the run off and only the
   engine can tell what the cut leaves.  The run lasts [hi + r_T + 2]
   rounds, which need not fit in an int when tags come near [max_int],
   so [hi] is never summed; and [σ] is checked against [max_rounds] (at
   most 100,000) before [r_T], linear in [σ] and quadratic in [n], is
   computed, so [r_T] cannot wrap either. *)
let derived ~max_rounds (a : Fe.analysis) config =
  let hi = C.max_tag config in
  if
    a.plan.Can.sigma < max_rounds
    && hi <= max_rounds - Can.local_termination_round a.plan - 1
  then Some (Can.outcome a.run a.plan ~hi)
  else None

let render_elect ~id ~max_rounds (a : Fe.analysis) config perm =
  if not a.feasible then
    Protocol.response_ok ~id ~kind:"elect"
      ~cost:[ ("rounds", Json.Int 0); ("bits", Json.Int 0) ]
      [
        ("feasible", Json.Bool false);
        ("elected", Json.Bool false);
        ("leader", Json.Null);
        ("rounds", Json.Null);
      ]
  else begin
    let m, leader, rounds =
      match derived ~max_rounds a config with
      | Some o ->
          ( o.metrics,
            Option.map (unrelabel perm) a.leader,
            Some o.completion_round )
      | None ->
          let r = Radio_sim.Runner.run ~max_rounds (Can.election a.plan) config in
          (r.outcome.metrics, r.leader, r.rounds_to_elect)
    in
    Protocol.response_ok ~id ~kind:"elect"
      ~cost:
        [ ("rounds", Json.Int m.rounds); ("bits", Json.Int m.transmissions) ]
      [
        ("feasible", Json.Bool true);
        ("elected", Json.Bool (leader <> None));
        ("leader", int_opt leader);
        ("rounds", int_opt rounds);
        ("metrics", Json.Obj (metrics_fields m));
      ]
  end

let render_simulate ~id ~max_rounds (a : Fe.analysis) config perm =
  let m, all_terminated, (sizes, unique) =
    match derived ~max_rounds a config with
    | Some o ->
        (* [final_class] is indexed by canonical ids *)
        let classes = Array.map (fun c -> o.final_class.(c)) perm in
        (o.metrics, true, Radio_sim.Runner.class_summary classes)
    | None ->
        let o = Radio_sim.Engine.run ~max_rounds (Can.protocol a.plan) config in
        (o.metrics, o.all_terminated, Radio_sim.Runner.history_summary o)
  in
  Protocol.response_ok ~id ~kind:"simulate"
    ~cost:[ ("rounds", Json.Int m.rounds); ("bits", Json.Int m.transmissions) ]
    [
      ("rounds", Json.Int m.rounds);
      ("all_terminated", Json.Bool all_terminated);
      ("class_sizes", Json.List (List.map (fun s -> Json.Int s) sizes));
      ("unique_nodes", Json.List (List.map (fun v -> Json.Int v) unique));
      ("metrics", Json.Obj (metrics_fields m));
    ]

let verdict_json (v : Radio_mc.Checker.verdict) =
  match v with
  | Elected { leader; round } ->
      Json.Obj
        [
          ("kind", Json.Str "elected");
          ("leader", Json.Int leader);
          ("round", Json.Int round);
        ]
  | Non_election { classes } ->
      Json.Obj
        [
          ("kind", Json.Str "non-election");
          ( "classes",
            Json.List
              (List.map
                 (fun cls -> Json.List (List.map (fun v -> Json.Int v) cls))
                 classes) );
        ]
  | Violated violation ->
      Json.Obj
        [
          ("kind", Json.Str "violated");
          ("violation", Json.Str (Radio_mc.Checker.violation_id violation));
          ( "detail",
            Json.Str
              (Format.asprintf "%a" Radio_mc.Checker.pp_violation violation) );
        ]
  | Exhausted budget ->
      Json.Obj
        [
          ("kind", Json.Str "exhausted");
          ( "budget",
            Json.Str (match budget with `Depth -> "depth" | `States -> "states")
          );
        ]

(* Rewrite canonical node ids inside a verdict into the request's own
   labeling, so mc-check agrees with classify/elect on which node leads. *)
let unrelabel_verdict perm (v : Radio_mc.Checker.verdict) =
  let back = unrelabel perm in
  let back_list vs = List.sort Int.compare (List.map back vs) in
  match v with
  | Elected { leader; round } -> Radio_mc.Checker.Elected { leader = back leader; round }
  | Non_election { classes } ->
      let rec cmp_list a b =
        match (a, b) with
        | [], [] -> 0
        | [], _ -> -1
        | _, [] -> 1
        | x :: xs, y :: ys -> (
            match Int.compare x y with 0 -> cmp_list xs ys | c -> c)
      in
      Non_election { classes = List.sort cmp_list (List.map back_list classes) }
  | Violated violation ->
      let violation : Radio_mc.Checker.violation =
        match violation with
        | Two_leaders vs -> Two_leaders (back_list vs)
        | No_leader_on_feasible -> No_leader_on_feasible
        | Leader_on_infeasible { leader } ->
            Leader_on_infeasible { leader = back leader }
        | Wrong_leader { elected; canonical } ->
            Wrong_leader { elected = back elected; canonical = back canonical }
        | Liveness_bound_exceeded _ as v -> v
      in
      Violated violation
  | Exhausted _ as v -> v

(* Runs on the canonical representative (node ids mapped back through
   [perm]) so the daemon's five request kinds agree with each other: the
   machine is compiled from, and the verdict judged against, the cached
   analysis of that representative, and the classifier's leader choice is
   labeling-sensitive (docs/SERVE.md, "Canonical routing"). *)
let render_mc ~id ~protocol ~depth ~states (a : Fe.analysis) perm =
  let machine =
    match Radio_mc.Machine.of_name a.plan protocol with
    | Some m -> Some m
    | None -> Radio_mc.Mutant.of_name a.plan protocol
  in
  match machine with
  | None ->
      (* The name list was validated at parse time; reaching here means the
         registry rejected it for this specific configuration. *)
      Protocol.response_error ~id
        {
          message =
            Printf.sprintf "protocol %S not available for this configuration"
              protocol;
          column = None;
        }
  | Some machine ->
      (* Without an explicit depth the checker's own bound still grows as
         n^2 σ; a request never runs more than [max_mc_depth] rounds. *)
      let depth =
        match depth with
        | Some d -> d
        | None ->
            min Protocol.max_mc_depth
              (Radio_mc.Checker.default_depth a.run.Election.Classifier.config)
      in
      let res = Radio_mc.Checker.verify ~depth ?states ~machine a in
      Protocol.response_ok ~id ~kind:"mc-check"
        ~cost:
          [
            ("rounds", Json.Int res.rounds);
            ("states", Json.Int res.stats.states_explored);
          ]
        [
          ("machine", Json.Str res.machine_name);
          ("verdict", verdict_json (unrelabel_verdict perm res.verdict));
          ("rounds", Json.Int res.rounds);
          ("states_explored", Json.Int res.stats.states_explored);
          ("distinct_keys", Json.Int res.stats.distinct_keys);
        ]

let render_stats ~id tel =
  Protocol.response_ok ~id ~kind:"stats"
    [
      ( "requests",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) tel.by_kind) );
      ("errors", Json.Int tel.errors);
      ("total", Json.Int tel.requests);
    ]

(* ------------------------------------------------------------------ *)
(* Wave pipeline                                                      *)

(* Everything a worker needs, materialized on the caller so task closures
   never reach back into the service. *)
type work =
  | Ready of string  (* errors and stats: rendered on the caller *)
  | Run of {
      id : Json.t;
      req : Protocol.request;
      analysis : (Fe.analysis, string) result;
      perm : int array;
    }

let internal_error ~id msg =
  Protocol.response_error ~id
    { message = "internal: " ^ msg; column = None }

let render = function
  | Ready s -> s
  | Run { id; req; analysis; perm } -> (
      try
        match (req, analysis) with
        | _, Error msg -> internal_error ~id msg
        | Protocol.Classify _, Ok a -> render_classify ~id a perm
        | Protocol.Elect { config; max_rounds }, Ok a ->
            render_elect ~id ~max_rounds a config perm
        | Protocol.Simulate { config; max_rounds }, Ok a ->
            render_simulate ~id ~max_rounds a config perm
        | Protocol.Mc_check { protocol; depth; states; _ }, Ok a ->
            render_mc ~id ~protocol ~depth ~states a perm
        | Protocol.Stats, Ok _ -> internal_error ~id "request/analysis mismatch"
      with
      | Failure msg -> internal_error ~id msg
      | Invalid_argument msg -> internal_error ~id msg
      | Invalid_configuration msg -> internal_error ~id msg
      | Not_found -> internal_error ~id "lookup failed")

let analyze_canonical canon =
  match Fe.analyze canon with
  | a -> Ok a
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg
  | exception C.Invalid_configuration msg -> Error msg

(* Stage 1's per-request part, run on the pool: the canonical
   representative, its raw key and the permutation onto it. *)
let key_request (p : Protocol.parsed) =
  match p.request with
  | Error _ | Ok Protocol.Stats -> None
  | Ok
      ( Protocol.Classify { config }
      | Protocol.Elect { config; _ }
      | Protocol.Simulate { config; _ }
      | Protocol.Mc_check { config; _ } ) ->
      let canon, perm = Can.canonical_form config in
      Some (Can.raw_key canon, canon, perm)

let process_wave t ~pool (wave : Protocol.parsed array) =
  Array.iter (count t) wave;
  (* Stage 1: canonical forms and keys on the pool; resolve every
     distinct key against the cache in request order on the caller;
     analyze the misses in parallel. *)
  let prep = Pool.map_array pool ~f:key_request wave in
  let resolved : (string, (Fe.analysis, string) result) Hashtbl.t =
    Hashtbl.create 16
  in
  let pending = Hashtbl.create 16 in
  let missing = ref [] in
  Array.iteri
    (fun i prep_i ->
      match (prep_i, wave.(i).Protocol.request) with
      | Some (key, canon, _perm), Ok _ ->
          if Hashtbl.mem resolved key || Hashtbl.mem pending key then
            t.hits <- t.hits + 1
          else (
            match Cache.find t.cache key with
            | Some a ->
                t.hits <- t.hits + 1;
                Hashtbl.replace resolved key (Ok a)
            | None ->
                t.misses <- t.misses + 1;
                Hashtbl.replace pending key ();
                missing := (key, canon) :: !missing)
      | _ -> ())
    prep;
  let missing = Array.of_list (List.rev !missing) in
  let computed = Pool.map_array pool ~f:(fun (_, canon) -> analyze_canonical canon) missing in
  Array.iteri
    (fun i (key, _) ->
      (match computed.(i) with
      | Ok a -> Cache.add t.cache key a
      | Error _ -> ());
      Hashtbl.replace resolved key computed.(i))
    missing;
  (* Stage 2: build self-contained work items, render in parallel. *)
  let tel = telemetry t in
  let work =
    Array.mapi
      (fun i (p : Protocol.parsed) ->
        match p.request with
        | Error e -> Ready (Protocol.response_error ~id:p.id e)
        | Ok Protocol.Stats -> Ready (render_stats ~id:p.id tel)
        | Ok req -> (
            match prep.(i) with
            | Some (key, _, perm) ->
                (* radiolint: allow partiality — the loop above resolved it *)
                Run { id = p.id; req; analysis = Hashtbl.find resolved key; perm }
            | None -> Ready (internal_error ~id:p.id "request/analysis mismatch")))
      wave
  in
  Pool.map_array pool ~f:render work
