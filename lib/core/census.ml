module C = Radio_config.Config
module Enumerate = Radio_graph.Enumerate
module Engine = Radio_sim.Engine
module Runner = Radio_sim.Runner

type cell = {
  n : int;
  span : int;
  total : int;
  feasible : int;
  disagreements : int;
  impl_mismatches : int;
}

type report = {
  cells : cell list;
  configurations : int;
  all_consistent : bool;
}

let tag_assignments ~n ~span =
  (* Positions are filled from n - 1 (the most significant base-(span + 1)
     digit) down to 0, digits from [span] down to 0, and each finished
     vector is prepended, so the list comes out in ascending order.  A
     branch that can no longer place a missing 0 or [span] is cut, so
     every vector built belongs to the cell. *)
  let tags = Array.make n 0 in
  let rec fill i ~zero ~top acc =
    if i < 0 then if zero && top then Array.copy tags :: acc else acc
    else if Bool.to_int (not zero) + Bool.to_int (not top) > i + 1 then acc
    else
      let rec digits d acc =
        if d < 0 then acc
        else begin
          tags.(i) <- d;
          let acc = fill (i - 1) ~zero:(zero || d = 0) ~top:(top || d = span) acc in
          digits (d - 1) acc
        end
      in
      digits span acc
  in
  fill (n - 1) ~zero:false ~top:(span = 0) []

(* One configuration: classify with both implementations, simulate the
   canonical DRIP, and compare all three verdicts. *)
let audit config =
  let run_ref = Classifier.classify config in
  let run_fast = Fast_classifier.classify config in
  let impl_mismatch =
    Classifier.is_feasible run_ref <> Classifier.is_feasible run_fast
    || Classifier.canonical_leader run_ref <> Classifier.canonical_leader run_fast
  in
  let plan = Canonical.plan_of_run run_ref in
  let o = Engine.run ~max_rounds:1_000_000 (Canonical.protocol plan) config in
  let unique = Runner.unique_history_nodes o in
  let feasible = Classifier.is_feasible run_ref in
  (* Lemma 3.16/3.11: feasible iff the canonical execution separates some
     node; moreover the predicted leader must be among the unique-history
     nodes. *)
  let disagreement =
    (not o.Engine.all_terminated)
    || feasible <> (unique <> [])
    ||
    match Classifier.canonical_leader run_ref with
    | Some v -> not (List.mem v unique)
    | None -> false
  in
  (feasible, disagreement, impl_mismatch)

(* Connected graphs on 1..6 vertices up to isomorphism (OEIS A001349, the
   lengths of [Enumerate.connected_up_to_iso]). *)
let connected_classes = [| 1; 1; 2; 6; 21; 112 |]

let max_configurations = 100_000

(* |graphs(n)| * ((S+1)^n - S^n) summed over n, the difference expanded as
   sum_{k<n} C(n,k) S^k so every term is non-negative; each step
   saturates at [max_configurations + 1], so no span overflows. *)
let universe_size ~max_n ~max_span =
  let cap = max_configurations + 1 in
  let add a b = min cap (a + b) in
  let mul a b = if a = 0 || b <= cap / a then min cap (a * b) else cap in
  let vectors n =
    let rec sum k binom power acc =
      if k = n then acc
      else
        sum (k + 1)
          (binom * (n - k) / (k + 1))
          (mul power max_span)
          (add acc (mul binom power))
    in
    sum 0 1 1 0
  in
  let rec total n acc =
    if n > max_n then acc
    else total (n + 1) (add acc (mul connected_classes.(n - 1) (vectors n)))
  in
  total 1 0

let check_bounds ~max_n ~max_span =
  if max_n < 1 || max_n > 6 then Error "Census.universe: max_n must be in 1..6"
  else if max_span < 0 then Error "Census.universe: max_span must be >= 0"
  (* Every span is a cell, empty or not (at max_n = 1 all but span 0 are
     empty), so the span is bounded as well as the configurations. *)
  else if
    max_span > max_configurations
    || universe_size ~max_n ~max_span > max_configurations
  then
    Error
      (Printf.sprintf
         "Census.universe: max_n %d, max_span %d is over the bound of %d \
          configurations"
         max_n max_span max_configurations)
  else Ok ()

let universe ~max_n ~max_span =
  (match check_bounds ~max_n ~max_span with
  | Ok () -> ()
  (* radiolint: allow partiality — anorad checks the bounds before the run *)
  | Error msg -> invalid_arg msg);
  List.concat_map
    (fun n ->
      let graphs = Enumerate.connected_up_to_iso n in
      List.init (max_span + 1) (fun span ->
          ( n,
            span,
            List.concat_map
              (fun tags -> List.map (fun g -> C.create g tags) graphs)
              (tag_assignments ~n ~span) )))
    (List.init max_n (fun i -> i + 1))

let run ?pool ?(max_n = 4) ?(max_span = 2) () =
  let audit_all =
    (* Each audit is independent; fold the verdicts in submission order so
       the report is byte-identical whatever the jobs level. *)
    match pool with
    | None -> List.map audit
    (* radiolint: allow partiality -- audit only sees configurations the
       enumerator itself produced, so the constructor preconditions hold;
       a raise here is a census bug worth a loud crash *)
    | Some pool -> fun configs -> Radio_exec.Pool.map pool ~f:audit configs
  in
  let cells =
    List.map
      (fun (n, span, configs) ->
        let verdicts = audit_all configs in
        let count p = List.length (List.filter p verdicts) in
        {
          n;
          span;
          total = List.length verdicts;
          feasible = count (fun (feasible, _, _) -> feasible);
          disagreements = count (fun (_, disagreement, _) -> disagreement);
          impl_mismatches = count (fun (_, _, mismatch) -> mismatch);
        })
      (universe ~max_n ~max_span)
  in
  {
    cells;
    configurations = List.fold_left (fun acc c -> acc + c.total) 0 cells;
    all_consistent =
      List.for_all (fun c -> c.disagreements = 0 && c.impl_mismatches = 0) cells;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>census over %d configurations:" r.configurations;
  List.iter
    (fun c ->
      Format.fprintf ppf
        "@ n=%d span=%d: %d configs, %d feasible, %d disagreements, %d impl \
         mismatches"
        c.n c.span c.total c.feasible c.disagreements c.impl_mismatches)
    r.cells;
  Format.fprintf ppf "@ consistent: %b@]" r.all_consistent
