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

let tag_assignments ~n ~max_span =
  (* Count in base (max_span + 1); keep vectors containing at least one 0. *)
  let base = max_span + 1 in
  let rec build v acc =
    if v < 0 then acc
    else
      let tags = Array.make n 0 in
      let rec fill i x =
        if i < n then begin
          tags.(i) <- x mod base;
          fill (i + 1) (x / base)
        end
      in
      fill 0 v;
      if Array.exists (fun t -> t = 0) tags then build (v - 1) (Array.copy tags :: acc)
      else build (v - 1) acc
  in
  let count = int_of_float (float_of_int base ** float_of_int n) in
  build (count - 1) []

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

let universe ~max_n ~max_span =
  if max_n < 1 || max_n > 6 then invalid_arg "Census.universe: max_n must be in 1..6";
  if max_span < 0 then invalid_arg "Census.universe: max_span must be >= 0";
  List.concat_map
    (fun n ->
      let graphs = Enumerate.connected_up_to_iso n in
      List.init (max_span + 1) (fun span ->
          (* Assignments whose actual span is exactly [span]. *)
          let assignments =
            List.filter
              (fun tags -> Array.fold_left max 0 tags = span)
              (tag_assignments ~n ~max_span:span)
          in
          ( n,
            span,
            List.concat_map
              (fun tags -> List.map (fun g -> C.create g tags) graphs)
              assignments )))
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
