module C = Radio_config.Config

type report = {
  perturbations : int;
  still_feasible : int;
  breaking : (int * int) list;
  fragility : float;
}

let single_tag ?max_tag config =
  if not (Classifier.is_feasible (Fast_classifier.classify config)) then
    (* radiolint: allow partiality — anorad fragility checks feasibility *)
    invalid_arg "Fragility.single_tag: configuration is already infeasible";
  let max_tag = Option.value max_tag ~default:(C.span config + 1) in
  let n = C.size config in
  let total = ref 0 in
  let feasible = ref 0 in
  let breaking = ref [] in
  for v = 0 to n - 1 do
    let old_tag = C.tag config v in
    for new_tag = 0 to max_tag do
      if new_tag <> old_tag then begin
        incr total;
        let tags = C.tags config in
        tags.(v) <- new_tag;
        let perturbed = C.create (C.graph config) tags in
        if Classifier.is_feasible (Fast_classifier.classify perturbed) then
          incr feasible
        else breaking := (v, new_tag) :: !breaking
      end
    done
  done;
  {
    perturbations = !total;
    still_feasible = !feasible;
    breaking = List.rev !breaking;
    fragility =
      (if !total = 0 then 0.0
       else float_of_int (!total - !feasible) /. float_of_int !total);
  }

let pp ppf r =
  Format.fprintf ppf
    "@[<v>fragility: %d/%d single-tag perturbations break feasibility \
     (%.0f%%)"
    (r.perturbations - r.still_feasible)
    r.perturbations (100.0 *. r.fragility);
  if r.breaking <> [] then begin
    Format.fprintf ppf "@ breaking changes:";
    List.iter
      (fun (v, t) -> Format.fprintf ppf "@   node %d -> tag %d" v t)
      r.breaking
  end;
  Format.fprintf ppf "@]"
