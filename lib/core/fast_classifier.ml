module Config = Radio_config.Config
module G = Radio_graph.Graph

(* Keys are (previous class, label); OCaml's structural hashing and equality
   on [Label.t] values agree with [Label.equal] because labels are
   canonically sorted lists of flat records. *)
module Key = struct
  type t = int * Label.t

  let equal (c1, l1) (c2, l2) = c1 = c2 && Label.equal l1 l2
  let hash = Hashtbl.hash
end

module Tbl = Hashtbl.Make (Key)

(* Members of a class [c] with [kept c] keep [c] without a table lookup:
   sound when they all carry their representative's label. *)
let refine ~kept ~old_class ~labels ~num_classes ~reps =
  let n = Array.length old_class in
  let table = Tbl.create 64 in
  (* Seed with the previous representatives: a node matching (k, label of
     rep_k) keeps class number k, as in the paper's Refine. *)
  Array.iteri
    (fun i rep ->
      if not (kept (i + 1)) then
        Tbl.replace table (old_class.(rep), labels.(rep)) (i + 1))
    reps;
  let new_class = Array.copy old_class in
  let num = ref num_classes in
  let new_reps = ref [] in
  for v = 0 to n - 1 do
    if not (kept old_class.(v)) then begin
      let key = (old_class.(v), labels.(v)) in
      match Tbl.find_opt table key with
      | Some k -> new_class.(v) <- k
      | None ->
          incr num;
          Tbl.replace table key !num;
          new_class.(v) <- !num;
          new_reps := v :: !new_reps
    end
  done;
  let reps_out = Array.make !num 0 in
  Array.blit reps 0 reps_out 0 (Array.length reps);
  List.iteri
    (fun i v -> reps_out.(!num - 1 - i) <- v)
    !new_reps;
  (new_class, !num, reps_out)

let refine_with_table = refine ~kept:(fun _ -> false)

type memo = {
  previous : Classifier.run;
  dirty : int list;
}

type cost = {
  computed : int;
  reused : int;
}

(* The one refinement kernel.  The label of [v] at iteration [k] is a
   function of the configuration and of the classes of [v] and of its
   neighbours in [P_{k-1}].  So it equals [v]'s label at iteration [k - 1]
   unless one of those classes moved at [k - 1], and it equals the memo's
   label at iteration [k] unless [v] is structurally dirty or one of those
   classes differs from the memo's [P_{k-1}].  Only a node failing both
   tests gets a fresh label; the others share the label value already
   built.  Refinement numbers classes exactly as [refine_with_table], so
   the run is bit-identical to the literal one. *)
let kernel ?memo config =
  let config =
    if Config.is_normalized config then config
    else Config.create (Config.graph config) (Config.tags config)
  in
  let n = Config.size config in
  (* radiolint: allow partiality — n > 0: anorad and serve refuse it at load *)
  if n = 0 then invalid_arg "Fast_classifier.classify: empty configuration";
  let g = Config.graph config in
  let max_iters = (n + 1) / 2 in
  (* σ appears in every label slot: a memo of another span (or size) has
     nothing to offer. *)
  let memo_its, struct_dirty =
    match memo with
    | Some { previous = { config = c; iterations; _ }; dirty }
      when Config.size c = n && Config.span c = Config.span config ->
        let sd = Array.make n false in
        List.iter (fun v -> sd.(v) <- true) dirty;
        (Array.of_list iterations, sd)
    | Some _ | None -> ([||], [||])
  in
  let computed = ref 0 in
  (* [moved_mark.(v) = k] ([memo_mark.(v) = k]): an input of [v]'s label
     at iteration [k] differs from iteration [k - 1]'s (from the memo's). *)
  let moved_mark = Array.make n 0 and memo_mark = Array.make n 0 in
  (* [split_mark.(c) = k]: class [c] of [P_{k-1}] holds a node whose label
     was not shared from iteration [k - 1], so it may split at [k]. *)
  let split_mark = Array.make (n + 1) 0 in
  let labels_at k ~class_of ~prev =
    let from_memo =
      if k > Array.length memo_its then None
      else begin
        let m = memo_its.(k - 1) in
        for v = 0 to n - 1 do
          if class_of.(v) <> m.Classifier.old_class.(v) then begin
            memo_mark.(v) <- k;
            G.iter_neighbours g v ~f:(fun w -> memo_mark.(w) <- k)
          end
        done;
        Some m.Classifier.labels
      end
    in
    let fresh v =
      match from_memo with
      | Some ml when (not struct_dirty.(v)) && memo_mark.(v) <> k -> ml.(v)
      | Some _ | None ->
          incr computed;
          Partition.compute_label config ~class_of v
    in
    match prev with
    | None -> Array.init n fresh
    | Some (labels, moved) ->
        let out = Array.copy labels in
        let touch v =
          if moved_mark.(v) <> k then begin
            moved_mark.(v) <- k;
            split_mark.(class_of.(v)) <- k;
            out.(v) <- fresh v
          end
        in
        List.iter
          (fun v ->
            touch v;
            G.iter_neighbours g v ~f:touch)
          moved;
        out
  in
  let rec iterate k ~class_of ~num_classes ~reps ~prev acc =
    if k > max_iters then
      (* radiolint: allow partiality — Lemma 3.4: at most ⌈n/2⌉ iterations *)
      invalid_arg "Fast_classifier.classify: exceeded ⌈n/2⌉ iterations"
    else begin
      let labels = labels_at k ~class_of ~prev in
      (* A class whose members all kept their previous label keeps its
         members: they shared one label at [k - 1], its representative
         among them. *)
      let kept c = k > 1 && split_mark.(c) <> k in
      let new_class, new_num, new_reps =
        refine ~kept ~old_class:class_of ~labels ~num_classes ~reps
      in
      let it =
        {
          Classifier.index = k;
          old_class = class_of;
          labels;
          new_class;
          num_classes = new_num;
          reps = new_reps;
        }
      in
      let acc = it :: acc in
      match Partition.singleton_class ~num_classes:new_num new_class with
      | Some m -> (List.rev acc, Classifier.Feasible { singleton_class = m })
      | None when new_num = num_classes -> (List.rev acc, Classifier.Infeasible)
      | None ->
          (* Surviving classes keep their number, so a node moved exactly
             when it landed in a class this refinement opened. *)
          let moved = ref [] in
          for v = n - 1 downto 0 do
            if new_class.(v) > num_classes then moved := v :: !moved
          done;
          iterate (k + 1) ~class_of:new_class ~num_classes:new_num
            ~reps:new_reps ~prev:(Some (labels, !moved)) acc
    end
  in
  let iterations, verdict =
    iterate 1 ~class_of:(Array.make n 1) ~num_classes:1 ~reps:[| 0 |]
      ~prev:None []
  in
  ( { Classifier.config; iterations; verdict },
    {
      computed = !computed;
      reused = (n * List.length iterations) - !computed;
    } )

let classify config = fst (kernel config)
