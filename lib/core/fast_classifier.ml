module Config = Radio_config.Config
module G = Radio_graph.Graph

(* Refine's table: open addressing over a node's (previous class, label)
   key, in two int arrays — [holder.(s)] is the first node holding the
   key plus one (0: an empty slot) and [cls.(s)] its new class — with
   the [filled] slots listed in [used], so clearing costs what filling
   did.  It starts small and doubles past half full, so it stays in the
   minor heap unless an iteration has many classes.  A kernel call owns
   one; refinement runs in pool tasks, so nothing is shared between
   calls. *)
type table = {
  mutable holder : int array;
  mutable cls : int array;
  mutable used : int array;
  mutable filled : int;
  mutable mask : int;
}

let table_of_size size =
  {
    holder = Array.make size 0;
    cls = Array.make size 0;
    used = Array.make (size / 2) 0;
    filled = 0;
    mask = size - 1;
  }

let new_table () = table_of_size 32

(* Members of a class [c] with [kept c] keep [c] without a table lookup:
   sound when they all carry their representative's label. *)
let refine t ~kept ~old_class ~labels ~num_classes ~reps =
  let n = Array.length old_class in
  let hash v = Label.hash_key old_class.(v) labels.(v) in
  (* The slot holding [v]'s key, or the empty slot where it goes. *)
  let rec probe v s =
    let h = t.holder.(s) in
    if
      h = 0
      || old_class.(h - 1) = old_class.(v)
         && Label.equal labels.(h - 1) labels.(v)
    then s
    else probe v ((s + 1) land t.mask)
  in
  let slot v = probe v (hash v land t.mask) in
  let grow () =
    let g = table_of_size (2 * (t.mask + 1)) in
    for i = 0 to t.filled - 1 do
      let s = t.used.(i) in
      let h = t.holder.(s) in
      let rec empty s = if g.holder.(s) = 0 then s else empty ((s + 1) land g.mask) in
      let s' = empty (hash (h - 1) land g.mask) in
      g.holder.(s') <- h;
      g.cls.(s') <- t.cls.(s);
      g.used.(i) <- s'
    done;
    t.holder <- g.holder;
    t.cls <- g.cls;
    t.used <- g.used;
    t.mask <- g.mask
  in
  let add s v c =
    t.holder.(s) <- v + 1;
    t.cls.(s) <- c;
    t.used.(t.filled) <- s;
    t.filled <- t.filled + 1;
    if 2 * t.filled > t.mask then grow ()
  in
  (* Seed with the previous representatives: a node matching (k, label of
     rep_k) keeps class number k, as in the paper's Refine. *)
  Array.iteri
    (fun i rep -> if not (kept (i + 1)) then add (slot rep) rep (i + 1))
    reps;
  let new_class = Array.copy old_class in
  let num = ref num_classes in
  for v = 0 to n - 1 do
    if not (kept old_class.(v)) then begin
      let s = slot v in
      if t.holder.(s) <> 0 then new_class.(v) <- t.cls.(s)
      else begin
        incr num;
        add s v !num;
        new_class.(v) <- !num
      end
    end
  done;
  (* A new class is represented by its first holder; clearing the table
     reads them off. *)
  let reps_out = Array.make !num 0 in
  Array.blit reps 0 reps_out 0 (Array.length reps);
  for i = 0 to t.filled - 1 do
    let s = t.used.(i) in
    if t.cls.(s) > num_classes then reps_out.(t.cls.(s) - 1) <- t.holder.(s) - 1;
    t.holder.(s) <- 0
  done;
  t.filled <- 0;
  (new_class, !num, reps_out)

let refine_with_table ~old_class ~labels ~num_classes ~reps =
  refine (new_table ()) ~kept:(fun _ -> false) ~old_class ~labels ~num_classes
    ~reps

type memo = {
  previous : Classifier.run;
  dirty : int list;
  remap : int array;
}

type cost = {
  computed : int;
  reused : int;
}

(* The keys [buf.(0 .. d-1)] ascending, in the first [d] cells of the
   result: sorted in place by insertion when there are few, else a sorted
   copy (the stdlib merge sort, O(d log d)). *)
let sorted_keys buf d =
  if d > 32 then begin
    let keys = Array.sub buf 0 d in
    Array.stable_sort Int.compare keys;
    keys
  end
  else begin
    for i = 1 to d - 1 do
      let x = buf.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && buf.(!j) > x do
        buf.(!j + 1) <- buf.(!j);
        decr j
      done;
      buf.(!j + 1) <- x
    done;
    buf
  end

(* [Partition.compute_label] without its lists and sort: a relevant
   neighbour's (class, slot) pair goes into an int buffer as
   [class·(2σ+2) + slot] (slots are [1 .. 2σ+1], so the ints order as the
   pairs do), sorted, and runs of equal ints become the label's triples.
   The buffer belongs to one kernel call.  A span too large to pack falls
   back to the list version. *)
let label_builder config =
  let g = Config.graph config in
  let n = Config.size config in
  let sigma = Config.span config in
  let tags = Config.tags config in
  let width = (2 * sigma) + 2 in
  if sigma >= max_int / (2 * (n + 2)) then fun ~class_of v ->
    Partition.compute_label config ~class_of v
  else begin
    let buf = Array.make (G.max_degree g) 0 in
    (* the node being labelled: its partition, class and tag *)
    let len = ref 0 and part = ref [||] and cv = ref 0 and tv = ref 0 in
    let add w =
      let cw = !part.(w) and tw = tags.(w) in
      if cw <> !cv || tw <> !tv then begin
        buf.(!len) <- (cw * width) + sigma + 1 + tw - !tv;
        incr len
      end
    in
    let rec build keys i acc =
      if i < 0 then acc
      else begin
        let key = keys.(i) in
        let j = ref i in
        while !j > 0 && keys.(!j - 1) = key do
          decr j
        done;
        let mark = if !j = i then Label.One else Label.Many in
        build keys (!j - 1)
          ({ Label.block = key / width; slot = key mod width; mark } :: acc)
      end
    in
    fun ~class_of v ->
      part := class_of;
      cv := class_of.(v);
      tv := tags.(v);
      len := 0;
      G.iter_neighbours g v ~f:add;
      let keys = sorted_keys buf !len in
      (* runs from the largest key down, so the list comes out sorted *)
      build keys (!len - 1) []
  end

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
  (* σ appears in every label slot: a memo of another span, or whose
     remap is not over this configuration's nodes, has nothing to offer. *)
  let memo_its, struct_dirty, prev_index =
    match memo with
    | Some { previous = { config = c; iterations; _ }; dirty; remap }
      when Config.span c = Config.span config && Array.length remap = n ->
        let sd = Array.make n false in
        List.iter (fun v -> sd.(v) <- true) dirty;
        (Array.of_list iterations, sd, remap)
    | Some _ | None -> ([||], [||], [||])
  in
  let label_of = label_builder config in
  let table = new_table () in
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
          let pv = prev_index.(v) in
          if pv < 0 || class_of.(v) <> m.Classifier.old_class.(pv) then begin
            memo_mark.(v) <- k;
            G.iter_neighbours g v ~f:(fun w -> memo_mark.(w) <- k)
          end
        done;
        Some m.Classifier.labels
      end
    in
    let fresh v =
      match from_memo with
      | Some ml when (not struct_dirty.(v)) && memo_mark.(v) <> k ->
          ml.(prev_index.(v))
      | Some _ | None ->
          incr computed;
          label_of ~class_of v
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
        refine table ~kept ~old_class:class_of ~labels ~num_classes ~reps
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
