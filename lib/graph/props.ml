let bfs_distances g src =
  let n = Graph.size g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    (* radiolint: allow partiality — the loop tests the queue is non-empty *)
    let v = Queue.pop queue in
    Graph.iter_neighbours g v ~f:(fun w ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
  done;
  dist

let connected g =
  let n = Graph.size g in
  n <= 1 || Array.for_all (fun d -> d >= 0) (bfs_distances g 0)

let components g =
  let n = Graph.size g in
  let comp = Array.make n (-1) in
  let k = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) < 0 then begin
      let d = bfs_distances g v in
      Array.iteri (fun w dw -> if dw >= 0 && comp.(w) < 0 then comp.(w) <- !k) d;
      incr k
    end
  done;
  (comp, !k)

let eccentricity g v =
  let dist = bfs_distances g v in
  Array.fold_left
    (fun acc d ->
      if d < 0 then invalid_arg "Props.eccentricity: disconnected graph"
      else max acc d)
    0 dist

let diameter g =
  let n = Graph.size g in
  if n <= 1 then 0
  else
    let best = ref 0 in
    for v = 0 to n - 1 do
      best := max !best (eccentricity g v)
    done;
    !best

let distance_matrix g = Array.init (Graph.size g) (fun v -> bfs_distances g v)

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let d = Graph.degree g v in
      Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
    (Graph.vertices g);
  List.sort compare (Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl [])

let is_regular g =
  match Graph.vertices g with
  | [] -> true
  | v0 :: rest ->
      let d0 = Graph.degree g v0 in
      List.for_all (fun v -> Graph.degree g v = d0) rest

let neighbour_degree_profile g v =
  List.sort compare (List.map (Graph.degree g) (Graph.neighbours g v))

let is_vertex_transitive_candidate g =
  is_regular g
  &&
  match Graph.vertices g with
  | [] -> true
  | v0 :: rest ->
      let p0 = neighbour_degree_profile g v0 in
      List.for_all (fun v -> neighbour_degree_profile g v = p0) rest

let canonical_labelling ~colours g =
  let n = Graph.size g in
  (* New label [i] must hold a vertex of the i-th smallest colour: a
     colour-preserving relabelling can only permute within equal-colour
     groups, which both prunes the search and keeps the colour vector of
     the relabelled graph sorted. *)
  let sorted_colours =
    let a = Array.copy colours in
    Array.sort Int.compare a;
    a
  in
  (* Row i of an assignment is the bitmask of edges from the vertex at
     new label i back to new labels 0 .. i-1.  The canonical labelling is
     the assignment whose row sequence is lexicographically smallest.

     Branch and bound with a committed prefix: [best_rows.(0 ..
     best_len - 1)] is the lexicographically smallest row prefix any
     explored branch has achieved.  A branch whose row at position [i]
     exceeds the committed row is pruned; one that undercuts it commits
     the smaller row and truncates the prefix (deeper positions are
     re-established by this branch's descendants).  A branch can only
     reach a leaf by matching the full committed prefix, so every leaf
     reached holds the minimal row vector found so far — crucially, a
     branch that undercuts at position [i] does NOT get a free pass
     below [i]: its descendants compete against each other through the
     same committed prefix, which keeps the result the true minimum
     (the tests relabel randomly and assert equal forms). *)
  let at = Array.make n (-1) in
  let used = Array.make n false in
  let best_at = Array.make n (-1) in
  let best_rows = Array.make n 0 in
  let best_len = ref 0 in
  let rec place i =
    if i = n then Array.blit at 0 best_at 0 n
    else
      for v = 0 to n - 1 do
        if (not used.(v)) && colours.(v) = sorted_colours.(i) then begin
          let row = ref 0 in
          for j = 0 to i - 1 do
            if Graph.mem_edge g v at.(j) then row := !row lor (1 lsl j)
          done;
          let keep =
            if i >= !best_len || !row < best_rows.(i) then begin
              best_rows.(i) <- !row;
              best_len := i + 1;
              true
            end
            else !row = best_rows.(i)
          in
          if keep then begin
            at.(i) <- v;
            used.(v) <- true;
            place (i + 1);
            used.(v) <- false
          end
        end
      done
  in
  place 0;
  let perm = Array.make n (-1) in
  Array.iteri (fun i v -> perm.(v) <- i) best_at;
  perm
