module C = Radio_config.Config
module G = Radio_graph.Graph

type certificate = int array

let is_permutation n perm =
  Array.length perm = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun p ->
      if p < 0 || p >= n || seen.(p) then false
      else begin
        seen.(p) <- true;
        true
      end)
    perm

let is_certificate config perm =
  let g = C.graph config in
  let n = C.size config in
  is_permutation n perm
  && Array.for_all (fun v -> perm.(v) <> v) (Array.init n Fun.id)
  && Array.for_all
       (fun v -> C.tag config (perm.(v)) = C.tag config v)
       (Array.init n Fun.id)
  && List.for_all
       (fun (u, v) -> G.mem_edge g perm.(u) perm.(v))
       (G.edges g)

exception Found of int array
exception Budget

(* The one backtracking search: assign images node by node in order; a
   candidate image must share tag and degree, be unused, respect
   adjacency with every previously assigned node and, when [moves_all],
   differ from the node itself.  [leaf] sees every completed assignment
   in lexicographic order and may raise [Found] to stop; past [budget]
   search nodes the search raises [Budget]. *)
let backtrack ~budget ~moves_all config leaf =
  let g = C.graph config in
  let n = C.size config in
  let image = Array.make n (-1) in
  let used = Array.make n false in
  let steps = ref 0 in
  let compatible v w =
    ((not moves_all) || w <> v)
    && (not used.(w))
    && C.tag config v = C.tag config w
    && G.degree g v = G.degree g w
    &&
    (* adjacency with already-assigned vertices *)
    let ok = ref true in
    for u = 0 to v - 1 do
      if G.mem_edge g u v <> G.mem_edge g image.(u) w then ok := false
    done;
    !ok
  in
  let rec assign v =
    incr steps;
    if !steps > budget then raise Budget;
    if v = n then leaf image
    else
      for w = 0 to n - 1 do
        if compatible v w then begin
          image.(v) <- w;
          used.(w) <- true;
          assign (v + 1);
          used.(w) <- false;
          image.(v) <- -1
        end
      done
  in
  assign 0

(* A certificate is the first fixed-point-free leaf. *)
let find ?(budget = 200_000) config =
  if C.size config = 0 then None
  else
    try
      backtrack ~budget ~moves_all:true config (fun image ->
          raise (Found (Array.copy image)));
      None
    with
    | Found perm -> Some perm
    | Budget -> None

let certified_infeasible ?budget config =
  match find ?budget config with
  | Some perm -> is_certificate config perm
  | None -> false

(* The full tag-preserving automorphism group (identity included, fixed
   points allowed): every leaf of the search, in order.  Used by the model
   checker to quotient state vectors; a budget-truncated (hence possibly
   partial) set is still sound there — it merely reduces less. *)
let automorphisms ?(budget = 200_000) config =
  let n = C.size config in
  if n = 0 then []
  else begin
    let acc = ref [] in
    (try
       backtrack ~budget ~moves_all:false config (fun image ->
           acc := Array.copy image :: !acc)
     with Budget -> ());
    (* The identity is the lexicographically first completed assignment, so
       it is found before the budget can truncate anything else; guard
       anyway so callers can rely on a non-empty result. *)
    match !acc with [] -> [ Array.init n Fun.id ] | l -> List.rev l
  end
