let pairs n =
  let acc = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto u + 1 do
      acc := (u, v) :: !acc
    done
  done;
  !acc

let all_labelled n =
  if n < 0 || n > 6 then
    (* radiolint: allow partiality — Census.universe checks max_n in 1..6 *)
    invalid_arg "Enumerate.all_labelled: n must be in 0..6";
  let ps = Array.of_list (pairs n) in
  let m = Array.length ps in
  List.init (1 lsl m) (fun mask ->
      let edges = ref [] in
      for i = 0 to m - 1 do
        if mask land (1 lsl i) <> 0 then edges := ps.(i) :: !edges
      done;
      Graph.of_edges n !edges)

let all_connected_labelled n = List.filter Props.connected (all_labelled n)

(* Two graphs are isomorphic iff their canonical relabellings have the
   same edge set, held here as a bitmask over the [n * n] label pairs. *)
let connected_up_to_iso n =
  let colours = Array.make n 0 in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun g ->
      let perm = Props.canonical_labelling ~colours g in
      let key =
        List.fold_left
          (fun key (u, v) ->
            let a = perm.(u) and b = perm.(v) in
            key lor (1 lsl ((min a b * n) + max a b)))
          0 (Graph.edges g)
      in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    (all_connected_labelled n)

let count_up_to_iso n = List.length (connected_up_to_iso n)
