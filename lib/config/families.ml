module Gen = Radio_graph.Gen

(* radiolint: allow partiality — the families check m, so tags is non-empty *)
let tagged_path tags =
  Config.create (Gen.path (Array.length tags)) tags

let tagged_cycle tags =
  Config.create (Gen.cycle (Array.length tags)) tags

let g_family m =
  if m < 2 then
    raise (Config.Invalid_configuration "g_family: m must be >= 2");
  (* Layout along the path: a_1..a_m (tag 0), b_1..b_{2m+1} (tag 1),
     c_m..c_1 (tag 0). *)
  let n = (4 * m) + 1 in
  let tags = Array.make n 0 in
  for i = m to 3 * m do
    tags.(i) <- 1
  done;
  tagged_path tags

let g_family_center m = (2 * m) (* a_1..a_m occupy 0..m-1; b_{m+1} is index m + m. *)

let h_family m =
  if m < 1 then raise (Config.Invalid_configuration "h_family: m must be >= 1");
  tagged_path [| m; 0; 0; m + 1 |]

let s_family m =
  if m < 1 then raise (Config.Invalid_configuration "s_family: m must be >= 1");
  tagged_path [| m; 0; 0; m |]

let staircase_clique n =
  Config.create (Gen.complete n) (Array.init n Fun.id)

let two_cells () = tagged_path [| 0; 1 |]

let symmetric_pair () = tagged_path [| 0; 0 |]
