module G = Radio_graph.Graph
module Props = Radio_graph.Props

(* [lo] and [hi] are the least and greatest tag, fixed at construction so
   that [span] is O(1): the classifier reads it once per label. *)
type t = {
  graph : G.t;
  tags : int array;
  lo : int;
  hi : int;
}

exception Invalid_configuration of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_configuration s)) fmt

let normalize_tags tags =
  if Array.length tags = 0 then tags
  else
    let m = Array.fold_left Int.min tags.(0) tags in
    if m = 0 then tags else Array.map (fun t -> t - m) tags

(* radiolint: allow partiality — callers pass one tag >= 0 per vertex *)
let create ?(normalize = true) graph tags =
  let n = G.size graph in
  if Array.length tags <> n then
    invalid "tag vector has length %d but graph has %d vertices"
      (Array.length tags) n;
  Array.iteri (fun v t -> if t < 0 then invalid "negative tag %d at vertex %d" t v) tags;
  let tags = Array.copy tags in
  let tags = if normalize then normalize_tags tags else tags in
  let lo = Array.fold_left Int.min (if n = 0 then 0 else tags.(0)) tags in
  let hi = Array.fold_left Int.max lo tags in
  { graph; tags; lo; hi }


let uniform graph tag =
  if tag < 0 then invalid "negative tag %d" tag;
  create graph (Array.make (G.size graph) tag)

let graph c = c.graph
let size c = G.size c.graph

(* radiolint: allow partiality — callers pass v < size c *)
let tag c v =
  if v < 0 || v >= size c then invalid "vertex %d out of range" v;
  c.tags.(v)

let tags c = Array.copy c.tags

let min_tag c = c.lo
let max_tag c = c.hi
let span c = c.hi - c.lo
let is_normalized c = c.lo = 0
let is_connected c = Props.connected c.graph
let max_degree c = G.max_degree c.graph
let equal c1 c2 = G.equal c1.graph c2.graph && c1.tags = c2.tags

let pp ppf c =
  Format.fprintf ppf "@[<hov 2>config(n=%d;@ span=%d;@ tags=[%a];@ %a)@]"
    (size c) (span c)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Format.pp_print_int)
    (Array.to_list c.tags) G.pp c.graph

let shift_tags c k =
  let tags = Array.map (fun t -> t + k) c.tags in
  Array.iteri
    (fun v t -> if t < 0 then invalid "shift makes tag at vertex %d negative" v)
    tags;
  create c.graph tags

(* radiolint: allow partiality — canonical_form passes a permutation *)
let relabel c perm =
  let n = size c in
  if Array.length perm <> n then invalid "permutation length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n then invalid "permutation value %d out of range" p;
      if seen.(p) then invalid "permutation repeats value %d" p;
      seen.(p) <- true)
    perm;
  let edges = List.map (fun (u, v) -> (perm.(u), perm.(v))) (G.edges c.graph) in
  let tags = Array.make n 0 in
  Array.iteri (fun v t -> tags.(perm.(v)) <- t) c.tags;
  create (G.of_edges n edges) tags
