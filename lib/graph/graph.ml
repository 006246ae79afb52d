type vertex = int

(* Adjacency is stored as a sorted int array per vertex: neighbour lookup is
   a binary search and iteration allocates nothing.  [adj] is built once and
   never mutated after [finish]/[of_edges]. *)
type t = {
  n : int;
  m : int;
  adj : vertex array array;
}

exception Invalid_edge of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_edge s)) fmt

let check_vertex n v =
  if v < 0 || v >= n then invalid "vertex %d out of range [0, %d)" v n

let check_endpoints n u v =
  check_vertex n u;
  check_vertex n v;
  if u = v then invalid "self-loop at vertex %d" u

let sorted_mem a x =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let y = a.(mid) in
      if y = x then true else if y < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* The one row finisher: sorts, in place, every adjacency row that is not
   already increasing, and tells whether some row repeats a neighbour
   (equal neighbours stay adjacent once sorted). *)
let finish_rows adj =
  let increasing a =
    let rec go j = j >= Array.length a || (a.(j - 1) < a.(j) && go (j + 1)) in
    go 1
  in
  let repeated = ref false in
  Array.iter
    (fun a ->
      if not (increasing a) then begin
        Array.sort Int.compare a;
        if not (increasing a) then repeated := true
      end)
    adj;
  !repeated

module Builder = struct
  type t = {
    bn : int;
    badj : vertex list ref array;
    bdeg : int array;
    mutable bm : int;
    mutable frozen : bool;
  }

  (* radiolint: allow partiality — callers pass a graph's or generator's n *)
  let create n =
    if n < 0 then invalid "negative vertex count %d" n;
    {
      bn = n;
      badj = Array.init n (fun _ -> ref []);
      bdeg = Array.make (max n 1) 0;
      bm = 0;
      frozen = false;
    }

  (* radiolint: allow partiality — add_edge checks u, v; others loop vertices *)
  let mem_edge b u v =
    check_endpoints b.bn u v;
    (* Scan the shorter adjacency list of the two endpoints. *)
    let u, v = if b.bdeg.(u) <= b.bdeg.(v) then (u, v) else (v, u) in
    List.mem v !(b.badj.(u))

  (* radiolint: allow partiality — generators, induced copies add valid edges *)
  let add_edge b u v =
    if b.frozen then invalid "builder already frozen";
    check_endpoints b.bn u v;
    if mem_edge b u v then invalid "duplicate edge {%d, %d}" u v;
    b.badj.(u) := v :: !(b.badj.(u));
    b.badj.(v) := u :: !(b.badj.(v));
    b.bdeg.(u) <- b.bdeg.(u) + 1;
    b.bdeg.(v) <- b.bdeg.(v) + 1;
    b.bm <- b.bm + 1

  let finish b =
    b.frozen <- true;
    (* Rows list their neighbours in insertion order (the lists are newest
       first, so they fill back to front); [add_edge] refuses repeats. *)
    let adj =
      Array.mapi
        (fun v l ->
          let d = b.bdeg.(v) in
          let a = Array.make d 0 in
          List.iteri (fun i w -> a.(d - 1 - i) <- w) !l;
          a)
        b.badj
    in
    ignore (finish_rows adj : bool);
    { n = b.bn; m = b.bm; adj }
end

let empty n =
  if n < 0 then invalid "negative vertex count %d" n;
  { n; m = 0; adj = Array.init n (fun _ -> [||]) }

let size g = g.n
let num_edges g = g.m

(* radiolint: allow partiality — callers pass vertices of g *)
let mem_edge g u v =
  check_endpoints g.n u v;
  sorted_mem g.adj.(u) v

(* The first of edges [0 .. k - 1] that repeats an earlier one, with
   [Builder.add_edge]'s message; only run once a repeat is known. *)
let slow_first_duplicate ends k =
  let seen = Hashtbl.create (2 * k) in
  let rec go i =
    if i >= k then None
    else
      let u = ends.(2 * i) and v = ends.((2 * i) + 1) in
      let key = (min u v, max u v) in
      if Hashtbl.mem seen key then
        Some (i, Format.asprintf "duplicate edge {%d, %d}" u v)
      else (
        Hashtbl.add seen key ();
        go (i + 1))
  in
  go 0

(* Why the edge [{u, v}] with a bad endpoint is refused, as
   [Builder.add_edge] words it. *)
let endpoint_error n u v =
  let outside w = Format.asprintf "vertex %d out of range [0, %d)" w n in
  if u < 0 || u >= n then outside u
  else if v < 0 || v >= n then outside v
  else Format.asprintf "self-loop at vertex %d" u

let of_edge_array n ends m =
  (* radiolint: allow partiality — Config_io.of_string refuses n < 0 first *)
  if n < 0 then invalid "negative vertex count %d" n;
  let deg = Array.make n 0 in
  (* [k]: the first edge with a bad endpoint; only edges before it count *)
  let k = ref 0 in
  let ok i =
    let u = ends.(2 * i) and v = ends.((2 * i) + 1) in
    u >= 0 && u < n && v >= 0 && v < n && u <> v
  in
  while !k < m && ok !k do
    let u = ends.(2 * !k) and v = ends.((2 * !k) + 1) in
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1;
    incr k
  done;
  let k = !k in
  (* Rows are allocated at their final size and filled back to front
     ([deg] counts down), so each row lists its edges in input order;
     rows not already increasing (none, for input in [edges] order) are
     sorted, and a repeated edge shows as two equal neighbours. *)
  let adj = Array.map (fun d -> Array.make d 0) deg in
  for i = k - 1 downto 0 do
    let u = ends.(2 * i) and v = ends.((2 * i) + 1) in
    deg.(u) <- deg.(u) - 1;
    adj.(u).(deg.(u)) <- v;
    deg.(v) <- deg.(v) - 1;
    adj.(v).(deg.(v)) <- u
  done;
  match if finish_rows adj then slow_first_duplicate ends k else None with
  | Some e -> Error e
  | None when k < m ->
      Error (k, endpoint_error n ends.(2 * k) ends.((2 * k) + 1))
  | None -> Ok { n; m; adj }

(* radiolint: allow partiality — callers build valid edge lists *)
let of_edges n edge_list =
  let ends = Array.make (2 * List.length edge_list) 0 in
  List.iteri
    (fun i (u, v) ->
      ends.(2 * i) <- u;
      ends.((2 * i) + 1) <- v)
    edge_list;
  match of_edge_array n ends (List.length edge_list) with
  | Ok g -> g
  | Error (_, msg) -> raise (Invalid_edge msg)

let insert_sorted a x =
  let len = Array.length a in
  let pos = ref len in
  (try
     for i = 0 to len - 1 do
       if a.(i) > x then begin
         pos := i;
         raise Exit
       end
     done
   with Exit -> ());
  let out = Array.make (len + 1) x in
  Array.blit a 0 out 0 !pos;
  Array.blit a !pos out (!pos + 1) (len - !pos);
  out

(* radiolint: allow partiality — Incremental.apply checks the edge first *)
let add_edge g u v =
  check_endpoints g.n u v;
  if mem_edge g u v then invalid "duplicate edge {%d, %d}" u v;
  let adj = Array.copy g.adj in
  adj.(u) <- insert_sorted adj.(u) v;
  adj.(v) <- insert_sorted adj.(v) u;
  { g with m = g.m + 1; adj }

let remove_sorted a x = Array.of_list (List.filter (( <> ) x) (Array.to_list a))

(* radiolint: allow partiality — Incremental.apply checks the edge first *)
let remove_edge g u v =
  check_endpoints g.n u v;
  if not (mem_edge g u v) then invalid "absent edge {%d, %d}" u v;
  let adj = Array.copy g.adj in
  adj.(u) <- remove_sorted adj.(u) v;
  adj.(v) <- remove_sorted adj.(v) u;
  { g with m = g.m - 1; adj }

(* radiolint: allow partiality — callers pass v < size g (loops, rows) *)
let neighbours g v =
  check_vertex g.n v;
  Array.to_list g.adj.(v)

(* radiolint: allow partiality — callers pass v < size g (loops, rows) *)
let degree g v =
  check_vertex g.n v;
  Array.length g.adj.(v)

let max_degree g = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 g.adj

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    let a = g.adj.(u) in
    for i = Array.length a - 1 downto 0 do
      if a.(i) > u then acc := (u, a.(i)) :: !acc
    done
  done;
  !acc

let iter_edges g ~f =
  for u = 0 to g.n - 1 do
    let a = g.adj.(u) in
    for i = 0 to Array.length a - 1 do
      if a.(i) > u then f u a.(i)
    done
  done

let vertices g = List.init g.n Fun.id

(* radiolint: allow partiality — callers pass v < size g (loops, rows) *)
let fold_neighbours g v ~init ~f =
  check_vertex g.n v;
  Array.fold_left f init g.adj.(v)

(* radiolint: allow partiality — callers pass v < size g (loops, rows) *)
let iter_neighbours g v ~f =
  check_vertex g.n v;
  Array.iter f g.adj.(v)

let equal g1 g2 = g1.n = g2.n && g1.m = g2.m && g1.adj = g2.adj

let pp ppf g =
  Format.fprintf ppf "@[<hov 2>graph(n=%d;@ m=%d;@ edges=[%a])@]" g.n g.m
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf (u, v) -> Format.fprintf ppf "%d-%d" u v))
    (edges g)
