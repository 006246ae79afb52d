type mark =
  | One
  | Many

type triple = {
  block : int;
  slot : int;
  mark : mark;
}

type t = triple list

let compare_mark m1 m2 =
  match (m1, m2) with
  | One, One | Many, Many -> 0
  | One, Many -> -1
  | Many, One -> 1

let compare_triple t1 t2 =
  match Int.compare t1.block t2.block with
  | 0 -> (
      match Int.compare t1.slot t2.slot with
      | 0 -> compare_mark t1.mark t2.mark
      | c -> c)
  | c -> c

let compare_labels = List.compare compare_triple
let compare = compare_labels

let rec equal l1 l2 =
  match (l1, l2) with
  | [], [] -> true
  | t1 :: r1, t2 :: r2 ->
      t1.block = t2.block && t1.slot = t2.slot
      && compare_mark t1.mark t2.mark = 0
      && equal r1 r2
  | _ :: _, [] | [], _ :: _ -> false

(* A multiplicative fold over the fields, seeded with the key's class;
   non-negative, so a table can mask it. *)
let hash_key c l =
  let rec fold h = function
    | [] -> h land max_int
    | t :: rest ->
        let m = match t.mark with One -> 1 | Many -> 2 in
        fold ((((((h * 31) + t.block) * 31) + t.slot) * 31) + m) rest
  in
  fold (17 + c) l

let hash = hash_key 0

(* Sorts and checks: any order, duplicates refused. *)
let of_unordered_observations obs =
  let sorted =
    List.sort compare_triple
      (List.map (fun (block, slot, mark) -> { block; slot; mark }) obs)
  in
  let rec check = function
    | t1 :: (t2 :: _ as rest) ->
        if t1.block = t2.block && t1.slot = t2.slot then
          (* radiolint: allow partiality — each (block, slot) has one round *)
          invalid_arg "Label.of_observations: duplicate (block, slot)"
        else check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  sorted

let of_observations obs =
  (* Latest first, as the DRIP records them, the (block, slot) pairs are
     strictly descending and one reversal makes the label. *)
  let rec reverse acc = function
    | [] -> acc
    | (block, slot, mark) :: rest -> (
        match acc with
        | t :: _ when t.block < block || (t.block = block && t.slot <= slot) ->
            of_unordered_observations obs
        | _ -> reverse ({ block; slot; mark } :: acc) rest)
  in
  reverse [] obs

let of_neighbour_slots slots =
  let compare_slot (b1, s1) (b2, s2) =
    match Int.compare b1 b2 with 0 -> Int.compare s1 s2 | c -> c
  in
  let sorted = List.sort compare_slot slots in
  (* Group equal consecutive (block, slot) pairs; the result is already in
     ≺hist order because (block, slot) pairs end up pairwise distinct. *)
  let rec group = function
    | [] -> []
    | (block, slot) :: rest ->
        let rec skip n = function
          | (b, s) :: tl when b = block && s = slot -> skip (n + 1) tl
          | tl -> (n, tl)
        in
        let n, tl = skip 1 rest in
        { block; slot; mark = (if n = 1 then One else Many) } :: group tl
  in
  group sorted

let mem ~block ~slot label =
  List.find_map
    (fun t -> if t.block = block && t.slot = slot then Some t.mark else None)
    label

let pp_triple ppf t =
  Format.fprintf ppf "(%d,%d,%s)" t.block t.slot
    (match t.mark with One -> "1" | Many -> "*")

let pp ppf = function
  | [] -> Format.pp_print_string ppf "null"
  | l ->
      Format.fprintf ppf "@[<h>%a@]"
        (Format.pp_print_list ~pp_sep:(fun _ () -> ()) pp_triple)
        l

let to_string l = Format.asprintf "%a" pp l
