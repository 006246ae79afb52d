module H = Radio_drip.History

module Intern = struct
  type key = int

  type t = {
    fwd : (int * H.entry, key) Hashtbl.t;
    mutable parents : int array;  (* index key - 1 *)
    mutable events : H.entry array;  (* index key - 1 *)
    mutable next : key;
  }

  let create () =
    {
      fwd = Hashtbl.create 1024;
      parents = Array.make 64 0;
      events = Array.make 64 H.Silence;
      next = 1;
    }

  let ensure_capacity t =
    if t.next - 1 >= Array.length t.parents then begin
      let cap = 2 * Array.length t.parents in
      let parents = Array.make cap 0 in
      let events = Array.make cap H.Silence in
      Array.blit t.parents 0 parents 0 (Array.length t.parents);
      Array.blit t.events 0 events 0 (Array.length t.events);
      t.parents <- parents;
      t.events <- events
    end

  let get t parent event =
    match Hashtbl.find_opt t.fwd (parent, event) with
    | Some k -> k
    | None ->
        let k = t.next in
        t.next <- k + 1;
        ensure_capacity t;
        t.parents.(k - 1) <- parent;
        t.events.(k - 1) <- event;
        Hashtbl.replace t.fwd (parent, event) k;
        k

  let size t = t.next - 1
  let parent t k = t.parents.(k - 1)
  let event t k = t.events.(k - 1)

  let depth t k =
    let rec go k acc = if k = 0 then acc else go (parent t k) (acc + 1) in
    go k 0

  (* The chain from [k] up to the root runs from the last entry to the
     first: entries are added on the way back down, in index order. *)
  let history t k =
    let b = H.Builder.create () in
    let rec add k =
      if k = 0 then 0
      else begin
        let i = add (parent t k) in
        H.Builder.add b i (event t k);
        i + 1
      end
    in
    H.Builder.build b ~length:(add k)
end

type t = int array

let initial n : t = Array.make n 0

let compare_states (a : t) (b : t) =
  match Int.compare (Array.length a) (Array.length b) with
  | 0 ->
      let rec go i =
        if i = Array.length a then 0
        else
          match Int.compare a.(i) b.(i) with
          | 0 -> go (i + 1)
          | c -> c
      in
      go 0
  | c -> c

let equal a b = compare_states a b = 0
let all_terminated (s : t) = Array.for_all (fun k -> k < 0) s

let encode ~round_class (s : t) =
  let b = Buffer.create ((4 * Array.length s) + 8) in
  Buffer.add_string b (string_of_int round_class);
  Array.iter
    (fun k ->
      Buffer.add_char b '.';
      Buffer.add_string b (string_of_int k))
    s;
  Buffer.contents b

let permute (phi : int array) (s : t) : t =
  let n = Array.length s in
  let out = Array.make n 0 in
  for v = 0 to n - 1 do
    out.(phi.(v)) <- s.(v)
  done;
  out

let canonicalize autos (s : t) : t =
  match autos with
  | [] | [ _ ] -> s (* at most the identity: nothing to quotient *)
  | autos ->
      List.fold_left
        (fun best phi ->
          let cand = permute phi s in
          if compare_states cand best < 0 then cand else best)
        s autos

(* Bit-packed state codes.  The explorer's visited set stores millions of
   states, so the per-state key must be compact and allocation-free on the
   hot path: a code is a run of LEB128 varints — round class, crash budget
   spent, then one zigzag-mapped varint per node slot — written straight
   into a caller-supplied byte buffer (the visited set's arena).  Small
   keys (the common case: slot magnitudes follow the interner's dense
   first-seen ids) pack to one byte per node. *)
module Packed = struct
  (* radiolint: allow range-overflow -- zigzag wraps the top bit by
     design; unzigzag inverts it exactly *)
  let zigzag k = (k lsl 1) lxor (k asr (Sys.int_size - 1))
  let unzigzag u = (u lsr 1) lxor (-(u land 1))

  (* radiolint: allow range-overflow -- n is the node-slot count, tens at
     most; the product cannot approach an int *)
  let max_bytes ~n = 10 * (n + 2)

  let write_varint buf pos u =
    let pos = ref pos in
    let u = ref u in
    while !u land lnot 0x7f <> 0 do
      (* radiolint: allow range-index -- pos advances at most 10 bytes per
         varint and callers size the buffer with max_bytes *)
      Bytes.unsafe_set buf !pos (Char.unsafe_chr (0x80 lor (!u land 0x7f)));
      incr pos;
      u := !u lsr 7
    done;
    (* radiolint: allow range-index -- terminator byte of the same bound;
       the loop exit proves u <= 0x7f, so the mask is the identity *)
    Bytes.unsafe_set buf !pos (Char.unsafe_chr (!u land 0x7f));
    !pos + 1

  let read_varint buf pos =
    let pos = ref pos in
    let shift = ref 0 in
    let u = ref 0 in
    let continue = ref true in
    while !continue do
      (* radiolint: allow range-index -- pos stays within the code: every
         byte but the last has bit 7 set and codes end with a terminator
         by construction *)
      let b = Char.code (Bytes.unsafe_get buf !pos) in
      incr pos;
      (* radiolint: allow range-overflow -- shift grows by 7 up to 63 for
         the at-most-10-byte varints write_varint emits *)
      u := !u lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      continue := b land 0x80 <> 0
    done;
    (!u, !pos)

  let write_sub buf ~pos ~round_class ~spent src ~off ~n =
    let pos = write_varint buf pos round_class in
    let pos = write_varint buf pos spent in
    let pos = ref pos in
    for v = off to off + n - 1 do
      pos := write_varint buf !pos (zigzag src.(v))
    done;
    !pos

  let write buf ~pos ~round_class ~spent (s : t) =
    write_sub buf ~pos ~round_class ~spent s ~off:0 ~n:(Array.length s)

  (* [unpack] without the allocations: the slots land in [s] and [spent]
     is returned; [round_class] is skipped.  One loop decodes all
     [n + 2] varints, so no position or tuple is boxed. *)
  let read_into buf ~pos (s : t) =
    let pos = ref pos in
    let spent = ref 0 in
    for field = 0 to Array.length s + 1 do
      let u = ref 0 in
      let shift = ref 0 in
      let continue = ref true in
      while !continue do
        (* radiolint: allow range-index -- pos stays within the code, as in
           read_varint *)
        let b = Char.code (Bytes.unsafe_get buf !pos) in
        incr pos;
        (* radiolint: allow range-overflow -- the shift reaches 63 only on
           the tenth byte, as in read_varint *)
        u := !u lor ((b land 0x7f) lsl !shift);
        shift := !shift + 7;
        continue := b land 0x80 <> 0
      done;
      if field = 1 then spent := !u
      else if field >= 2 then s.(field - 2) <- unzigzag !u
    done;
    !spent

  let pack ~round_class ~spent (s : t) =
    let buf = Bytes.create (max_bytes ~n:(Array.length s)) in
    let len = write buf ~pos:0 ~round_class ~spent s in
    Bytes.sub buf 0 len

  let unpack ~n code =
    let s = Array.make n 0 in
    let spent = read_into code ~pos:0 s in
    (fst (read_varint code 0), spent, s)
end

let classes (s : t) =
  let n = Array.length s in
  let seen = Array.make n false in
  let acc = ref [] in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      let members = ref [] in
      for w = n - 1 downto v do
        if s.(w) = s.(v) then begin
          seen.(w) <- true;
          members := w :: !members
        end
      done;
      acc := !members :: !acc
    end
  done;
  List.rev !acc
