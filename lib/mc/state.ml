type t = int array

let initial n : t = Array.make n 0
let all_terminated (s : t) = Array.for_all (fun k -> k < 0) s

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

  let write_sub buf ~pos ~round_class ~spent src ~off ~n =
    let pos = write_varint buf pos round_class in
    let pos = write_varint buf pos spent in
    let pos = ref pos in
    for v = off to off + n - 1 do
      pos := write_varint buf !pos (zigzag src.(v))
    done;
    !pos

  (* Decodes in place: the slots land in [s] and [spent] is returned;
     [round_class] is skipped.  One loop decodes all [n + 2] varints, so
     no position or tuple is boxed. *)
  let read_into buf ~pos (s : t) =
    let pos = ref pos in
    let spent = ref 0 in
    for field = 0 to Array.length s + 1 do
      let u = ref 0 in
      let shift = ref 0 in
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
      if field = 1 then spent := !u
      else if field >= 2 then s.(field - 2) <- unzigzag !u
    done;
    !spent
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
