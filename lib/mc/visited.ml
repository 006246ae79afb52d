(* Compact visited set for the universal-mode explorer.

   The old representation — a [(string, unit) Hashtbl.t] keyed by the
   decimal encoding of each canonical state — allocates a fresh string
   plus a bucket cell per insertion and probes twice per fresh state
   (mem, then replace).  At millions of states that is hundreds of MB of
   boxed garbage and a GC-bound hot path.

   Here a state's packed code (State.Packed varints) is written once into
   a growable byte arena, and membership is a single open-addressing
   probe over an int table:

       table : int array     -- power-of-two capacity, linear probing;
                                slot 0 is "empty", else
                                (fragment lsl 32) lor (offset + 1)
       arena : Bytes.t       -- [len:2 bytes LE][code bytes] per entry,
                                appended in insertion order

   The hash is a word mixer over the state's ints ({!hash}), so a caller
   can compute it anywhere — the explorer hashes its successors on the
   pool — and hand it to [add_hashed].  Its low [frag_bits] bits are the
   entry's fragment: they pick the home slot and sit in the table beside
   the offset, so a probe reads arena bytes only when a fragment matches.
   [add_hashed] packs the candidate straight into the arena tail, probes
   once, and either publishes the entry (fresh: record the slot, keep the
   bytes) or rolls the arena back (duplicate: no allocation happened at
   all).  Growth doubles in place: the table re-places its own slots from
   their stored fragments — entries are distinct by construction, so each
   re-probe stops at the first empty slot, and the arena is never read or
   rehashed — and the arena reallocates and blits.  Both structures are
   unboxed, so the GC never traces the visited set no matter how large it
   grows. *)

type t = {
  mutable table : int array;  (* fragment over offset + 1; 0 = empty *)
  mutable mask : int;  (* capacity - 1, capacity a power of two *)
  mutable count : int;
  mutable arena : Bytes.t;
  mutable len : int;  (* arena bytes in use *)
  mutable stop : int;  (* end of the last probed candidate's code *)
  slots : int;
  max_code : int;  (* State.Packed.max_bytes for this state width *)
}

let entry_header = 2 (* little-endian code length *)

(* A table slot: the hash fragment in bits 32..61, offset + 1 in bits
   0..31.  Home slots come from the fragment, so the table can grow only
   while its index fits in the fragment, and an entry offset must fit in
   the low word. *)
let frag_bits = 30
let frag_mask = (1 lsl 30) - 1
let off_mask = (1 lsl 32) - 1
let max_capacity = 1 lsl 30

let create ?(bits = 12) ~slots () =
  let bits =
    if bits < 3 then 3 else if bits > frag_bits then frag_bits else bits
  in
  (* radiolint: allow range-overflow -- bits is clamped to 3..30 *)
  let capacity = 1 lsl bits in
  let max_code = State.Packed.max_bytes ~n:slots in
  (* The entry header stores the code length in two little-endian bytes;
     reject state widths whose worst-case code could not round-trip
     through it (cold path: once per explorer run). *)
  if max_code > 0xffff then
    (* radiolint: allow partiality — n <= 62 keeps codes below 0xffff *)
    invalid_arg "Visited.create: state width overflows the 2-byte entry header";
  {
    table = Array.make capacity 0;
    mask = capacity - 1;
    count = 0;
    arena = Bytes.create 4096;
    len = 0;
    stop = 0;
    slots;
    max_code;
  }

let size t = t.count

let memory_bytes t =
  (8 * Array.length t.table) + Bytes.length t.arena

(* One multiply and one xor-shift per word, then a murmur-style
   finalizer that folds the high half down: linear probing and the
   fragment read only the low bits.  Without the per-word xor-shift the
   low 30 bits of explorer states collide ~90 times more often than
   random ones.  The multiplies wrap by design. *)
let hash ~round_class ~spent src ~pos ~len =
  let h = ref ((round_class * 0x3f58476d1ce4e5b9) lxor spent) in
  for i = pos to pos + len - 1 do
    (* radiolint: allow range-overflow -- the multiply wraps by design *)
    let x = (!h lxor src.(i)) * 0x3f58476d1ce4e5b9 in
    h := x lxor (x lsr 31)
  done;
  let h = !h lxor (!h lsr 32) in
  let h = h * 0x14d049bb133111eb in
  h lxor (h lsr 29)

let code_len t off =
  (* radiolint: allow range-index -- off is a published entry offset, so
     entry_header + code bytes lie within the arena *)
  let b0 = Char.code (Bytes.unsafe_get t.arena off) in
  (* radiolint: allow range-index -- second header byte of the same entry *)
  let b1 = Char.code (Bytes.unsafe_get t.arena (off + 1)) in
  b0 lor (b1 lsl 8)

(* A loop, not a local recursive function: a closure over the four
   arguments would be allocated on every probe that meets an occupied
   slot. *)
let equal_range buf apos bpos len =
  let i = ref 0 in
  while
    !i < len
    (* radiolint: allow range-index -- i < len and both ranges were sized
       by their writers inside the arena *)
    && Bytes.unsafe_get buf (apos + !i) = Bytes.unsafe_get buf (bpos + !i)
  do
    incr i
  done;
  !i = len

let grow_table t =
  (* radiolint: allow range-overflow -- table doubling, bounded by
     max_capacity just below *)
  let capacity = 2 * (t.mask + 1) in
  if capacity > max_capacity then
    (* radiolint: allow partiality — callers cap states at max_explore_states *)
    invalid_arg "Visited: table outgrows the 30-bit hash fragment";
  let table = Array.make capacity 0 in
  let mask = capacity - 1 in
  Array.iter
    (fun slot ->
      if slot <> 0 then begin
        let i = ref ((slot lsr 32) land mask) in
        while table.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        table.(!i) <- slot
      end)
    t.table;
  t.table <- table;
  t.mask <- mask

let ensure_arena t need =
  if t.len + need > Bytes.length t.arena then begin
    let cap = ref (2 * Bytes.length t.arena) in
    while t.len + need > !cap do
      (* radiolint: allow range-overflow -- arena doubling, bounded by
         allocatable memory *)
      cap := 2 * !cap
    done;
    let arena = Bytes.create !cap in
    Bytes.blit t.arena 0 arena 0 t.len;
    t.arena <- arena
  end

(* Packs the candidate into the scratch space past [len] (the arena
   always keeps one max-size entry of headroom), leaves the end of its
   code in [stop], and probes for it: the slot index holding it, or
   [-(i + 1)] for the empty slot [i] where it belongs.  Arena bytes are
   compared only on a fragment match. *)
let probe t ~frag ~round_class ~spent src ~pos =
  ensure_arena t (entry_header + t.max_code);
  let start = t.len + entry_header in
  t.stop <-
    State.Packed.write_sub t.arena ~pos:start ~round_class ~spent src ~off:pos
      ~n:t.slots;
  let len = t.stop - start in
  let i = ref (frag land t.mask) in
  let found = ref 0 in
  while !found = 0 do
    let slot = t.table.(!i) in
    if slot = 0 then found := - !i - 1
    else if
      slot lsr 32 = frag
      && code_len t ((slot land off_mask) - 1) = len
      && equal_range t.arena ((slot land off_mask) - 1 + entry_header) start
           len
    then found := !i + 1
    else i := (!i + 1) land t.mask
  done;
  if !found > 0 then !found - 1 else !found

let add_hashed t ~hash ~round_class ~spent src ~pos =
  let frag = hash land frag_mask in
  let i = probe t ~frag ~round_class ~spent src ~pos in
  if i >= 0 then false (* duplicate: arena rolls back *)
  else begin
    if t.len >= off_mask then
      (* radiolint: allow partiality — callers cap states at
         Checker.max_explore_states *)
      invalid_arg "Visited: arena outgrows the 32-bit entry offset";
    let len = t.stop - t.len - entry_header in
    (* radiolint: allow range-index -- ensure_arena reserved
       entry_header + max_code bytes past len *)
    Bytes.unsafe_set t.arena t.len (Char.unsafe_chr (len land 0xff));
    (* radiolint: allow range-index range-truncation -- create rejects
       widths whose max_bytes exceed 0xffff, so the high byte fits *)
    Bytes.unsafe_set t.arena (t.len + 1) (Char.unsafe_chr (len lsr 8));
    (* radiolint: allow range-overflow -- frag < 2^30 and t.len + 1 <
       2^32 (checked above), so the slot fits in 62 bits *)
    t.table.(- i - 1) <- (frag lsl 32) lor (t.len + 1);
    t.len <- t.stop;
    t.count <- t.count + 1;
    (* Load factor 1/2: one resident entry per two slots keeps linear
       probing short without doubling memory over the arena itself. *)
    if 2 * t.count >= t.mask + 1 then grow_table t;
    true
  end

(* The home slot of [hash], loaded and discarded: a batch of these
   issued back to back keeps many cache misses in flight, where a probe
   loop interleaved with packing and publishing waits on one at a time. *)
let prefetch t ~hash =
  ignore (Sys.opaque_identity t.table.(hash land t.mask) : int)

let hash_state ~round_class ~spent s =
  hash ~round_class ~spent s ~pos:0 ~len:(Array.length s)

let add t ~round_class ~spent s =
  add_hashed t ~hash:(hash_state ~round_class ~spent s) ~round_class ~spent s
    ~pos:0

let cursor t = t.len

let next t off = off + entry_header + code_len t off

let decode t off s = State.Packed.read_into t.arena ~pos:(off + entry_header) s
