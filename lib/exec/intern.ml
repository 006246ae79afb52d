(* Deterministic mergeable interner over int keys: see intern.mli for the
   protocol.

   The global table and every local view share one representation, an
   open-addressing hash table over unboxed int arrays:

       slots : int array  -- two ints per bucket: the key, then its
                             ordinal + 1 (0 = empty bucket); power-of-two
                             bucket count, linear probing, load <= 1/2
       keys  : int array  -- keys in insertion order; a key's ordinal
                             indexes it

   A global id is [1 + ordinal]; a provisional id is [-(ordinal + 1)],
   so a resolver is just an array lookup at [-id - 1], and a local view's
   [keys] array is its creation log.  Nothing is boxed: a lookup hashes an
   int and walks an int array, and the GC never traces the tables.

   The global table is only mutated by [get] and [commit], both restricted
   to the orchestrating domain; [find] and [get_local] read it concurrently
   during a batch, which is safe because the table is frozen for the
   batch's whole lifetime. *)

type table = {
  mutable slots : int array;
  mutable mask : int;  (* bucket count - 1 *)
  mutable keys : int array;
  mutable count : int;
}

let table buckets =
  {
    slots = Array.make (2 * buckets) 0;
    mask = buckets - 1;
    keys = Array.make buckets 0;
    count = 0;
  }

(* A 63-bit cousin of the murmur3 finalizer.  Packed keys put structure in
   both halves (a parent id in the high bits, an event code in the low
   ones), and linear probing reads only the low bits of the hash, so the
   high half is folded down before the multiplies spread it back up. *)
let hash k =
  let h = k lxor (k lsr 31) in
  (* the multiplies wrap by design: only the mixed bits matter *)
  let h = h * 0x3f58476d1ce4e5b9 in
  let h = h lxor (h lsr 29) in
  let h = h * 0x14d049bb133111eb in
  h lxor (h lsr 32)

(* The ordinal of [k] if present, else [-(bucket + 1)] for the empty
   bucket where it belongs.  Top-level and closure-free, so a lookup
   allocates nothing. *)
let rec probe slots mask k i =
  let o = slots.((2 * i) + 1) in
  if o = 0 then -i - 1
  else if slots.(2 * i) = k then o - 1
  else probe slots mask k ((i + 1) land mask)

let find_ord tbl k = probe tbl.slots tbl.mask k (hash k land tbl.mask)

(* Doubles the bucket array and re-places every key; keys are pairwise
   distinct, so each lands in the first empty bucket of its run. *)
let rehash tbl =
  (* radiolint: allow range-overflow -- doubling; the bucket count stays
     at most four times the key count *)
  let buckets = 2 * (tbl.mask + 1) in
  let slots = Array.make (2 * buckets) 0 in
  let mask = buckets - 1 in
  for ord = 0 to tbl.count - 1 do
    let k = tbl.keys.(ord) in
    let i = -probe slots mask k (hash k land mask) - 1 in
    slots.(2 * i) <- k;
    slots.((2 * i) + 1) <- ord + 1
  done;
  tbl.slots <- slots;
  tbl.mask <- mask

(* Appends [k] at the empty bucket [i] a failed probe reported and
   returns its ordinal. *)
let insert tbl k i =
  let ord = tbl.count in
  if ord = Array.length tbl.keys then begin
    let keys = Array.make (2 * ord) 0 in
    Array.blit tbl.keys 0 keys 0 ord;
    tbl.keys <- keys
  end;
  tbl.keys.(ord) <- k;
  tbl.slots.(2 * i) <- k;
  tbl.slots.((2 * i) + 1) <- ord + 1;
  tbl.count <- ord + 1;
  if 2 * tbl.count > tbl.mask + 1 then rehash tbl;
  ord

type t = table

let create () = table 256
let size t = t.count
let next_id t = 1 + t.count

let get t k =
  let r = find_ord t k in
  if r >= 0 then 1 + r else 1 + insert t k (-r - 1)

let key t id = t.keys.(id - 1)

let find t k =
  let r = find_ord t k in
  if r >= 0 then Some (1 + r) else None

type local = { global : t; own : table }

(* Views start small: a task that meets only global keys never grows its
   table. *)
let local t = { global = t; own = table 16 }

let get_local l k =
  let g = find_ord l.global k in
  if g >= 0 then 1 + g
  else
    let r = find_ord l.own k in
    if r >= 0 then -r - 1 else -insert l.own k (-r - 1) - 1

let commit t l =
  let fresh = l.own.count in
  let resolved = Array.make fresh 0 in
  let resolve id = if id >= 0 then id else resolved.(-id - 1) in
  (* oldest-first: the key that got provisional id [-(j+1)] is the j-th
     entry of the view's log *)
  for j = 0 to fresh - 1 do
    resolved.(j) <- get t l.own.keys.(j)
  done;
  resolve
