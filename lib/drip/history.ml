type entry =
  | Silence
  | Message of string
  | Collision

(* [index] ascending, [entry] never [Silence]. *)
type t = {
  length : int;
  index : int array;
  entry : entry array;
}

let length h = h.length

(* The first position in [lo .. hi - 1] of the ascending [index] holding
   [>= i], else [hi]. *)
let rec lower_bound index lo hi i =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if index.(mid) < i then lower_bound index (mid + 1) hi i
    else lower_bound index lo mid i

let get h i =
  let events = Array.length h.index in
  let k = lower_bound h.index 0 events i in
  if i < h.length && k < events && h.index.(k) = i then h.entry.(k)
  else Silence

let fold f init h =
  let acc = ref init in
  Array.iteri (fun k i -> acc := f !acc i h.entry.(k)) h.index;
  !acc

let sub h pos len =
  let stop = Int.min h.length (pos + len) and pos = Int.max 0 pos in
  let events = Array.length h.index in
  let first = lower_bound h.index 0 events pos in
  let count = Int.max 0 (lower_bound h.index 0 events stop - first) in
  {
    length = Int.max 0 (stop - pos);
    index = Array.init count (fun k -> h.index.(first + k) - pos);
    entry = Array.sub h.entry first count;
  }

let equal_entry e1 e2 =
  match (e1, e2) with
  | Silence, Silence | Collision, Collision -> true
  | Message m1, Message m2 -> String.equal m1 m2
  | (Silence | Message _ | Collision), _ -> false

let equal h1 h2 =
  h1.length = h2.length
  && Array.length h1.index = Array.length h2.index
  && Array.for_all2 Int.equal h1.index h2.index
  && Array.for_all2 equal_entry h1.entry h2.entry

(* A collision adds its index, a message its index and its string's hash;
   the length and a final mix spread the value over the bits a table
   indexes by. *)
let hash h =
  Hashtbl.hash
    (fold
       (fun acc i e ->
         match e with
         | Silence -> acc
         | Collision -> (acc * 31) + (2 * i) + 1
         | Message m -> (acc * 31) + (2 * i) + (65599 * Hashtbl.hash m))
       h.length h)

let to_array h =
  let a = Array.make h.length Silence in
  Array.iteri (fun k i -> a.(i) <- h.entry.(k)) h.index;
  a

let pp_entry ppf = function
  | Silence -> Format.pp_print_string ppf "∅"
  | Message m -> Format.fprintf ppf "(%s)" m
  | Collision -> Format.pp_print_string ppf "*"

let pp ppf h =
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '.')
       pp_entry)
    (to_array h)

let to_string h = Format.asprintf "%a" pp h

module Builder = struct
  type history = t

  type nonrec t = {
    mutable index : int array;
    mutable entry : entry array;
    mutable len : int;
  }

  let create () = { index = [||]; entry = [||]; len = 0 }

  let add b i e =
    if
      i >= 0
      && (b.len = 0 || i > b.index.(b.len - 1))
      && not (equal_entry e Silence)
    then begin
      if b.len = Array.length b.index then begin
        let grow a fill =
          let a' = Array.make (Int.max 8 (2 * b.len)) fill in
          Array.blit a 0 a' 0 b.len;
          a'
        in
        b.index <- grow b.index 0;
        b.entry <- grow b.entry Silence
      end;
      b.index.(b.len) <- i;
      b.entry.(b.len) <- e;
      b.len <- b.len + 1
    end

  let build b ~length : history =
    let count = lower_bound b.index 0 b.len length in
    {
      length = Int.max 0 length;
      index = Array.sub b.index 0 count;
      entry = Array.sub b.entry 0 count;
    }
end

let of_array a =
  let b = Builder.create () in
  Array.iteri (Builder.add b) a;
  Builder.build b ~length:(Array.length a)
