module G = Radio_graph.Graph

let to_string c =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "config %d\n" (Config.size c));
  Buffer.add_string buf "tags";
  Array.iter (fun t -> Buffer.add_string buf (Printf.sprintf " %d" t)) (Config.tags c);
  Buffer.add_char buf '\n';
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v))
    (G.edges (Config.graph c));
  Buffer.contents buf

(* [of_string] scans its input once, by index, with no line or token
   lists: a line is what [String.split_on_char '\n'] would give, trimmed
   as by [String.trim]; blank lines and lines whose first character is
   '#' carry no meaning; tokens are the runs of non-' ' bytes of a
   line. *)

(* [pos, hi) is what is left of the current meaningful line, [line] its
   1-based number and [next] where the line after it starts; [a, b) is
   the current token.  [int_token] sets [bad] on a token that is no
   integer. *)
type cursor = {
  src : string;
  mutable next : int;
  mutable line : int;
  mutable pos : int;
  mutable hi : int;
  mutable a : int;
  mutable b : int;
  mutable bad : bool;
}

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

(* Moves to the next meaningful line; false once the input is used up. *)
let rec advance t =
  let len = String.length t.src in
  if t.next > len then false
  else begin
    let stop = ref t.next in
    while !stop < len && t.src.[!stop] <> '\n' do
      incr stop
    done;
    let lo = ref t.next and hi = ref !stop in
    while !lo < !hi && is_space t.src.[!lo] do
      incr lo
    done;
    while !hi > !lo && is_space t.src.[!hi - 1] do
      decr hi
    done;
    t.line <- t.line + 1;
    t.next <- !stop + 1;
    t.pos <- !lo;
    t.hi <- !hi;
    (!lo < !hi && t.src.[!lo] <> '#') || advance t
  end

(* Moves to the next token of the line; false at its end. *)
let next_token t =
  while t.pos < t.hi && t.src.[t.pos] = ' ' do
    t.pos <- t.pos + 1
  done;
  t.pos < t.hi
  && begin
       t.a <- t.pos;
       while t.pos < t.hi && t.src.[t.pos] <> ' ' do
         t.pos <- t.pos + 1
       done;
       t.b <- t.pos;
       true
     end

(* The number of tokens left on the line; the line is rewound. *)
let count_tokens t =
  let from = t.pos and k = ref 0 in
  while next_token t do
    incr k
  done;
  t.pos <- from;
  !k

let token t = String.sub t.src t.a (t.b - t.a)

(* The integer [int_of_string_opt] reads in the current token, or [0]
   with [t.bad] set.  Up to 18 plain decimal digits are read in place;
   any other token ([+3], [0x1F], [1_000], [-1], overflow) goes to
   [int_of_string_opt] itself. *)
let int_token t =
  let rec digits i acc =
    if i = t.b then acc
    else
      match t.src.[i] with
      | '0' .. '9' as c -> digits (i + 1) ((acc * 10) + Char.code c - 48)
      | _ -> -1
  in
  let v = if t.b - t.a <= 18 then digits t.a 0 else -1 in
  if v >= 0 then v
  else
    match int_of_string_opt (token t) with
    | Some v -> v
    | None ->
        t.bad <- true;
        0

let fail line fmt =
  Printf.ksprintf
    (fun msg ->
      failwith (Printf.sprintf "Config_io.of_string: line %d: %s" line msg))
    fmt

let of_string s =
  let t =
    { src = s; next = 0; line = 0; pos = 0; hi = 0; a = 0; b = 0; bad = false }
  in
  let need () = failwith "Config_io.of_string: need a header and a tags line" in
  if not (advance t) then need ();
  let hl = t.line and hlo = t.pos and hhi = t.hi in
  if not (advance t) then need ();
  let tl = t.line and tlo = t.pos and thi = t.hi in
  (* header: exactly the two tokens [config <n>] *)
  t.pos <- hlo;
  t.hi <- hhi;
  if not (count_tokens t = 2 && next_token t && token t = "config") then
    fail hl "expected 'config <n>' header";
  ignore (next_token t);
  let n = int_token t in
  if t.bad then fail hl "bad vertex count: %s" (token t);
  if n < 0 then fail hl "negative vertex count %d" n;
  (* tags line: [tags] and then exactly n integers *)
  t.pos <- tlo;
  t.hi <- thi;
  if not (next_token t && token t = "tags") then
    fail tl "expected 'tags ...' line";
  let found = count_tokens t in
  if found <> n then fail tl "expected %d tags, found %d" n found;
  let tags =
    Array.init n (fun _ ->
        ignore (next_token t);
        let x = int_token t in
        if t.bad then fail tl "bad tag: %s" (token t);
        x)
  in
  Array.iteri
    (fun v x -> if x < 0 then fail tl "negative tag %d at vertex %d" x v)
    tags;
  (* Edge lines: endpoints go into [ends] (a line of two tokens takes at
     least four bytes with its newline, which bounds their number), and
     the graph is built and checked once at the end.  Edges are refused
     on the line that adds them, so a malformed line is reported only
     once every edge before it is known to be good. *)
  let first_edge = t.next in
  let edge_line i =
    let c = { t with next = first_edge; line = tl } in
    for _ = 0 to i do
      ignore (advance c)
    done;
    c.line
  in
  let ends = Array.make (2 * ((String.length s - first_edge + 1) / 4)) 0 in
  let graph k =
    match G.of_edge_array n ends k with
    | Ok g -> g
    | Error (i, msg) -> fail (edge_line i) "%s" msg
  in
  let m = ref 0 in
  let refuse what =
    ignore (graph !m);
    fail t.line "%s: %s" what (token t)
  in
  while advance t do
    if count_tokens t <> 2 then begin
      t.a <- t.pos;
      t.b <- t.hi;
      refuse "bad edge line"
    end;
    ignore (next_token t);
    let u = int_token t in
    if t.bad then refuse "bad edge endpoint";
    ignore (next_token t);
    let v = int_token t in
    if t.bad then refuse "bad edge endpoint";
    ends.(2 * !m) <- u;
    ends.((2 * !m) + 1) <- v;
    incr m
  done;
  Config.create ~normalize:false (graph !m) tags

let to_dot ?(name = "C") c =
  Radio_graph.Io.to_dot ~name
    ~label:(fun v -> Printf.sprintf "v%d (t=%d)" v (Config.tag c v))
    (Config.graph c)

let write_file path c =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string c))

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      of_string (In_channel.input_all ic))
