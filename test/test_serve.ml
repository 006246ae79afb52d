(* The serve subsystem: JSON codec round-trips, protocol fuzz/negative
   cases (malformed JSON, unknown kinds, oversized configs, mid-stream
   EOF), the canonical cache key, and the headline determinism contract —
   a shuffled-then-replayed request stream yields byte-identical
   per-request responses cold vs warm and at jobs 1/2/4 (docs/SERVE.md). *)

module J = Radio_serve.Json
module P = Radio_serve.Protocol
module Cache = Radio_serve.Cache
module Service = Radio_serve.Service
module Server = Radio_serve.Server
module Can = Election.Canonical
module C = Radio_config.Config
module G = Radio_graph.Graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let err_of line =
  match (P.parse line).P.request with
  | Error e -> e
  | Ok _ -> Alcotest.failf "accepted %S" line

let test_json_roundtrip () =
  let samples =
    [
      {|null|};
      {|true|};
      {|-42|};
      {|"a\nb\"c\\d"|};
      {|[1,2,[],{"x":null}]|};
      {|{"id":7,"kind":"classify","config":"config 1\ntags 0\n"}|};
    ]
  in
  List.iter
    (fun s ->
      match J.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e.J.message
      | Ok v -> (
          let printed = J.to_string v in
          match J.parse printed with
          | Error e -> Alcotest.failf "reparse %s: %s" printed e.J.message
          | Ok v' ->
              check_string "print/parse/print fixpoint" printed (J.to_string v')))
    samples

let test_json_unicode () =
  match J.parse {|"\u00e9\ud83d\ude00"|} with
  | Error e -> Alcotest.failf "unicode: %s" e.J.message
  | Ok (J.Str s) ->
      check_string "utf8 bytes" "\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected string"

let test_json_negative () =
  let cases =
    [
      ("", "unexpected end of input");
      ("{", "end of input");
      ("[1,]", "unexpected character");
      ("1.5", "non-integer");
      ("{\"a\":1,\"a\":2}", "duplicate key");
      ("\"ab", "unterminated string");
      ("\"\\q\"", "invalid escape");
      ("nulL", "expected \"null\"");
      ("{} trailing", "trailing input");
      ("\"\\ud800x\"", "surrogate");
    ]
  in
  List.iter
    (fun (src, frag) ->
      match J.parse src with
      | Ok _ -> Alcotest.failf "accepted %S" src
      | Error e ->
          check (Printf.sprintf "%S -> %s (got %s)" src frag e.J.message) true
            (contains e.J.message frag);
          check "column positive" true (e.J.column >= 1))
    cases

let test_json_depth () =
  let nested k = String.make k '[' ^ String.make k ']' in
  (match J.parse (nested J.max_depth) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth %d refused: %s" J.max_depth e.J.message);
  let deep = Printf.sprintf "nesting deeper than %d" J.max_depth in
  (* one level too many, and a 4 MB line of brackets: the error sits at
     the bracket that opens level 65, whatever follows it *)
  List.iter
    (fun src ->
      match J.parse src with
      | Ok _ -> Alcotest.fail "over-deep nesting accepted"
      | Error e ->
          check_string "depth message" deep e.J.message;
          check_int "depth column" (J.max_depth + 1) e.J.column)
    [ nested (J.max_depth + 1); String.make (4 * 1024 * 1024) '[' ];
  (* inside a request, behind an object: column of the offending '{' *)
  let prefix = {|{"kind":"stats","id":|} in
  let line = prefix ^ String.concat "" (List.init 70 (fun _ -> {|{"a":|})) in
  let e = err_of line in
  check_string "request depth message" ("invalid JSON: " ^ deep) e.P.message;
  check "request depth column" true
    (e.P.column = Some (String.length prefix + (5 * (J.max_depth - 1)) + 1))

(* The character-at-a-time parser that [Json.parse]'s run-copying string
   scanner replaced, kept as its oracle. *)
module Oracle_json = struct
  type t = J.t =
    | Null
    | Bool of bool
    | Int of int
    | Str of string
    | List of t list
    | Obj of (string * t) list

  type error = J.error = { column : int; message : string }

  exception Fail of error

  let fail pos message = raise (Fail { column = pos + 1; message })

  (* ------------------------------------------------------------------ *)
  (* Parsing                                                            *)

  type cursor = { src : string; mutable pos : int }

  let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

  let advance cur = cur.pos <- cur.pos + 1

  let skip_ws cur =
    let n = String.length cur.src in
    while
      cur.pos < n
      && (match cur.src.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance cur
    done

  let expect cur c =
    match peek cur with
    | Some c' when c' = c -> advance cur
    | Some c' -> fail cur.pos (Printf.sprintf "expected '%c', found '%c'" c c')
    | None -> fail cur.pos (Printf.sprintf "expected '%c', found end of input" c)

  let literal cur word value =
    let n = String.length word in
    if
      cur.pos + n <= String.length cur.src
      && String.sub cur.src cur.pos n = word
    then (
      cur.pos <- cur.pos + n;
      value)
    else fail cur.pos (Printf.sprintf "expected \"%s\"" word)

  let hex_digit cur c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail cur.pos "invalid hex digit in \\u escape"

  (* Encode a Unicode scalar value as UTF-8.  Surrogate pairs in the input
     are combined by the caller.  [add_uint8] keeps the low byte of each
     computed code unit, which is already below 256. *)
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_uint8 buf code
    else if code < 0x800 then begin
      Buffer.add_uint8 buf (0xC0 lor (code lsr 6));
      Buffer.add_uint8 buf (0x80 lor (code land 0x3F))
    end
    else if code < 0x10000 then begin
      Buffer.add_uint8 buf (0xE0 lor (code lsr 12));
      Buffer.add_uint8 buf (0x80 lor ((code lsr 6) land 0x3F));
      Buffer.add_uint8 buf (0x80 lor (code land 0x3F))
    end
    else begin
      Buffer.add_uint8 buf (0xF0 lor (code lsr 18));
      Buffer.add_uint8 buf (0x80 lor ((code lsr 12) land 0x3F));
      Buffer.add_uint8 buf (0x80 lor ((code lsr 6) land 0x3F));
      Buffer.add_uint8 buf (0x80 lor (code land 0x3F))
    end

  let parse_hex4 cur =
    if cur.pos + 4 > String.length cur.src then
      fail cur.pos "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      v := (!v * 16) + hex_digit cur cur.src.[cur.pos];
      advance cur
    done;
    !v

  let parse_string_body cur =
    expect cur '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek cur with
      | None -> fail cur.pos "unterminated string"
      | Some '"' ->
          advance cur;
          Buffer.contents buf
      | Some '\\' -> (
          advance cur;
          match peek cur with
          | None -> fail cur.pos "unterminated escape"
          | Some c ->
              advance cur;
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  let hi = parse_hex4 cur in
                  if hi >= 0xD800 && hi <= 0xDBFF then begin
                    (* high surrogate: require the paired low surrogate *)
                    if
                      cur.pos + 2 <= String.length cur.src
                      && cur.src.[cur.pos] = '\\'
                      && cur.src.[cur.pos + 1] = 'u'
                    then begin
                      advance cur;
                      advance cur;
                      let lo = parse_hex4 cur in
                      if lo < 0xDC00 || lo > 0xDFFF then
                        fail cur.pos "invalid low surrogate";
                      add_utf8 buf
                        (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
                    end
                    else fail cur.pos "unpaired high surrogate"
                  end
                  else if hi >= 0xDC00 && hi <= 0xDFFF then
                    fail cur.pos "unpaired low surrogate"
                  else add_utf8 buf hi
              | _ -> fail (cur.pos - 1) (Printf.sprintf "invalid escape '\\%c'" c));
              loop ())
      | Some c when Char.code c < 0x20 ->
          fail cur.pos "unescaped control character in string"
      | Some c ->
          advance cur;
          Buffer.add_char buf c;
          loop ()
    in
    loop ()

  let parse_number cur =
    let start = cur.pos in
    (match peek cur with Some '-' -> advance cur | _ -> ());
    let digits = ref 0 in
    let rec eat () =
      match peek cur with
      | Some ('0' .. '9') ->
          incr digits;
          advance cur;
          eat ()
      | _ -> ()
    in
    eat ();
    if !digits = 0 then fail start "invalid number";
    (match peek cur with
    | Some ('.' | 'e' | 'E') ->
        fail cur.pos "non-integer numbers are not supported"
    | _ -> ());
    let s = String.sub cur.src start (cur.pos - start) in
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> fail start "integer out of range"

  let max_depth = 64

  (* [depth] counts the arrays and objects that enclose the value; opening
     one more than [max_depth] fails at its bracket, so a line of brackets
     costs bounded stack whatever its length. *)
  let rec parse_value cur depth =
    skip_ws cur;
    match peek cur with
    | None -> fail cur.pos "unexpected end of input"
    | Some ('{' | '[') when depth >= max_depth ->
        fail cur.pos (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
        advance cur;
        skip_ws cur;
        if peek cur = Some '}' then (
          advance cur;
          Obj [])
        else begin
          let fields = ref [] in
          let seen = ref [] in
          let rec members () =
            skip_ws cur;
            let key_pos = cur.pos in
            let key = parse_string_body cur in
            if List.mem key !seen then
              fail key_pos (Printf.sprintf "duplicate key \"%s\"" key);
            seen := key :: !seen;
            skip_ws cur;
            expect cur ':';
            let v = parse_value cur (depth + 1) in
            fields := (key, v) :: !fields;
            skip_ws cur;
            match peek cur with
            | Some ',' ->
                advance cur;
                members ()
            | Some '}' -> advance cur
            | Some c ->
                fail cur.pos (Printf.sprintf "expected ',' or '}', found '%c'" c)
            | None -> fail cur.pos "unterminated object"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance cur;
        skip_ws cur;
        if peek cur = Some ']' then (
          advance cur;
          List [])
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value cur (depth + 1) in
            items := v :: !items;
            skip_ws cur;
            match peek cur with
            | Some ',' ->
                advance cur;
                elements ()
            | Some ']' -> advance cur
            | Some c ->
                fail cur.pos (Printf.sprintf "expected ',' or ']', found '%c'" c)
            | None -> fail cur.pos "unterminated array"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string_body cur)
    | Some 't' -> literal cur "true" (Bool true)
    | Some 'f' -> literal cur "false" (Bool false)
    | Some 'n' -> literal cur "null" Null
    | Some ('-' | '0' .. '9') -> parse_number cur
    | Some c -> fail cur.pos (Printf.sprintf "unexpected character '%c'" c)

  let parse s =
    let cur = { src = s; pos = 0 } in
    try
      let v = parse_value cur 0 in
      skip_ws cur;
      match peek cur with
      | None -> Ok v
      | Some c ->
          Error
            {
              column = cur.pos + 1;
              message = Printf.sprintf "trailing input starting at '%c'" c;
            }
    with Fail e -> Error e
end

(* The request lines of perfbench's serve-distinct templates (seed 1): the
   same draws as perfbench/gen.ml, so the oracle sees the lines the daemon
   parses most. *)
let distinct_template_lines () =
  let module RC = Radio_config.Random_config in
  let module F = Radio_config.Families in
  let st = Random.State.make [| 1; 1 |] in
  let between lo hi = lo + Random.State.int st (hi - lo + 1) in
  let relabel c =
    let p = Array.init (C.size c) Fun.id in
    for i = Array.length p - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- x
    done;
    C.relabel c p
  in
  List.init 512 (fun k ->
      let span = between 1 3 in
      let n = between 32 256 in
      let config =
        match k / 10 mod 4 with
        | 0 -> relabel (F.g_family (between 8 24))
        | 1 ->
            relabel
              (RC.connected_gnp st ~n ~p:(2.0 /. float_of_int n) ~span)
        | 2 -> RC.random_tree st ~n ~span
        | _ -> relabel (RC.random_path st ~n ~span)
      in
      let kind =
        match k mod 10 with
        | 0 | 1 | 2 | 3 | 4 -> "classify"
        | 5 | 6 | 7 -> "elect"
        | _ -> "simulate"
      in
      J.to_string
        (J.Obj
           [
             ("id", J.Int k);
             ("kind", J.Str kind);
             ("config", J.Str (Radio_config.Config_io.to_string config));
           ]))

(* [Json.parse] = the oracle, value or positioned error, on the template
   lines and on mutations of each: escapes, surrogates (paired, unpaired,
   bad low half), invalid escapes, raw control characters and truncations
   spliced into the config string. *)
let test_json_string_oracle () =
  let st = Random.State.make [| 0x5eed |] in
  let splices =
    [|
      {|\"|}; {|\\|}; {|\/|}; {|\b\f\n\r\t|}; {|\u00e9|}; {|\u20ac|};
      {|\ud83d\ude00|}; {|\ud83d|}; {|\udc00|}; {|\ud83dA|};
      {|\ud83d\|}; {|\x|}; {|\u12|}; {|\u12g4|}; "\001"; "\031"; "\127";
      "\xc3\xa9"; {|"|}; {|\|}; "";
    |]
  in
  let same line =
    match (J.parse line, Oracle_json.parse line) with
    | Ok a, Ok b -> a = b
    | Error a, Error b -> a = b
    | _ -> false
  in
  let checked = ref 0 in
  List.iter
    (fun line ->
      let len = String.length line in
      (* the config string's body starts after the line's last colon and
         opening quote *)
      let rec body i =
        if String.sub line i 2 = {|:"|} then i + 2 else body (i - 1)
      in
      let body = body (len - 2) in
      let variants =
        line
        :: List.init 6 (fun _ ->
               let at = body + Random.State.int st (len - body) in
               let s = splices.(Random.State.int st (Array.length splices)) in
               String.sub line 0 at ^ s ^ String.sub line at (len - at))
        @ List.init 3 (fun _ -> String.sub line 0 (Random.State.int st len))
      in
      List.iter
        (fun v ->
          incr checked;
          if not (same v) then
            Alcotest.failf "Json.parse differs from the oracle on %S" v)
        variants)
    (distinct_template_lines ());
  check_int "lines checked" (512 * 10) !checked

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check "a present" true (Cache.find c "a" = Some 1);
  (* "a" is now most recent; adding "c" evicts "b" *)
  Cache.add c "c" 3;
  check "b evicted" true (Cache.find c "b" = None);
  check "a kept" true (Cache.find c "a" = Some 1);
  check "c kept" true (Cache.find c "c" = Some 3);
  check_int "evictions" 1 (Cache.evictions c);
  check_int "length" 2 (Cache.length c)

let test_cache_disabled () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  check "disabled cache never hits" true (Cache.find c "a" = None);
  check_int "no entries" 0 (Cache.length c)

(* ------------------------------------------------------------------ *)
(* Canonical cache key                                                 *)
(* ------------------------------------------------------------------ *)

(* Deterministic xorshift so the test needs no global RNG state. *)
let rng seed =
  let s = ref (seed lor 1) in
  fun bound ->
    s := !s lxor (!s lsl 13);
    s := !s lxor (!s lsr 7);
    s := !s lxor (!s lsl 17);
    abs !s mod bound

let random_perm rand n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = rand (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let test_cache_key_iso_invariant () =
  let rand = rng 0x5eed in
  let base =
    [
      C.create (G.of_edges 4 [ (0, 1); (1, 2); (2, 3) ]) [| 2; 0; 0; 3 |];
      C.create (G.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]) [| 0; 0; 1; 1; 2 |];
      C.create (G.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (0, 3) ]) [| 1; 0; 0; 1; 0; 0 |];
    ]
  in
  List.iter
    (fun c ->
      let key = Can.cache_key c in
      for _ = 1 to 20 do
        let p = random_perm rand (C.size c) in
        let c' = C.relabel c p in
        check_string "cache_key invariant under relabeling" key
          (Can.cache_key c')
      done)
    base;
  (* and the canonical form is a fixpoint: canon of canon = canon *)
  List.iter
    (fun c ->
      let canon, _ = Can.canonical_form c in
      let canon2, perm2 = Can.canonical_form canon in
      check "canonical form is a fixpoint" true (C.equal canon canon2);
      (* [perm2] need not be the identity when the canonical form has
         non-trivial automorphisms (e.g. a cycle); it must still be a
         permutation, and relabeling by it must leave the form fixed. *)
      let n = C.size canon in
      let seen = Array.make n false in
      Array.iter (fun p -> seen.(p) <- true) perm2;
      Array.iteri
        (fun i s -> check ("fixpoint perm covers " ^ string_of_int i) true s)
        seen;
      check_string "fixpoint perm is an automorphism" (Can.raw_key canon)
        (Can.raw_key (C.relabel canon perm2)))
    base

let test_cache_key_separates () =
  let a = C.create (G.of_edges 3 [ (0, 1); (1, 2) ]) [| 0; 0; 1 |] in
  let b = C.create (G.of_edges 3 [ (0, 1); (1, 2) ]) [| 0; 1; 0 |] in
  check "different configs, different keys" true
    (Can.cache_key a <> Can.cache_key b)

(* The Buffer-and-edge-list [raw_key] the one-pass writer replaced, kept
   as its oracle. *)
let oracle_raw_key c =
  let b = Buffer.create 64 in
  Buffer.add_string b (string_of_int (C.size c));
  Buffer.add_char b '|';
  Array.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int t))
    (C.tags c);
  Buffer.add_char b '|';
  List.iteri
    (fun i (u, v) ->
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int u);
      Buffer.add_char b '-';
      Buffer.add_string b (string_of_int v))
    (G.edges (C.graph c));
  Buffer.contents b

let test_raw_key_differential () =
  let st = Random.State.make [| 0x4a11 |] in
  let random_config n =
    let g =
      Radio_graph.Gen.random_gnp st n
        (Random.State.float st (6. /. float_of_int n))
    in
    let span = [| 1; 9; 10; 99; 100_000 |].(Random.State.int st 5) in
    C.create ~normalize:false g
      (Array.init n (fun _ -> Random.State.int st (span + 1)))
  in
  let configs =
    [
      C.create (G.empty 0) [||];
      C.create (G.empty 1) [| 0 |];
      C.create ~normalize:false (G.empty 1) [| 12345 |];
      C.create ~normalize:false (G.empty 3) [| 7; 70; 700 |];
      Radio_config.Families.g_family 8;
      Radio_config.Families.g_family 40;
      Radio_config.Families.h_family 2;
      Radio_config.Families.h_family 5;
    ]
    @ List.init 120 (fun i ->
          random_config (1 + Random.State.int st (if i < 60 then 12 else 300)))
  in
  List.iter
    (fun c ->
      check_string "raw_key = oracle" (oracle_raw_key c) (Can.raw_key c);
      let canon, _ = Can.canonical_form c in
      check_string "cache_key = oracle of the canonical form"
        (oracle_raw_key canon) (Can.cache_key c))
    configs

(* ------------------------------------------------------------------ *)
(* Protocol negatives                                                  *)
(* ------------------------------------------------------------------ *)

let test_protocol_negative () =
  let e = err_of "{\"kind\":\"warble\"}" in
  check "unknown kind listed" true (contains e.P.message "unknown request kind");
  check "known kinds listed" true (contains e.P.message "mc-check");
  let e = err_of "{\"kind\":\"classify\"}" in
  check "missing config" true (contains e.P.message "missing field \"config\"");
  let e = err_of "{\"kind\":\"classify\",\"config\":\"config 0\\n\"}" in
  check "invalid config" true (contains e.P.message "invalid config");
  (* Bad edges and tags are positioned errors, not escaping exceptions. *)
  List.iter
    (fun (name, cfg, line) ->
      let e =
        err_of (Printf.sprintf "{\"kind\":\"classify\",\"config\":%S}" cfg)
      in
      check name true
        (contains e.P.message "invalid config"
        && contains e.P.message (Printf.sprintf "line %d:" line)))
    [
      ("out-of-range edge", "config 3\ntags 0 0 1\n0 5\n", 3);
      ("self-loop", "config 3\ntags 0 0 1\n0 0\n", 3);
      ("repeated edge", "config 3\ntags 0 0 1\n0 1\n1 2\n1 0\n", 5);
      ("negative tag", "config 3\ntags 0 -1 1\n0 1\n", 2);
    ];
  let e = err_of "{\"kind\":\"classify\",\"config\":\"config 1\\ntags 0\\n\",\"depth\":3}" in
  check "field rejected per kind" true (contains e.P.message "unknown field");
  let e = err_of "{\"kind\":\"elect\",\"config\":\"config 1\\ntags 0\\n\",\"max_rounds\":0}" in
  check "nonpositive max_rounds" true (contains e.P.message "must be positive");
  let e = err_of "{\"kind\":\"mc-check\",\"config\":\"config 1\\ntags 0\\n\",\"protocol\":\"nope\"}" in
  check "unknown protocol" true (contains e.P.message "unknown protocol");
  let e = err_of "not json at all" in
  check "json error positioned" true (e.P.column <> None);
  let big = String.make (P.max_config_bytes + 1) 'x' in
  let e = err_of (Printf.sprintf "{\"kind\":\"classify\",\"config\":%s}" (J.to_string (J.Str big))) in
  check "oversized config" true (contains e.P.message "config too large")

let test_protocol_id_echo () =
  let p = P.parse "{\"id\":\"req-1\",\"kind\":\"stats\"}" in
  check "id echoed" true (p.P.id = J.Str "req-1");
  check "stats parsed" true (match p.P.request with Ok P.Stats -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Service / server determinism                                        *)
(* ------------------------------------------------------------------ *)

let family_h2 = "config 4\ntags 2 0 0 3\n0 1\n1 2\n2 3\n"
let triangle = "config 3\ntags 0 0 0\n0 1\n1 2\n2 0\n"  (* infeasible *)
let star = "config 4\ntags 1 0 0 0\n0 1\n0 2\n0 3\n"
let h2_reversed = "config 4\ntags 3 0 0 2\n0 1\n1 2\n2 3\n"

let quote s = J.to_string (J.Str s)

let request_lines =
  [
    Printf.sprintf "{\"id\":1,\"kind\":\"classify\",\"config\":%s}" (quote family_h2);
    Printf.sprintf "{\"id\":2,\"kind\":\"classify\",\"config\":%s}" (quote triangle);
    Printf.sprintf "{\"id\":3,\"kind\":\"elect\",\"config\":%s}" (quote family_h2);
    Printf.sprintf "{\"id\":4,\"kind\":\"simulate\",\"config\":%s,\"max_rounds\":500}" (quote star);
    Printf.sprintf "{\"id\":5,\"kind\":\"mc-check\",\"config\":%s}" (quote family_h2);
    Printf.sprintf "{\"id\":6,\"kind\":\"classify\",\"config\":%s}" (quote h2_reversed);
    Printf.sprintf "{\"id\":7,\"kind\":\"elect\",\"config\":%s}" (quote star);
    "{\"id\":8,\"kind\":\"classify\"}";
    "broken json";
    Printf.sprintf "{\"id\":9,\"kind\":\"simulate\",\"config\":%s}" (quote triangle);
  ]

let opts ?(cache = 64) ?(jobs = 1) ?(max_batch = 64) () =
  {
    Server.default_options with
    Server.jobs = Some jobs;
    cache_entries = cache;
    max_batch;
  }

let serve ?service ?(cache = 64) ?(jobs = 1) ?(max_batch = 64) lines =
  Server.run_string ?service (opts ~cache ~jobs ~max_batch ())
    (String.concat "\n" lines ^ "\n")

(* Responses paired back to their request line, so streams can be compared
   per-request even after shuffling.  Distinct request lines in
   [request_lines] have distinct ids, and responses preserve order. *)
let response_map lines output =
  let responses = String.split_on_char '\n' (String.trim output) in
  check_int "one response per request" (List.length lines) (List.length responses);
  List.combine lines responses

let test_shuffled_replay_deterministic () =
  let rand = rng 0xCAFE in
  let baseline = response_map request_lines (serve request_lines) in
  let expect line =
    match List.assoc_opt line baseline with
    | Some r -> r
    | None -> Alcotest.fail "request missing from baseline"
  in
  let shuffle l =
    let a = Array.of_list l in
    let p = random_perm rand (Array.length a) in
    Array.to_list (Array.map (fun i -> a.(i)) p)
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun cache ->
          (* shuffled stream, then the original replayed on the same warm
             service: every response must equal the cold baseline's *)
          let service = Service.create ~cache_entries:cache in
          let shuffled = shuffle request_lines in
          let first = serve ~service ~cache ~jobs shuffled in
          List.iter
            (fun (line, resp) ->
              check_string
                (Printf.sprintf "shuffled (jobs=%d cache=%d)" jobs cache)
                (expect line) resp)
            (response_map shuffled first);
          let second = serve ~service ~cache ~jobs request_lines in
          List.iter
            (fun (line, resp) ->
              check_string
                (Printf.sprintf "warm replay (jobs=%d cache=%d)" jobs cache)
                (expect line) resp)
            (response_map request_lines second))
        [ 0; 64 ])
    [ 1; 2; 4 ]

let test_batch_size_invariant () =
  let baseline = serve ~max_batch:1 request_lines in
  List.iter
    (fun max_batch ->
      check_string
        (Printf.sprintf "max_batch=%d" max_batch)
        baseline
        (serve ~max_batch request_lines))
    [ 2; 3; 64 ]

let test_iso_requests_share_cache () =
  let service = Service.create ~cache_entries:64 in
  let lines =
    [
      Printf.sprintf "{\"id\":1,\"kind\":\"classify\",\"config\":%s}" (quote family_h2);
      Printf.sprintf "{\"id\":2,\"kind\":\"classify\",\"config\":%s}" (quote h2_reversed);
    ]
  in
  ignore (serve ~service lines);
  let tel = Service.telemetry service in
  check_int "isomorphic request hits the same entry" 1 tel.Service.cache_hits;
  check_int "one analysis computed" 1 tel.Service.cache_misses;
  check_int "one cache entry" 1 tel.Service.cache_entries

let test_iso_equivariant_leader () =
  (* h2 reversed is h2 relabeled by v -> 3 - v: the elected node must be
     the same physical node, i.e. ids map through the relabeling. *)
  let leader_of config =
    let out =
      serve [ Printf.sprintf "{\"id\":0,\"kind\":\"classify\",\"config\":%s}" (quote config) ]
    in
    match J.parse (String.trim out) with
    | Ok o -> (
        match Option.bind (J.member "result" o) (J.member "leader") with
        | Some (J.Int v) -> v
        | _ -> Alcotest.fail "no leader in response")
    | Error _ -> Alcotest.fail "unparseable response"
  in
  let a = leader_of family_h2 in
  let b = leader_of h2_reversed in
  check_int "leader maps through the relabeling" (3 - a) b

(* mc-check resolves its analysis through the cache like every other
   kind: a classify, an mc-check of the same configuration, one of a
   relabelling and a mutant mc-check share one entry.  Each run feeds the
   stream twice on one service; the responses do not depend on the cache
   or the pool, and the telemetry counts every request's resolution. *)
let test_mc_check_shares_cache () =
  let stream =
    [
      Printf.sprintf "{\"id\":1,\"kind\":\"classify\",\"config\":%s}" (quote family_h2);
      Printf.sprintf "{\"id\":2,\"kind\":\"mc-check\",\"config\":%s}" (quote family_h2);
      Printf.sprintf "{\"id\":3,\"kind\":\"mc-check\",\"config\":%s}" (quote h2_reversed);
      Printf.sprintf
        "{\"id\":4,\"kind\":\"mc-check\",\"config\":%s,\"protocol\":\"mutant-greedy-decision\"}"
        (quote family_h2);
    ]
  in
  let run ~cache ~jobs =
    let service = Service.create ~cache_entries:cache in
    let cold = serve ~service ~cache ~jobs stream in
    let warm = serve ~service ~cache ~jobs stream in
    (cold, warm, Service.telemetry service)
  in
  let baseline, _, _ = run ~cache:256 ~jobs:1 in
  (match String.split_on_char '\n' (String.trim baseline) with
  | [ _; mc; relabelled; mutant ] ->
      let leader line =
        match J.parse line with
        | Ok o -> (
            match
              Option.bind
                (Option.bind (J.member "result" o) (J.member "verdict"))
                (J.member "leader")
            with
            | Some (J.Int v) -> v
            | _ -> Alcotest.fail ("no elected leader: " ^ line))
        | Error _ -> Alcotest.fail "unparseable response"
      in
      (* H_2 reversed is H_2 relabelled by v -> 3 - v *)
      check_int "relabelled leader maps back" (3 - leader mc)
        (leader relabelled);
      check "mutant caught" true (contains mutant "mc-two-leaders")
  | lines -> Alcotest.failf "expected four responses, got %d" (List.length lines));
  List.iter
    (fun (cache, jobs, hits, misses) ->
      let cold, warm, tel = run ~cache ~jobs in
      let label what = Printf.sprintf "%s (cache=%d jobs=%d)" what cache jobs in
      check_string (label "cold") baseline cold;
      check_string (label "warm") baseline warm;
      check_int (label "hits") hits tel.Service.cache_hits;
      check_int (label "misses") misses tel.Service.cache_misses)
    [ (256, 1, 7, 1); (256, 2, 7, 1); (0, 1, 6, 2); (0, 2, 6, 2) ]

let test_stats_prefix_exact () =
  let lines =
    [
      Printf.sprintf "{\"id\":1,\"kind\":\"classify\",\"config\":%s}" (quote family_h2);
      "junk";
      "{\"id\":2,\"kind\":\"stats\"}";
      Printf.sprintf "{\"id\":3,\"kind\":\"classify\",\"config\":%s}" (quote family_h2);
      "{\"id\":4,\"kind\":\"stats\"}";
    ]
  in
  let out = serve lines in
  let stats_results =
    List.filter_map
      (fun line ->
        match J.parse line with
        | Ok o when J.member "kind" o = Some (J.Str "stats") ->
            J.member "result" o
        | _ -> None)
      (String.split_on_char '\n' (String.trim out))
  in
  match stats_results with
  | [ first; second ] ->
      check "first stats counts its prefix" true
        (J.member "total" first = Some (J.Int 3));
      check "second stats counts the full stream" true
        (J.member "total" second = Some (J.Int 5));
      check "errors counted" true (J.member "errors" first = Some (J.Int 1))
  | _ -> Alcotest.fail "expected two stats responses"

(* The lookahead queue: lines are read and decoded ahead of the wave
   that serves them, and a stats request still cuts its wave.  One stream
   puts stats, junk, blank and oversized lines at the edges of drained
   batches (positions max_batch - 1, max_batch, max_batch + 1 for every
   max_batch below); its response stream must not depend on max_batch,
   jobs or the cache, and every stats total must be its exact prefix. *)
let test_lookahead_determinism () =
  let oversized = String.make (4 * 1024 * 1024 + 16) 'x' in
  let configs = [| family_h2; triangle; star; h2_reversed |] in
  let special = [ 0; 1; 2; 4; 5; 6; 9; 10; 63; 64; 65; 66; 128; 129 ] in
  let specials = [| `Stats; `Junk; `Oversized; `Stats; `Blank; `Junk |] in
  let stream =
    List.init 140 (fun i ->
        let kind =
          match List.find_index (( = ) i) special with
          | Some j -> specials.(j mod Array.length specials)
          | None -> if i mod 7 = 3 then `Elect else `Classify
        in
        let cfg = quote configs.(i mod Array.length configs) in
        match kind with
        | `Stats -> (`Stats, Printf.sprintf {|{"id":%d,"kind":"stats"}|} i)
        | `Junk -> (`Error, "{\"id\":" ^ string_of_int i ^ ",junk")
        | `Oversized -> (`Error, oversized)
        | `Blank -> (`Blank, "   ")
        | `Elect ->
            ( `Elect,
              Printf.sprintf {|{"id":%d,"kind":"elect","config":%s}|} i cfg )
        | `Classify ->
            ( `Classify,
              Printf.sprintf {|{"id":%d,"kind":"classify","config":%s}|} i cfg ))
  in
  let lines = List.map snd stream in
  let baseline = serve ~cache:0 ~jobs:1 ~max_batch:1 lines in
  (* every stats response counts exactly the requests up to itself *)
  let answered = List.filter (fun (k, _) -> k <> `Blank) stream in
  let responses = String.split_on_char '\n' (String.trim baseline) in
  check_int "one response per non-blank line" (List.length answered)
    (List.length responses);
  let stats_seen = ref 0 in
  List.iteri
    (fun i ((kind, _), response) ->
      if kind = `Stats then begin
        incr stats_seen;
        let prefix = List.filteri (fun j _ -> j <= i) answered in
        let count k = List.length (List.filter (fun (k', _) -> k' = k) prefix) in
        let expected =
          Printf.sprintf
            ({|"result":{"requests":{"classify":%d,"elect":%d,"simulate":0,|}
            ^^ {|"mc-check":0,"stats":%d},"errors":%d,"total":%d}|})
            (count `Classify) (count `Elect) (count `Stats) (count `Error)
            (i + 1)
        in
        check (Printf.sprintf "stats at %d is its prefix" i) true
          (contains response expected)
      end)
    (List.combine answered responses);
  check "stats responses checked" true (!stats_seen >= 3);
  List.iter
    (fun max_batch ->
      List.iter
        (fun jobs ->
          List.iter
            (fun cache ->
              check_string
                (Printf.sprintf "max_batch=%d jobs=%d cache=%d" max_batch jobs
                   cache)
                baseline
                (serve ~cache ~jobs ~max_batch lines))
            [ 0; 64 ])
        [ 1; 2; 4 ])
    [ 1; 2; 5; 64 ]

let test_eof_mid_line () =
  (* final line missing its newline is still answered; the response stream
     stays well-formed *)
  let input =
    Printf.sprintf "{\"id\":1,\"kind\":\"classify\",\"config\":%s}\n{\"id\":2,\"kind\":\"sta"
      (quote family_h2)
  in
  let out = Server.run_string (opts ()) input in
  let lines = String.split_on_char '\n' (String.trim out) in
  check_int "two responses" 2 (List.length lines);
  check "truncated request answered with an error" true
    (contains (List.nth lines 1) "\"status\":\"error\"")

let test_mc_check_ceilings () =
  (* Explicit mc-check budgets above the fixed ceilings are refused with
     the field and the limit named, and the daemon answers the next
     request as usual. *)
  let cfg = quote family_h2 in
  let mc field value =
    Printf.sprintf "{\"id\":%S,\"kind\":\"mc-check\",\"config\":%s,\"%s\":%d}"
      field cfg field value
  in
  List.iter
    (fun (field, limit) ->
      let e = err_of (mc field (limit + 1)) in
      check (field ^ " over limit named") true
        (contains e.P.message (Printf.sprintf "field \"%s\" too large" field)
        && contains e.P.message (Printf.sprintf "limit %d" limit));
      match (P.parse (mc field limit)).P.request with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s at the limit rejected: %s" field e.P.message)
    [ ("states", P.max_mc_states); ("depth", P.max_mc_depth) ];
  let out =
    serve
      [
        mc "states" 1_000_000_000;
        mc "depth" (P.max_mc_depth + 1);
        Printf.sprintf "{\"id\":3,\"kind\":\"classify\",\"config\":%s}" cfg;
      ]
  in
  match String.split_on_char '\n' (String.trim out) with
  | [ a; b; c ] ->
      check "states refused" true
        (contains a "\"status\":\"error\"" && contains a "limit 2000000");
      check "depth refused" true
        (contains b "\"status\":\"error\"" && contains b "limit 100000");
      check "still serving" true (contains c "\"status\":\"ok\"")
  | lines -> Alcotest.failf "expected three responses, got %d" (List.length lines)

let test_round_ceilings () =
  (* elect and simulate refuse a max_rounds above the round default with
     the same structured error as an mc-check depth, and accept it at the
     limit; the daemon answers the next request as usual. *)
  let cfg = quote family_h2 in
  let req kind rounds =
    Printf.sprintf "{\"id\":%S,\"kind\":%S,\"config\":%s,\"max_rounds\":%d}"
      kind kind cfg rounds
  in
  List.iter
    (fun kind ->
      let e = err_of (req kind (P.default_max_rounds + 1)) in
      check (kind ^ " max_rounds over limit") true
        (e.P.message
        = Printf.sprintf "field \"max_rounds\" too large (%d > limit %d)"
            (P.default_max_rounds + 1) P.default_max_rounds);
      match (P.parse (req kind P.default_max_rounds)).P.request with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "%s at the limit rejected: %s" kind e.P.message)
    [ "elect"; "simulate" ];
  let out =
    serve
      [
        req "elect" 1_000_000_000;
        req "simulate" (P.default_max_rounds + 1);
        Printf.sprintf "{\"id\":3,\"kind\":\"simulate\",\"config\":%s}" cfg;
      ]
  in
  match String.split_on_char '\n' (String.trim out) with
  | [ a; b; c ] ->
      check "elect refused" true
        (contains a "\"status\":\"error\"" && contains a "limit 100000");
      check "simulate refused" true
        (contains b "\"status\":\"error\"" && contains b "limit 100000");
      check "still serving" true (contains c "\"status\":\"ok\"")
  | lines ->
      Alcotest.failf "expected three responses, got %d" (List.length lines)

let test_mc_check_default_depth () =
  (* An mc-check without depth runs to the checker's own bound when that
     is below max_mc_depth (the answer is the explicit request's), and to
     max_mc_depth beyond it: the bound grows as n^2 σ. *)
  let mc depth =
    Printf.sprintf "{\"id\":1,\"kind\":\"mc-check\",\"config\":%s%s}"
      (quote family_h2)
      (match depth with
      | None -> ""
      | Some d -> Printf.sprintf ",\"depth\":%d" d)
  in
  let h2 = Radio_config.Config_io.of_string family_h2 in
  let own = Radio_mc.Checker.default_depth h2 in
  check "H_2 bound below the ceiling" true (own < P.max_mc_depth);
  check "omitted depth = the checker's bound" true
    (serve [ mc None ] = serve [ mc (Some own) ]);
  let long_path =
    Radio_config.Families.tagged_path (Array.init 200 (fun i -> i mod 3))
  in
  check "a 200-node bound exceeds the ceiling" true
    (Radio_mc.Checker.default_depth long_path > P.max_mc_depth)

let test_mc_check_agrees_with_classify () =
  (* canonical routing: the leader reported by classify, elect and
     mc-check must be the same node (docs/SERVE.md) *)
  List.iter
    (fun config ->
      let out =
        serve
          [
            Printf.sprintf "{\"id\":1,\"kind\":\"classify\",\"config\":%s}" (quote config);
            Printf.sprintf "{\"id\":2,\"kind\":\"elect\",\"config\":%s}" (quote config);
            Printf.sprintf "{\"id\":3,\"kind\":\"mc-check\",\"config\":%s}" (quote config);
          ]
      in
      let leaders =
        List.filter_map
          (fun line ->
            match J.parse line with
            | Ok o -> (
                let r = J.member "result" o in
                match Option.bind r (J.member "leader") with
                | Some (J.Int v) -> Some v
                | _ -> (
                    match
                      Option.bind
                        (Option.bind r (J.member "verdict"))
                        (J.member "leader")
                    with
                    | Some (J.Int v) -> Some v
                    | _ -> None))
            | Error _ -> None)
          (String.split_on_char '\n' (String.trim out))
      in
      match leaders with
      | [ a; b; c ] ->
          check_int "classify = elect" a b;
          check_int "classify = mc-check" a c
      | _ -> Alcotest.fail "expected three leaders")
    [ family_h2; h2_reversed; star ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode" `Quick test_json_unicode;
          Alcotest.test_case "negative" `Quick test_json_negative;
          Alcotest.test_case "nesting depth" `Quick test_json_depth;
          Alcotest.test_case "string scanner = oracle" `Quick
            test_json_string_oracle;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "capacity 0 disables" `Quick test_cache_disabled;
          Alcotest.test_case "key iso-invariant" `Quick
            test_cache_key_iso_invariant;
          Alcotest.test_case "key separates" `Quick test_cache_key_separates;
          Alcotest.test_case "raw key = oracle" `Quick test_raw_key_differential;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "negative" `Quick test_protocol_negative;
          Alcotest.test_case "id echo" `Quick test_protocol_id_echo;
          Alcotest.test_case "mc-check ceilings" `Quick test_mc_check_ceilings;
          Alcotest.test_case "round ceilings" `Quick test_round_ceilings;
          Alcotest.test_case "mc-check default depth" `Quick
            test_mc_check_default_depth;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "shuffled replay, jobs x cache" `Slow
            test_shuffled_replay_deterministic;
          Alcotest.test_case "batch size invariant" `Quick
            test_batch_size_invariant;
          Alcotest.test_case "iso requests share cache" `Quick
            test_iso_requests_share_cache;
          Alcotest.test_case "iso-equivariant leader" `Quick
            test_iso_equivariant_leader;
          Alcotest.test_case "stats prefix exact" `Quick test_stats_prefix_exact;
          Alcotest.test_case "mc-check shares the cache" `Quick
            test_mc_check_shares_cache;
          Alcotest.test_case "lookahead determinism" `Quick
            test_lookahead_determinism;
          Alcotest.test_case "eof mid-line" `Quick test_eof_mid_line;
          Alcotest.test_case "mc-check agrees with classify" `Slow
            test_mc_check_agrees_with_classify;
        ] );
    ]
