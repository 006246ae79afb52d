type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

type error = { column : int; message : string }

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

(* The end of the run of bytes a string copies as they are (neither a
   quote, a backslash nor a control character) that starts at [i]. *)
let rec run_end src i =
  if i >= String.length src then i
  else
    match src.[i] with
    | '"' | '\\' -> i
    | c when Char.code c < 0x20 -> i
    | _ -> run_end src (i + 1)

(* Each unescaped run is copied whole: a string without escapes is one
   [String.sub]. *)
let parse_string_body cur =
  expect cur '"';
  let src = cur.src in
  let start = cur.pos in
  let stop = run_end src start in
  if stop < String.length src && src.[stop] = '"' then begin
    cur.pos <- stop + 1;
    String.sub src start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf src start (stop - start);
    cur.pos <- stop;
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
                      cur.pos + 2 <= String.length src
                      && src.[cur.pos] = '\\'
                      && src.[cur.pos + 1] = 'u'
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
              | _ ->
                  fail (cur.pos - 1)
                    (Printf.sprintf "invalid escape '\\%c'" c));
              copy_run ())
      | Some _ -> fail cur.pos "unescaped control character in string"
    and copy_run () =
      let i = cur.pos in
      let j = run_end src i in
      Buffer.add_substring buf src i (j - i);
      cur.pos <- j;
      loop ()
    in
    loop ()
  end

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

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Str s -> add_escaped buf s
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            go item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            add_escaped buf k;
            Buffer.add_char buf ':';
            go item)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
