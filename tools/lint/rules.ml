(* Scopes, allow annotations and file helpers shared by the AST rules
   (ast_lint.ml) and the interprocedural analyses. *)

type violation = { path : string; line : int; rule : string; message : string }

(* ------------------------------------------------------------------ *)
(* Comment / string stripping                                          *)
(* ------------------------------------------------------------------ *)

(* Blank out comments (nested), string literals and character literals,
   preserving length and newlines so line/column arithmetic survives.  Type
   variables ('a) are distinguished from character literals by looking
   ahead for the closing quote. *)
let strip source =
  let n = String.length source in
  let out = Bytes.of_string source in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 in
  let comment_depth = ref 0 in
  while !i < n do
    let c = source.[!i] in
    if !comment_depth > 0 then begin
      if c = '(' && !i + 1 < n && source.[!i + 1] = '*' then begin
        incr comment_depth;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && source.[!i + 1] = ')' then begin
        decr comment_depth;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else begin
        blank !i;
        incr i
      end
    end
    else if c = '(' && !i + 1 < n && source.[!i + 1] = '*' then begin
      comment_depth := 1;
      blank !i;
      blank (!i + 1);
      i := !i + 2
    end
    else if c = '"' then begin
      (* String literal: skip to the unescaped closing quote. *)
      blank !i;
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        (match source.[!i] with
        | '\\' when !i + 1 < n ->
            blank !i;
            blank (!i + 1);
            i := !i + 1
        | '"' -> closed := true
        | _ -> blank !i);
        incr i
      done
    end
    else if c = '{' then begin
      (* Quoted string literal {|...|} or {id|...|id}: blank delimiters and
         payload.  A '{' not directly followed by [a-z_]* '|' is ordinary
         code (record literal, functor application) and is left alone. *)
      let j = ref (!i + 1) in
      while
        !j < n
        && (match source.[!j] with 'a' .. 'z' | '_' -> true | _ -> false)
      do
        incr j
      done;
      if !j < n && source.[!j] = '|' then begin
        let id = String.sub source (!i + 1) (!j - !i - 1) in
        let closing = "|" ^ id ^ "}" in
        let cl = String.length closing in
        let k = ref (!j + 1) in
        let stop = ref n in
        while !stop = n && !k + cl <= n do
          if String.sub source !k cl = closing then stop := !k + cl
          else incr k
        done;
        for p = !i to !stop - 1 do
          blank p
        done;
        i := !stop
      end
      else incr i
    end
    else if c = '\'' then begin
      (* Character literal or type variable. *)
      if !i + 2 < n && source.[!i + 1] = '\\' then begin
        (* '\n', '\\', '\'' and numeric escapes: blank to closing quote. *)
        let j = ref (!i + 2) in
        while !j < n && source.[!j] <> '\'' do
          incr j
        done;
        for k = !i to min !j (n - 1) do
          blank k
        done;
        i := !j + 1
      end
      else if !i + 2 < n && source.[!i + 2] = '\'' then begin
        blank !i;
        blank (!i + 1);
        blank (!i + 2);
        i := !i + 3
      end
      else incr i (* type variable or object clone syntax *)
    end
    else incr i
  done;
  Bytes.to_string out

let lines_of s = String.split_on_char '\n' s |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Allow annotations                                                   *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Rules allowed on each (1-based) line: an annotation covers its own line
   and, when the annotated line holds no code, the following line. *)
let allowances ~raw_lines ~stripped_lines =
  let tbl = Hashtbl.create 8 in
  let add line rule =
    Hashtbl.replace tbl (line, rule) ()
  in
  Array.iteri
    (fun idx raw ->
      match String.index_opt raw 'r' with
      | None -> ()
      | Some _ ->
          if contains ~needle:"radiolint: allow" raw then begin
            let after =
              let marker = "radiolint: allow" in
              let rec find i =
                if i + String.length marker > String.length raw then ""
                else if String.sub raw i (String.length marker) = marker then
                  String.sub raw
                    (i + String.length marker)
                    (String.length raw - i - String.length marker)
                else find (i + 1)
              in
              find 0
            in
            let upto =
              match String.index_opt after '*' with
              | Some j -> String.sub after 0 j
              | None -> after
            in
            let rules =
              String.split_on_char ' ' upto
              |> List.concat_map (String.split_on_char ',')
              |> List.filter_map (fun w ->
                     let w = String.trim w in
                     if w = "" then None else Some w)
            in
            let line = idx + 1 in
            List.iter
              (fun rule ->
                add line rule;
                (* An annotation carrying no code covers the comment's
                   remaining lines and the first code line below it. *)
                let k = ref idx in
                while
                  !k < Array.length stripped_lines
                  && String.trim stripped_lines.(!k) = ""
                do
                  incr k;
                  add (!k + 1) rule
                done)
              rules
          end)
    raw_lines;
  fun ~line ~rule -> Hashtbl.mem tbl (line, rule)

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

let normalize path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  let rec drop p =
    if String.length p > 2 && String.sub p 0 2 = "./" then
      drop (String.sub p 2 (String.length p - 2))
    else p
  in
  drop path

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let under_lib path = starts_with ~prefix:"lib/" path || contains ~needle:"/lib/" path

(* Directories in which Random.* is legitimate: randomized baselines own
   their random state, and the generators/config samplers are explicitly
   seeded. *)
let random_allowed path =
  contains ~needle:"lib/baselines/" path
  || contains ~needle:"lib/graph/gen.ml" path
  || contains ~needle:"lib/config/random_config.ml" path

let deterministic_hot_path path =
  contains ~needle:"lib/core/" path
  || contains ~needle:"lib/drip/" path
  || contains ~needle:"lib/sim/" path

(* Fault plans are pure data wherever they live: the fault layer in
   lib/faults/ and the plan module beside the engine that executes it. *)
let in_faults path =
  contains ~needle:"lib/faults/" path
  || contains ~needle:"lib/sim/fault_plan.ml" path

(* The one directory allowed to touch the multicore runtime: the domain
   pool and its merge protocols live there, everything else goes through
   Radio_exec.Pool (docs/PARALLEL.md). *)
let in_exec path = contains ~needle:"lib/exec/" path

(* The packed-state hot paths: raw bit arithmetic (varints, zigzag slot
   maps, FNV probing into Bytes arenas) where a silent overflow or
   truncation corrupts states without any test noticing — the reporting
   scope of the value-range analysis (ranges.ml). *)
let packed_hot_path path =
  contains ~needle:"lib/mc/" path || in_exec path

(* Canonicalization-critical directories: the classifier's orders in
   lib/core/ and the model checker's canonical state encodings in lib/mc/
   must never lean on polymorphic structural comparison — it walks
   representations (closures, interner indices, abstract keys), not
   semantics, and raises on functional values at runtime. *)
let canonical_order_path path =
  contains ~needle:"lib/core/" path || contains ~needle:"lib/mc/" path

(* The declared purity boundary: directories whose code must be a
   deterministic function of local history (docs/LINTING.md). *)
let deterministic_boundary path = deterministic_hot_path path || in_faults path

let missing_mli path =
  let path = normalize path in
  if
    Filename.check_suffix path ".ml"
    && under_lib path
    && not (Sys.file_exists (path ^ "i"))
  then
    [
      {
        path;
        line = 1;
        rule = "missing-mli";
        message =
          "every lib/**/*.ml needs a matching .mli so the public surface \
           stays explicit";
      };
    ]
  else []

(* A directory reads as an error naming it, like a missing file, so every
   file error a caller sees has the "path: reason" shape. *)
let read_file path =
  if Sys.is_directory path then raise (Sys_error (path ^ ": Is a directory"));
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec walk dir acc =
  Array.fold_left
    (fun acc entry ->
      if entry = "" || entry.[0] = '.' || entry = "_build" then acc
      else begin
        let full = Filename.concat dir entry in
        if Sys.is_directory full then walk full acc
        else if Filename.check_suffix entry ".ml" then full :: acc
        else acc
      end)
    acc (Sys.readdir dir)
