(* Unit and property tests for configurations, families and their io. *)

module C = Radio_config.Config
module F = Radio_config.Families
module RC = Radio_config.Random_config
module CIo = Radio_config.Config_io
module G = Radio_graph.Graph
module Gen = Radio_graph.Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_tags = Alcotest.(check (array int))

(* ------------------------------------------------------------------ *)
(* Core configuration behaviour                                        *)
(* ------------------------------------------------------------------ *)

let test_create_normalizes () =
  let c = C.create (Gen.path 3) [| 4; 2; 7 |] in
  check_tags "shifted to 0" [| 2; 0; 5 |] (C.tags c);
  check_int "span" 5 (C.span c);
  check "normalized" true (C.is_normalized c);
  check_int "min" 0 (C.min_tag c);
  check_int "max" 5 (C.max_tag c)

let test_create_no_normalize () =
  let c = C.create ~normalize:false (Gen.path 2) [| 3; 5 |] in
  check_tags "kept" [| 3; 5 |] (C.tags c);
  check "not normalized" false (C.is_normalized c);
  check_int "span still relative" 2 (C.span c)

let test_create_errors () =
  (try
     ignore (C.create (Gen.path 3) [| 0; 1 |]);
     Alcotest.fail "length mismatch accepted"
   with C.Invalid_configuration _ -> ());
  try
    ignore (C.create ~normalize:false (Gen.path 2) [| 0; -1 |]);
    Alcotest.fail "negative tag accepted"
  with C.Invalid_configuration _ -> ()

let test_tags_copy () =
  let c = C.create (Gen.path 2) [| 0; 1 |] in
  let t = C.tags c in
  t.(0) <- 99;
  check_int "internal tags unaffected" 0 (C.tag c 0)

let test_uniform () =
  let c = C.uniform (Gen.cycle 4) 7 in
  check_tags "all zero after normalize" [| 0; 0; 0; 0 |] (C.tags c);
  check_int "span 0" 0 (C.span c)

let test_connectivity_and_degree () =
  let c = C.create (Gen.star 5) [| 0; 1; 2; 3; 4 |] in
  check "connected" true (C.is_connected c);
  check_int "max degree" 4 (C.max_degree c);
  let d = C.create (G.of_edges 3 [ (0, 1) ]) [| 0; 0; 1 |] in
  check "disconnected accepted but flagged" false (C.is_connected d)

let test_shift_tags () =
  let c = C.create (Gen.path 3) [| 0; 1; 2 |] in
  let c' = C.shift_tags c 10 in
  check "shift normalizes back" true (C.equal c c');
  try
    ignore (C.shift_tags c (-1));
    Alcotest.fail "negative shift below zero accepted"
  with C.Invalid_configuration _ -> ()

let test_relabel () =
  let c = C.create (Gen.path 3) [| 0; 1; 2 |] in
  let c' = C.relabel c [| 2; 1; 0 |] in
  check_tags "tags follow" [| 2; 1; 0 |] (C.tags c');
  check "edges follow" true (G.mem_edge (C.graph c') 2 1);
  check "old edge gone" false (G.mem_edge (C.graph c') 0 2);
  check "identity relabel" true (C.equal c (C.relabel c [| 0; 1; 2 |]))

let test_relabel_errors () =
  let c = C.create (Gen.path 3) [| 0; 1; 2 |] in
  List.iter
    (fun p ->
      try
        ignore (C.relabel c p);
        Alcotest.fail "bad permutation accepted"
      with C.Invalid_configuration _ -> ())
    [ [| 0; 1 |]; [| 0; 0; 1 |]; [| 0; 1; 3 |] ]

let test_equal () =
  let c1 = C.create (Gen.path 2) [| 0; 1 |] in
  let c2 = C.create (Gen.path 2) [| 5; 6 |] in
  check "normalized equal" true (C.equal c1 c2);
  let c3 = C.create (Gen.path 2) [| 1; 0 |] in
  check "different tags" false (C.equal c1 c3)

(* ------------------------------------------------------------------ *)
(* Paper families                                                      *)
(* ------------------------------------------------------------------ *)

let test_g_family_shape () =
  let m = 3 in
  let c = F.g_family m in
  check_int "n = 4m+1" ((4 * m) + 1) (C.size c);
  check_int "span 1" 1 (C.span c);
  (* a-nodes 0..m-1 tag 0, b-nodes m..3m tag 1, c-nodes 3m+1..4m tag 0 *)
  for i = 0 to m - 1 do
    check_int "a tag" 0 (C.tag c i);
    check_int "c tag" 0 (C.tag c ((4 * m) - i))
  done;
  for i = m to 3 * m do
    check_int "b tag" 1 (C.tag c i)
  done;
  check_int "centre index" (2 * m) (F.g_family_center m);
  check "path shape" true (G.mem_edge (C.graph c) 0 1);
  check_int "path edges" (4 * m) (G.num_edges (C.graph c))

let test_g_family_rejects () =
  try
    ignore (F.g_family 1);
    Alcotest.fail "m=1 accepted"
  with C.Invalid_configuration _ -> ()

let test_h_family_shape () =
  let c = F.h_family 4 in
  check_tags "tags a,b,c,d" [| 4; 0; 0; 5 |] (C.tags c);
  check_int "span m+1" 5 (C.span c);
  check_int "n" 4 (C.size c)

let test_s_family_shape () =
  let c = F.s_family 4 in
  check_tags "tags symmetric" [| 4; 0; 0; 4 |] (C.tags c);
  check_int "span m" 4 (C.span c)

let test_family_bounds () =
  List.iter
    (fun f ->
      try
        ignore (f 0);
        Alcotest.fail "m=0 accepted"
      with C.Invalid_configuration _ -> ())
    [ F.h_family; F.s_family ]

let test_staircase () =
  let c = F.staircase_clique 5 in
  check_int "span" 4 (C.span c);
  check_int "degree" 4 (C.max_degree c)

let test_small_families () =
  check_int "two cells span" 1 (C.span (F.two_cells ()));
  check_int "symmetric pair span" 0 (C.span (F.symmetric_pair ()))

(* ------------------------------------------------------------------ *)
(* Random configurations                                               *)
(* ------------------------------------------------------------------ *)

let test_random_tags_span () =
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 50 do
    let tags = RC.random_tags st ~n:10 ~span:6 in
    let mn = Array.fold_left min tags.(0) tags in
    let mx = Array.fold_left max tags.(0) tags in
    check_int "min forced to 0" 0 mn;
    check_int "max forced to span" 6 mx
  done

let test_random_tags_span_zero () =
  let st = Random.State.make [| 4 |] in
  let tags = RC.random_tags st ~n:5 ~span:0 in
  check_tags "all zero" [| 0; 0; 0; 0; 0 |] tags

let test_random_tags_single_node () =
  let st = Random.State.make [| 5 |] in
  let tags = RC.random_tags st ~n:1 ~span:9 in
  check_int "single node tag normalized" 0 tags.(0)

let test_connected_gnp_config () =
  let st = Random.State.make [| 6 |] in
  for _ = 1 to 10 do
    let c = RC.connected_gnp st ~n:15 ~p:0.1 ~span:4 in
    check "connected" true (C.is_connected c);
    check_int "span" 4 (C.span c)
  done

let test_random_tree_config () =
  let st = Random.State.make [| 7 |] in
  let c = RC.random_tree st ~n:12 ~span:3 in
  check_int "tree edges" 11 (G.num_edges (C.graph c));
  check_int "span" 3 (C.span c)

let test_perturb () =
  let st = Random.State.make [| 8 |] in
  let c = RC.random_path st ~n:6 ~span:3 in
  let c' = RC.perturb_one_tag st c in
  check_int "same size" (C.size c) (C.size c');
  check "same graph" true (G.equal (C.graph c) (C.graph c'))

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_config_io_roundtrip () =
  let c = F.g_family 3 in
  let c' = CIo.of_string (CIo.to_string c) in
  check "roundtrip" true (C.equal c c')

let test_config_io_malformed () =
  List.iter
    (fun s ->
      try
        ignore (CIo.of_string s);
        Alcotest.fail ("accepted: " ^ s)
      with Failure _ -> ())
    [
      "";
      "config 2\n";
      "config 2\ntags 0\n";
      "config 2\ntags 0 1 2\n";
      "graph 2\ntags 0 1\n";
      "config 2\ntags 0 1\n0 1 2\n";
    ]

let test_config_dot () =
  let s = CIo.to_dot (F.two_cells ()) in
  check "mentions tag" true (contains s "t=1");
  check "mentions edge" true (contains s "0 -- 1")

let test_config_file_roundtrip () =
  let path = Filename.temp_file "anorad" ".cfg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let c = F.h_family 2 in
      CIo.write_file path c;
      check "file roundtrip" true (C.equal c (CIo.read_file path)))

(* The split-based reader [Config_io.of_string] replaced, kept as the
   oracle of its single-pass scan: same configurations accepted, same
   [Failure] message (line number included) on everything else. *)
module Oracle_io = struct
  let meaningful_lines s =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

  let tokens line =
    String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

  let fail line fmt =
    Printf.ksprintf
      (fun msg ->
        failwith (Printf.sprintf "Config_io.of_string: line %d: %s" line msg))
      fmt

  let int_token line what t =
    match int_of_string_opt t with
    | Some i -> i
    | None -> fail line "bad %s: %s" what t

  let of_string s =
    match meaningful_lines s with
    | (hl, header) :: (tl, tag_line) :: rest ->
        let n =
          match tokens header with
          | [ "config"; n ] -> int_token hl "vertex count" n
          | _ -> fail hl "expected 'config <n>' header"
        in
        if n < 0 then fail hl "negative vertex count %d" n;
        let tags =
          match tokens tag_line with
          | "tags" :: ts when List.length ts = n ->
              Array.of_list (List.map (int_token tl "tag") ts)
          | "tags" :: ts ->
              fail tl "expected %d tags, found %d" n (List.length ts)
          | _ -> fail tl "expected 'tags ...' line"
        in
        Array.iteri
          (fun v t -> if t < 0 then fail tl "negative tag %d at vertex %d" t v)
          tags;
        let b = G.Builder.create n in
        List.iter
          (fun (l, line) ->
            match tokens line with
            | [ u; v ] -> (
                let u = int_token l "edge endpoint" u in
                let v = int_token l "edge endpoint" v in
                try G.Builder.add_edge b u v
                with G.Invalid_edge msg -> fail l "%s" msg)
            | _ -> fail l "bad edge line: %s" line)
          rest;
        C.create ~normalize:false (G.Builder.finish b) tags
    | _ -> failwith "Config_io.of_string: need a header and a tags line"
end

let outcome f s =
  match f s with c -> Ok c | exception Failure msg -> Error msg

let same_outcome what s =
  match (outcome Oracle_io.of_string s, outcome CIo.of_string s) with
  | Ok a, Ok b ->
      if not (C.equal a b) then
        Alcotest.failf "%s: different configs for %S" what s
  | Error a, Error b ->
      if a <> b then Alcotest.failf "%s: %S: oracle %S, got %S" what s a b
  | Ok _, Error b ->
      Alcotest.failf "%s: %S refused (%s), oracle accepts" what s b
  | Error a, Ok _ ->
      Alcotest.failf "%s: %S accepted, oracle refuses (%s)" what s a

(* Whole-line rewrites, each aimed at one rule of the format. *)
let line_mutations st text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let k = Array.length lines in
  let join l = String.concat "\n" l in
  let set i l =
    join (List.mapi (fun j x -> if j = i then l else x) (Array.to_list lines))
  in
  let insert i l =
    join
      (List.concat
         (List.mapi
            (fun j x -> if j = i then [ l; x ] else [ x ])
            (Array.to_list lines)))
  in
  let words i = String.split_on_char ' ' lines.(i) in
  let n = List.length (words 1) - 1 in
  let set_tag j w =
    set 1
      (String.concat " " (List.mapi (fun i x -> if i = j then w else x) (words 1)))
  in
  (* a line past the tags line, never the empty one after the last '\n' *)
  let e = min (k - 2) (2 + Random.State.int st (max 1 (k - 3))) in
  let first_edge = lines.(min (k - 2) 2) in
  let pick () = Random.State.int st k in
  [
    set 0 "konfig 3";
    set 0 "config";
    set 0 ("config " ^ string_of_int n ^ " 1");
    set 0 "config x";
    set 0 "config -2";
    set 0 (Printf.sprintf "config 0x%x" n);
    set 0 ("config +" ^ string_of_int n);
    set 1 (String.concat " " (List.filteri (fun i _ -> i < n) (words 1)));
    set 1 (lines.(1) ^ " 0");
    set 1 ("tag" ^ String.sub lines.(1) 4 (String.length lines.(1) - 4));
    set_tag 1 "-3";
    set_tag n "0x1F";
    set_tag 1 ("+" ^ List.nth (words 1) 1);
    set_tag 1 "1_000";
    set_tag 1 "99999999999999999999";
    set e ("0 " ^ string_of_int n);
    set e "-1 0";
    set e "1 1";
    set e "0 1 2";
    set e "0";
    set e "0x1 +2";
    set e "1_0 0";
    set e ("\t" ^ lines.(e) ^ " \t");
    set e (String.map (fun c -> if c = ' ' then '\t' else c) lines.(e));
    insert e first_edge;
    insert e
      (String.concat " " (List.rev (String.split_on_char ' ' first_edge)));
    insert (pick ()) "# a comment 0 1";
    insert (pick ()) "   ";
    insert (pick ()) "  # indented comment";
    insert (pick ()) "0 1 # trailing comment";
    String.concat "\r\n" (Array.to_list lines);
    "\n\n" ^ text;
    join (List.filteri (fun j _ -> j <> 1) (Array.to_list lines));
  ]

(* Byte-level noise: a few characters from the format's alphabet inserted,
   deleted or overwritten at random places. *)
let byte_mutation st text =
  let alphabet = " \t\r\n#-+_x0123456789a" in
  let b = Buffer.create (String.length text + 8) in
  Buffer.add_string b text;
  for _ = 1 to 1 + Random.State.int st 3 do
    let s = Buffer.contents b in
    let len = String.length s in
    let i = Random.State.int st (len + 1) in
    let c = alphabet.[Random.State.int st (String.length alphabet)] in
    Buffer.clear b;
    match Random.State.int st 3 with
    | 0 ->
        Buffer.add_string b (String.sub s 0 i);
        Buffer.add_char b c;
        Buffer.add_string b (String.sub s i (len - i))
    | 1 when i < len ->
        Buffer.add_string b (String.sub s 0 i);
        Buffer.add_string b (String.sub s (i + 1) (len - i - 1))
    | _ when i < len ->
        Buffer.add_string b (String.sub s 0 i);
        Buffer.add_char b c;
        Buffer.add_string b (String.sub s (i + 1) (len - i - 1))
    | _ -> Buffer.add_string b s
  done;
  Buffer.contents b

let test_config_io_differential () =
  let st = Random.State.make [| 0xC0F16 |] in
  let configs =
    [ F.g_family 8; F.h_family 3; C.create (G.empty 1) [| 7 |] ]
    @ List.init 40 (fun i ->
          let n = 2 + Random.State.int st (if i < 30 then 40 else 300) in
          let span = if i mod 3 = 0 then 1000 else 1 + Random.State.int st 5 in
          RC.connected_gnp st ~n ~p:(3. /. float_of_int n) ~span)
  in
  List.iter
    (fun c ->
      let text = CIo.to_string c in
      same_outcome "roundtrip" text;
      check "roundtrip equal" true (C.equal c (CIo.of_string text));
      if C.size c >= 3 then
        List.iter (same_outcome "line mutation") (line_mutations st text);
      for _ = 1 to 25 do
        same_outcome "byte mutation" (byte_mutation st text)
      done)
    configs;
  List.iter (same_outcome "fixed")
    [
      "";
      "\n";
      "config 1";
      "config 1\ntags 0";
      "config 0\ntags";
      "config 2\ntags 0 1\n0 1\n1 0\n0 5";
      "config 2\ntags 0 1\n0 5\n0 1\n1 0";
      "config 3\ntags 0 1 2\n0 1\n1 2\n0 1 x";
      "config 3\ntags 0 1 2\n0 1\n0 1\n0 0";
      "config 3\ntags 0 1 2\n0 1\n1 0\n0 x";
      "config 3\ntags 0 1 2\n0 1\n1 0\n0 1 2";
      "config\t2\ntags 0 1";
      "config 2\ntags\t0 1";
      "config 2\r\ntags 0 1\r\n0 1\r\n";
      "config 2\n tags 0 1 \n  0   1  \n";
      "config 00002\ntags 0000 0001\n000 001";
      "config 4611686018427387903\ntags 0";
      "config 2\ntags 0 999999999999999999\n0 1";
      "config 2\ntags 0 9999999999999999999\n0 1";
      "config 2\ntags 0 1\n0 9999999999999999999";
      "config 4611686018427387904\ntags 0";
      "config 2\ntags 0 -0\n0 1";
      "config 2\ntags 0 1\n-0 1";
    ]

(* ------------------------------------------------------------------ *)
(* QCheck                                                              *)
(* ------------------------------------------------------------------ *)

let arbitrary_cfg =
  QCheck.make
    ~print:(fun (n, span, seed) -> Printf.sprintf "n=%d span=%d seed=%d" n span seed)
    QCheck.Gen.(triple (int_range 1 25) (int_range 0 6) (int_range 0 100_000))

let prop_random_config_normalized =
  QCheck.Test.make ~name:"random configs are normalized with exact span"
    ~count:200 arbitrary_cfg (fun (n, span, seed) ->
      let st = Random.State.make [| seed |] in
      let c = RC.connected_gnp st ~n ~p:0.3 ~span in
      C.is_normalized c && (n = 1 || C.span c = span))

let prop_io_roundtrip =
  QCheck.Test.make ~name:"config io roundtrip" ~count:100 arbitrary_cfg
    (fun (n, span, seed) ->
      let st = Random.State.make [| seed |] in
      let c = RC.random_tree st ~n ~span in
      C.equal c (CIo.of_string (CIo.to_string c)))

let prop_relabel_involution =
  QCheck.Test.make ~name:"relabel by a permutation then its inverse" ~count:100
    arbitrary_cfg (fun (n, span, seed) ->
      let st = Random.State.make [| seed |] in
      let c = RC.connected_gnp st ~n ~p:0.3 ~span in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let inv = Array.make n 0 in
      Array.iteri (fun i p -> inv.(p) <- i) perm;
      C.equal c (C.relabel (C.relabel c perm) inv))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_random_config_normalized; prop_io_roundtrip; prop_relabel_involution ]

let () =
  Alcotest.run "radio_config"
    [
      ( "config",
        [
          Alcotest.test_case "create normalizes" `Quick test_create_normalizes;
          Alcotest.test_case "create no-normalize" `Quick test_create_no_normalize;
          Alcotest.test_case "create errors" `Quick test_create_errors;
          Alcotest.test_case "tags are copies" `Quick test_tags_copy;
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "connectivity & degree" `Quick
            test_connectivity_and_degree;
          Alcotest.test_case "shift tags" `Quick test_shift_tags;
          Alcotest.test_case "relabel" `Quick test_relabel;
          Alcotest.test_case "relabel errors" `Quick test_relabel_errors;
          Alcotest.test_case "equal" `Quick test_equal;
        ] );
      ( "families",
        [
          Alcotest.test_case "G_m shape" `Quick test_g_family_shape;
          Alcotest.test_case "G_m rejects m<2" `Quick test_g_family_rejects;
          Alcotest.test_case "H_m shape" `Quick test_h_family_shape;
          Alcotest.test_case "S_m shape" `Quick test_s_family_shape;
          Alcotest.test_case "family bounds" `Quick test_family_bounds;
          Alcotest.test_case "staircase" `Quick test_staircase;
          Alcotest.test_case "small families" `Quick test_small_families;
        ] );
      ( "random",
        [
          Alcotest.test_case "tags span" `Quick test_random_tags_span;
          Alcotest.test_case "tags span zero" `Quick test_random_tags_span_zero;
          Alcotest.test_case "single node" `Quick test_random_tags_single_node;
          Alcotest.test_case "connected gnp" `Quick test_connected_gnp_config;
          Alcotest.test_case "random tree" `Quick test_random_tree_config;
          Alcotest.test_case "perturb" `Quick test_perturb;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_config_io_roundtrip;
          Alcotest.test_case "malformed" `Quick test_config_io_malformed;
          Alcotest.test_case "differential" `Quick test_config_io_differential;
          Alcotest.test_case "dot" `Quick test_config_dot;
          Alcotest.test_case "file roundtrip" `Quick test_config_file_roundtrip;
        ] );
      ("qcheck", qcheck_cases);
    ]
