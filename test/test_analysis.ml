(* Tests for the analysis helpers: tables, statistics and CSV. *)

module T = Radio_analysis.Table
module S = Radio_analysis.Stats
module Csv = Radio_analysis.Csv

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = T.create ~title:"demo" ~columns:[ "n"; "rounds" ] in
  T.add_int_row t [ 4; 18 ];
  T.add_row t [ "16"; "230" ];
  let s = T.render t in
  check "title" true (contains s "demo");
  check "header" true (contains s "| rounds |" || contains s "rounds");
  check "row" true (contains s "230");
  (* alignment: every line between rules has the same length *)
  let lines = String.split_on_char '\n' s in
  let widths = List.filter_map
      (fun l -> if String.length l > 0 && l.[0] = '|' then Some (String.length l) else None)
      lines
  in
  check "aligned" true
    (match widths with [] -> false | w :: ws -> List.for_all (( = ) w) ws)

let test_table_mismatch () =
  let t = T.create ~title:"x" ~columns:[ "a"; "b" ] in
  try
    T.add_row t [ "1" ];
    Alcotest.fail "mismatch accepted"
  with Invalid_argument _ -> ()

let test_cells () =
  Alcotest.(check string) "float" "3.14" (T.cell_float ~decimals:2 3.14159);
  Alcotest.(check string) "int" "42" (T.cell_int 42);
  Alcotest.(check string) "opt some" "7" (T.cell_opt_int (Some 7));
  Alcotest.(check string) "opt none" "-" (T.cell_opt_int None);
  Alcotest.(check string) "bool" "yes" (T.cell_bool true)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_summary () =
  let s = S.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check_int "count" 8 s.S.count;
  check_float "mean" 5.0 s.S.mean;
  check_float "stddev" 2.0 s.S.stddev;
  check_float "min" 2.0 s.S.min;
  check_float "max" 9.0 s.S.max;
  check_float "median" 4.5 s.S.median

let test_summary_singleton () =
  let s = S.summarize [ 3.0 ] in
  check_float "median" 3.0 s.S.median;
  check_float "stddev" 0.0 s.S.stddev

let test_summary_empty () =
  try
    ignore (S.summarize []);
    Alcotest.fail "empty accepted"
  with Invalid_argument _ -> ()

let test_linear_fit () =
  let slope, intercept = S.linear_fit [ (1.0, 3.0); (2.0, 5.0); (3.0, 7.0) ] in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept

let test_loglog_slope () =
  (* y = 4 x^3 exactly. *)
  let pts = List.map (fun x -> (x, 4.0 *. (x ** 3.0))) [ 1.0; 2.0; 4.0; 8.0 ] in
  check_float "cubic exponent" 3.0 (S.loglog_slope pts);
  try
    ignore (S.loglog_slope [ (0.0, 1.0); (1.0, 2.0) ]);
    Alcotest.fail "non-positive accepted"
  with Invalid_argument _ -> ()

let test_ratio_stable () =
  check_float "ratios" 2.0 (S.ratio_stable [ (1.0, 2.0); (3.0, 6.0) ])

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b")

let test_csv_to_string () =
  Alcotest.(check string)
    "document" "n,rounds\n4,18\n"
    (Csv.to_string ~header:[ "n"; "rounds" ] [ [ "4"; "18" ] ])

let test_csv_file () =
  let path = Filename.temp_file "anorad" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write_file path ~header:[ "a" ] [ [ "1" ]; [ "2" ] ];
      let ic = open_in path in
      let content =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> In_channel.input_all ic)
      in
      Alcotest.(check string) "content" "a\n1\n2\n" content)

let () =
  Alcotest.run "analysis"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "mismatch" `Quick test_table_mismatch;
          Alcotest.test_case "cells" `Quick test_cells;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "singleton" `Quick test_summary_singleton;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
          Alcotest.test_case "loglog slope" `Quick test_loglog_slope;
          Alcotest.test_case "ratio" `Quick test_ratio_stable;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escape" `Quick test_csv_escape;
          Alcotest.test_case "to_string" `Quick test_csv_to_string;
          Alcotest.test_case "file" `Quick test_csv_file;
        ] );
    ]
