(* End-to-end tests of the anorad command-line interface: exit codes,
   pipeable output, and artifact round-trips, exercising the installed
   binary exactly as a user would. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The binary is a declared dependency living next to this test in the
   build tree (_build/default/bin/anorad.exe); resolve it relative to the
   test executable itself so the tests work regardless of the caller's
   working directory. *)
let binary =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/anorad.exe"

(* Exit code and stdout of a shell command line. *)
let run_shell cmd =
  let ic = Unix.open_process_in cmd in
  let output = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, output)

let run_cmd cmd = run_shell (cmd ^ " 2>/dev/null")

let anorad args = run_cmd (Filename.quote binary ^ " " ^ args)

(* Exit code and stderr of one invocation; stdout is discarded. *)
let anorad_stderr args =
  run_shell (Filename.quote binary ^ " " ^ args ^ " 2>&1 >/dev/null")

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let with_family family m f =
  let path = Filename.temp_file "anorad_cli" ".cfg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, out = anorad (Printf.sprintf "family %s %d" family m) in
      check_int "family exit" 0 code;
      Out_channel.with_open_text path (fun oc -> output_string oc out);
      f path)

let test_family_output () =
  let code, out = anorad "family h 2" in
  check_int "exit" 0 code;
  check "header" true (contains out "config 4");
  check "tags" true (contains out "tags 2 0 0 3")

let test_classify_exit_codes () =
  with_family "h" 2 (fun path ->
      let code, out = anorad ("classify " ^ Filename.quote path) in
      check_int "feasible exit 0" 0 code;
      check "says FEASIBLE" true (contains out "FEASIBLE"));
  with_family "s" 2 (fun path ->
      let code, out = anorad ("classify " ^ Filename.quote path) in
      check_int "infeasible exit 1" 1 code;
      check "says INFEASIBLE" true (contains out "INFEASIBLE"))

let test_elect () =
  with_family "h" 1 (fun path ->
      let code, out = anorad ("elect " ^ Filename.quote path) in
      check_int "exit" 0 code;
      check "leader named" true (contains out "leader: node 0"))

let test_compile_run_plan_roundtrip () =
  with_family "g" 2 (fun cfg ->
      let plan = Filename.temp_file "anorad_cli" ".plan" in
      Fun.protect
        ~finally:(fun () -> Sys.remove plan)
        (fun () ->
          let code, _ =
            anorad
              (Printf.sprintf "compile %s -o %s" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "compile exit" 0 code;
          let code, out =
            anorad
              (Printf.sprintf "run-plan %s %s" (Filename.quote plan)
                 (Filename.quote cfg))
          in
          check_int "run-plan exit" 0 code;
          check "elects" true (contains out "leader: node")))

let test_repair () =
  with_family "s" 2 (fun path ->
      let code, out = anorad ("repair " ^ Filename.quote path) in
      check_int "exit" 0 code;
      check "plan shown" true (contains out "repair plan");
      check "repaired config printed" true (contains out "config 4"));
  (* Four isolated nodes never elect, so the search runs dry over every
     pair of the 4,004 candidate changes: in bounded memory, not one queue
     entry per pair.  On the 4-path with tags 2^60 the 4 x (2^60 + 2)
     candidates pass Repair.max_candidates, so none is built. *)
  List.iter
    (fun text ->
      let path = Filename.temp_file "anorad_cli" ".cfg" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_text path (fun oc -> output_string oc text);
          let code, out =
            run_cmd
              (Printf.sprintf "ulimit -v 524288; %s repair %s"
                 (Filename.quote binary) (Filename.quote path))
          in
          check_int "no repair exit" 1 code;
          check "no plan" true
            (contains out "no feasible tag assignment within the budget")))
    [
      "config 4\ntags 0 3 1000 0\n";
      "config 4\ntags 1152921504606846976 0 0 1152921504606846976\n0 1\n1 2\n2 3\n";
    ]

let test_audit () =
  with_family "h" 1 (fun path ->
      let code, out = anorad ("audit " ^ Filename.quote path) in
      check_int "exit" 0 code;
      check "all passed" true (contains out "ALL CHECKS PASSED"))

let test_census_cli () =
  let code, out = anorad "census --max-n 3 --max-span 1" in
  check_int "exit" 0 code;
  check "consistent" true (contains out "consistent: true")

(* The --jobs determinism contract through the real CLI: a pooled census
   renders byte-for-byte the sequential report (docs/PARALLEL.md). *)
let test_jobs_cli () =
  let code_seq, out_seq = anorad "census --max-n 3 --max-span 1 --jobs 1" in
  let code_par, out_par = anorad "census --max-n 3 --max-span 1 --jobs 2" in
  check_int "jobs 1 exit" 0 code_seq;
  check_int "jobs 2 exit" 0 code_par;
  check "census parallel = sequential" true (String.equal out_seq out_par);
  let code_seq, out_seq = anorad "mc --oracle 3 --jobs 1" in
  let code_par, out_par = anorad "mc --oracle 3 --jobs 2" in
  check_int "oracle jobs 1 exit" 0 code_seq;
  check_int "oracle jobs 2 exit" 0 code_par;
  check "oracle parallel = sequential" true (String.equal out_seq out_par);
  with_family "h" 2 (fun path ->
      let explore jobs =
        anorad
          (Printf.sprintf "mc %s --explore --faults 1 --depth 6 --jobs %d"
             (Filename.quote path) jobs)
      in
      let code_seq, out_seq = explore 1 in
      let code_par, out_par = explore 2 in
      check_int "explore jobs 1 exit" 0 code_seq;
      check_int "explore jobs 2 exit" 0 code_par;
      check "explore parallel = sequential" true
        (String.equal out_seq out_par));
  let code, out = anorad "census --help=plain" in
  check_int "census help exit" 0 code;
  check "census documents --jobs" true (contains out "--jobs");
  check "census documents ANORAD_JOBS" true (contains out "ANORAD_JOBS");
  let code, out = anorad "resilience --help=plain" in
  check_int "resilience help exit" 0 code;
  check "resilience documents --jobs" true (contains out "--jobs")

let test_catalog_cli () =
  let code, out = anorad "catalog" in
  check_int "list exit" 0 code;
  check "lists h2" true (contains out "h2");
  let code, out = anorad "catalog s2" in
  check_int "entry exit" 0 code;
  check "emits config" true (contains out "config 4");
  let code, _ = anorad "catalog no-such-entry" in
  check_int "unknown exit" 1 code

let test_optimal_cli () =
  with_family "h" 2 (fun path ->
      let code, out = anorad ("optimal " ^ Filename.quote path) in
      check_int "exit" 0 code;
      check "round 2" true (contains out "round (over all algorithms): 2"))

let test_refute_cli () =
  with_family "h" 1 (fun path ->
      let code, out = anorad ("refute " ^ Filename.quote path) in
      check_int "exit" 0 code;
      check "refuted" true (contains out "universality refuted: true"))

let test_explain_dot_cli () =
  with_family "s" 2 (fun path ->
      let code, out = anorad ("explain --dot " ^ Filename.quote path) in
      check_int "exit (infeasible)" 1 code;
      check "dot output" true (contains out "graph explanation"))

let test_trace_cli () =
  with_family "h" 1 (fun path ->
      let code, out = anorad ("trace " ^ Filename.quote path) in
      check_int "exit" 0 code;
      check "timeline legend" true (contains out "legend:");
      check "leader decided" true (contains out "leader (by decision function)"))

let with_plan content f =
  let path = Filename.temp_file "anorad_cli" ".plan" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc content);
      f path)

(* A run cut off by --max-rounds before every node terminated fails the
   checks that read whole histories (exit 2, like any failed audit); a
   negative --max-rounds is refused. *)
let test_audit_cut_off () =
  let path3 tags = Printf.sprintf "config 3\ntags %s\n0 1\n1 2\n" tags in
  List.iter
    (fun (tags, rounds) ->
      with_plan (path3 tags) (fun cfg ->
          let code, out =
            anorad
              (Printf.sprintf "audit %s --max-rounds=%d" (Filename.quote cfg)
                 rounds)
          in
          check_int "cut-off audit exit" 2 code;
          check "blocks check fails" true
            (contains out
               (Printf.sprintf "FAIL lemma-3.8-blocks             cut off after \
                                %d rounds" rounds));
          check "failures reported" true (contains out "FAILURES PRESENT")))
    [ ("0 1 2", 3); ("0 0 0", 0) ];
  with_plan (path3 "0 0 0") (fun cfg ->
      let code, err =
        anorad_stderr ("audit " ^ Filename.quote cfg ^ " --max-rounds=-1")
      in
      check_int "negative max-rounds exit" 2 code;
      check "refused" true
        (contains err "anorad audit: invalid argument: --max-rounds"));
  with_plan (path3 "0 1 2") (fun cfg ->
      let code, out = anorad ("trace " ^ Filename.quote cfg ^ " --max-rounds=3") in
      check_int "cut-off trace exit" 0 code;
      check "no decision" true
        (contains out "leader (by decision function): none"))

(* Out-of-range numeric options are refused before any work is done:
   exit 2 and [anorad <cmd>: invalid argument: ...], never an uncaught
   exception (125) or the "infeasible" exit (1). *)
let test_option_ranges () =
  with_family "h" 2 (fun cfg ->
      List.iter
        (fun (cmd, args) ->
          (* run-plan and faults take the file as their second operand too *)
          let files =
            if cmd = "run-plan" || cmd = "faults" then 2 else 1
          in
          let line =
            String.concat " "
              ((cmd :: List.init files (fun _ -> Filename.quote cfg)) @ [ args ])
          in
          let code, err = anorad_stderr line in
          check_int (line ^ " exit") 2 code;
          check (line ^ " headline") true
            (contains err (Printf.sprintf "anorad %s: invalid argument: --" cmd)))
        [
          ("repair", "--max-changes=0");
          ("resilience", "--trials=-1");
          ("resilience", "--max-intensity=-1");
          ("elect", "--max-rounds=-5");
          ("run-plan", "--max-rounds=-1");
          ("check-trace", "--max-rounds=-1");
          ("faults", "--max-rounds=-1");
          ("mc", "--explore --states=-3");
          ("mc", "--explore --depth=-1");
          ("mc", "--explore --states=100000000");
          ("churn", "--horizon=0");
          ("churn", "--oracle=-1");
          ("churn", "--link-flaps=-1");
          ("churn", "--node-flaps=-1");
          ("churn", "--retags=-1");
          ("churn", "--crashes=-1");
        ])

(* A missing or malformed CONFIG or compiled plan, an out-of-range command
   parameter, or an unwritable output file is one stderr headline and exit
   2, not an uncaught exception (exit 125). *)
let test_bad_input () =
  let expect name args headline =
    let code, err = anorad_stderr args in
    check_int (name ^ " exit 2") 2 code;
    check (name ^ " headline") true (contains err headline)
  in
  expect "missing file" "classify /nonexistent/path.cfg"
    "anorad classify: invalid configuration: /nonexistent/path.cfg";
  with_plan "config 3\ntags 0 1\n0 1\n" (fun cfg ->
      expect "too few tags" ("classify " ^ Filename.quote cfg)
        "anorad classify: invalid configuration: Config_io.of_string: line 2");
  with_plan "config 3\ntags 0 1 2\n0 1\n0 5\n" (fun cfg ->
      expect "out-of-range edge" ("classify " ^ Filename.quote cfg)
        "anorad classify: invalid configuration: Config_io.of_string: line 4");
  with_family "h" 2 (fun cfg ->
      with_plan "garbage\n" (fun plan ->
          expect "garbage plan"
            (Printf.sprintf "run-plan %s %s" (Filename.quote plan)
               (Filename.quote cfg))
            "anorad run-plan: invalid plan: ");
      (* a phase count below 1 or beyond the tables present is refused
         before the table array is built *)
      List.iter
        (fun (phases, reason) ->
          with_plan
            (Printf.sprintf
               "drip-plan 1\nsigma 3\nphases %s\nsingleton 1\ntable 1 1\n\
                entry 1 0\ntable final 1\nentry 1 0\n"
               phases)
            (fun plan ->
              expect ("plan with phases " ^ phases)
                (Printf.sprintf "run-plan %s %s" (Filename.quote plan)
                   (Filename.quote cfg))
                ("anorad run-plan: invalid plan: Plan_io.of_string: " ^ reason)))
        [
          ("0", "phases must be >= 1");
          ("-1", "phases must be >= 1");
          (string_of_int max_int, "missing table 2");
        ]);
  (* a feasible 63-node path (distinct tags): past the explorer's node
     limit *)
  with_plan
    (Printf.sprintf "config 63\ntags %s\n%s"
       (String.concat " " (List.init 63 string_of_int))
       (String.concat ""
          (List.init 62 (fun i -> Printf.sprintf "%d %d\n" i (i + 1)))))
    (fun cfg ->
      expect "optimal past 62 nodes" ("optimal " ^ Filename.quote cfg)
        "anorad optimal: invalid configuration: Checker.explore: crash mask \
         supports n <= 62";
      expect "mc --explore past 62 nodes"
        ("mc --explore " ^ Filename.quote cfg)
        "anorad mc: invalid configuration: Checker.explore: crash mask \
         supports n <= 62");
  expect "census size out of range" "census --max-n 9"
    "anorad census: invalid argument: Census.universe: max_n must be in 1..6";
  expect "census span over the bound" "census --max-span 100"
    "anorad census: invalid argument: Census.universe: max_n 4, max_span 100 \
     is over the bound of 100000 configurations";
  expect "oracle size 0" "mc --oracle 0"
    "anorad mc: invalid argument: Census.universe: max_n must be in 1..6";
  expect "oracle size 7" "mc --oracle 7"
    "anorad mc: invalid argument: Census.universe: max_n must be in 1..6";
  expect "family parameter out of range" "family g 0"
    "anorad family: invalid parameter: g_family: m must be >= 2";
  with_family "h" 2 (fun cfg ->
      let cfg = Filename.quote cfg in
      expect "unwritable plan"
        ("compile " ^ cfg ^ " -o /nonexistent/x")
        "anorad compile: cannot write plan: /nonexistent/x";
      expect "unwritable csv"
        ("resilience " ^ cfg ^ " --trials 2 --csv /nonexistent/x")
        "anorad resilience: cannot write CSV: /nonexistent/x";
      expect "unwritable sarif"
        ("mc " ^ cfg ^ " --sarif /nonexistent/x")
        "anorad mc: cannot write SARIF report: /nonexistent/x")

(* A CONFIG with no nodes is refused by the one loader, whichever
   subcommand reads it. *)
let test_empty_config () =
  with_plan "config 0\ntags\n" (fun cfg ->
      let cfg = Filename.quote cfg in
      with_plan "faults\n" (fun plan ->
          let plan = Filename.quote plan in
          with_family "h" 1 (fun h1 ->
              with_plan "" (fun compiled ->
                  let compiled = Filename.quote compiled in
                  let code, _ =
                    anorad
                      (Printf.sprintf "compile %s -o %s" (Filename.quote h1)
                         compiled)
                  in
                  check_int "compile exit" 0 code;
                  List.iter
                    (fun (cmd, args) ->
                      let code, err = anorad_stderr args in
                      check_int (args ^ " exit 2") 2 code;
                      check (args ^ " headline") true
                        (contains err
                           (Printf.sprintf
                              "anorad %s: invalid configuration: empty \
                               configuration"
                              cmd)))
                    [
                      ("classify", "classify " ^ cfg);
                      ("elect", "elect " ^ cfg);
                      ("trace", "trace " ^ cfg);
                      ("refute", "refute " ^ cfg);
                      ("compile", "compile " ^ cfg);
                      ("run-plan", Printf.sprintf "run-plan %s %s" compiled cfg);
                      ("explain", "explain " ^ cfg);
                      ("optimal", "optimal " ^ cfg);
                      ("fragility", "fragility " ^ cfg);
                      ("audit", "audit " ^ cfg);
                      ("repair", "repair " ^ cfg);
                      ("mc", "mc " ^ cfg);
                      ("mc", "mc --explore " ^ cfg);
                      ("check-trace", "check-trace " ^ cfg);
                      ("faults", Printf.sprintf "faults %s %s" cfg plan);
                      ("resilience", "resilience " ^ cfg);
                      ("churn", "churn " ^ cfg);
                    ]))))

let test_faults_cli () =
  with_family "h" 2 (fun cfg ->
      (* Empty plan: the identity law end to end — election succeeds. *)
      with_plan "faults\n" (fun plan ->
          let code, out =
            anorad
              (Printf.sprintf "faults %s %s" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "empty plan elects" 0 code;
          check "no fault fired" true (contains out "fault ledger (0 fired)");
          check "invariants hold" true
            (contains out "fault-aware model invariants hold");
          check "leader" true (contains out "leader: node 0"));
      (* Crashing the leader: honest failure, ledger shows the crash. *)
      with_plan "faults\ncrash 0 3\n" (fun plan ->
          let code, out =
            anorad
              (Printf.sprintf "faults %s %s" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "no leader exit 1" 1 code;
          check "crash fired" true (contains out "fault ledger (1 fired)");
          check "no winner" true
            (contains out "no unique surviving leader"));
      (* A malformed plan is rejected before anything runs. *)
      with_plan "faults\ncrash 99 0\n" (fun plan ->
          let code, _ =
            anorad
              (Printf.sprintf "faults %s %s" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "invalid plan exit 2" 2 code))

let test_faults_supervise_cli () =
  with_family "h" 2 (fun cfg ->
      (* Noise jamming the leader defeats the deployed tags; the supervisor
         re-seeds and recovers (deterministically — see test_faults.ml). *)
      let noise =
        String.concat ""
          (List.init 12 (fun i -> Printf.sprintf "noise 0 %d\n" (3 + i)))
      in
      with_plan ("faults\n" ^ noise) (fun plan ->
          let code, out =
            anorad
              (Printf.sprintf "faults %s %s --supervise" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "supervisor recovers" 0 code;
          check "attempts reported" true (contains out "attempt 0:");
          check "leader reported" true (contains out "supervisor: leader")))

let test_resilience_cli () =
  with_family "h" 2 (fun cfg ->
      let run () =
        anorad
          (Printf.sprintf "resilience %s --trials 6 --csv -"
             (Filename.quote cfg))
      in
      let code, out = run () in
      check_int "exit" 0 code;
      check "csv header" true
        (contains out
           "intensity,trials,successes,success_rate,stable,stability_rate");
      check "chart drawn" true (contains out "success %");
      (* The whole sweep is a function of the seed: byte-for-byte stable. *)
      let code2, out2 = run () in
      check_int "second run exit" 0 code2;
      check "reproducible byte-for-byte" true (out = out2));
  (* Infeasible input: no election to degrade. *)
  with_family "s" 2 (fun cfg ->
      let code, _ = anorad ("resilience " ^ Filename.quote cfg) in
      check_int "infeasible exit 1" 1 code)

let test_churn_cli () =
  with_family "h" 2 (fun cfg ->
      (* Scripted flaps: the leader leaves and rejoins; the supervisor
         re-elects and the whole report replays byte-for-byte. *)
      with_plan
        "faults\nlink-down 0 1 6\nlink-up 0 1 10\nleave 0 20\njoin 0 26 1\n"
        (fun plan ->
          let run () =
            anorad
              (Printf.sprintf "churn %s --plan %s --horizon 48"
                 (Filename.quote cfg) (Filename.quote plan))
          in
          let code, out = run () in
          check_int "re-elects exit 0" 0 code;
          check "schedule echoed" true (contains out "schedule (4 events)");
          check "epoch lines" true (contains out "epoch 4 @ round 26");
          check "summary" true (contains out "final leader 0");
          let code2, out2 = run () in
          check_int "replay exit" 0 code2;
          check "byte-identical replay" true (String.equal out out2));
      (* Seeded schedules are a pure function of the seed. *)
      let seeded () =
        anorad
          (Printf.sprintf
             "churn %s --horizon 60 --link-flaps 1 --node-flaps 1 --seed 7"
             (Filename.quote cfg))
      in
      let code, out = seeded () in
      check_int "seeded exit" 0 code;
      let _, out2 = seeded () in
      check "seeded deterministic" true (String.equal out out2);
      (* The differential oracle through the pool: byte-identical at any
         jobs level. *)
      let oracle jobs =
        anorad
          (Printf.sprintf "churn %s --oracle 3 --jobs %d" (Filename.quote cfg)
             jobs)
      in
      let code1, o1 = oracle 1 in
      let code2, o2 = oracle 2 in
      check_int "oracle jobs 1 exit" 0 code1;
      check_int "oracle jobs 2 exit" 0 code2;
      check "oracle agrees" true (contains o1 "0 mismatches");
      check "oracle parallel = sequential" true (String.equal o1 o2);
      (* Degenerate horizon is a usage error, not a crash. *)
      let code, _ = anorad (Printf.sprintf "churn %s --horizon 0" (Filename.quote cfg)) in
      check_int "bad horizon exit 2" 2 code)

(* Every command that reads a fault plan rejects a bad one the same way: a
   positioned message naming the command and exit code 2, never an
   uncaught exception (exit 125). *)
let test_bad_plan_cli () =
  with_plan "config 4\ntags 0 1 2 3\n0 1\n1 2\n2 3\n3 0\n" (fun cfg ->
      let commands =
        [
          ("check-trace", Printf.sprintf "check-trace %s --plan %s");
          ("faults", Printf.sprintf "faults %s %s");
          ("churn", Printf.sprintf "churn %s --plan %s");
        ]
      in
      List.iter
        (fun (text, detail) ->
          with_plan text (fun plan ->
              List.iter
                (fun (cmd, args) ->
                  let code, err =
                    anorad_stderr
                      (args (Filename.quote cfg) (Filename.quote plan))
                  in
                  check_int (cmd ^ " exit 2") 2 code;
                  check (cmd ^ " headline") true
                    (contains err ("anorad " ^ cmd ^ ": invalid plan: "));
                  check (cmd ^ " detail") true (contains err detail))
                commands))
        [
          ("faults\nlink-down 0 99 1\n", "link event names node outside 0..3");
          ("faults\nbogus 1 2\n", "line 2: unrecognized line \"bogus 1 2\"");
        ])

let test_check_trace_plan_cli () =
  with_family "h" 2 (fun cfg ->
      (* Without faults the pristine invariants hold... *)
      let code, out = anorad ("check-trace " ^ Filename.quote cfg) in
      check_int "clean exit" 0 code;
      check "clean verdict" true (contains out "all model invariants hold");
      (* ...and a crash breaks them, with an actionable headline naming the
         offending invariant and node. *)
      with_plan "faults\ncrash 0 3\n" (fun plan ->
          let code, out =
            anorad
              (Printf.sprintf "check-trace %s --plan %s" (Filename.quote cfg)
                 (Filename.quote plan))
          in
          check_int "violation exit 2" 2 code;
          check "headline names the invariant" true
            (contains out "check-trace: FAILED: invariant \"");
          check "headline names the node" true (contains out "at node 0")))

(* ------------------------------------------------------------------ *)
(* lint: flags, exit codes, SARIF                                      *)
(* ------------------------------------------------------------------ *)

let write_file path content =
  Out_channel.with_open_text path (fun oc -> output_string oc content)

(* A throwaway lib/ tree the lint path predicates recognize. *)
let with_lint_tree files f =
  let dir = Filename.temp_file "anorad_lint" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      rm dir)
    (fun () ->
      List.iter
        (fun (rel, content) ->
          let path = Filename.concat dir rel in
          let rec mkdirs d =
            if not (Sys.file_exists d) then begin
              mkdirs (Filename.dirname d);
              Unix.mkdir d 0o755
            end
          in
          mkdirs (Filename.dirname path);
          write_file path content)
        files;
      f (Filename.concat dir "lib"))

let test_lint_help () =
  let code, out = anorad "lint --help" in
  check_int "help exit" 0 code;
  check "documents exit status" true (contains out "EXIT STATUS");
  check "documents the clean exit" true (contains out "no findings.");
  check "documents the findings exit" true
    (contains out "lint findings were reported");
  check "documents the usage exit" true (contains out "usage error");
  check "documents --sarif" true (contains out "--sarif");
  check "no baseline option" false (contains out "baseline")

let test_lint_clean_and_findings () =
  with_lint_tree
    [
      ("lib/core/good.ml", "let double x = x * 2\n");
      ("lib/core/good.mli", "val double : int -> int\n");
    ]
    (fun lib ->
      let code, _ = anorad ("lint " ^ Filename.quote lib) in
      check_int "clean tree exits 0" 0 code);
  with_lint_tree
    [
      ("lib/core/bad.ml", "let x = Random.int 10\n");
      ("lib/core/bad.mli", "val x : int\n");
    ]
    (fun lib ->
      let code, out = anorad ("lint " ^ Filename.quote lib) in
      check_int "findings exit 1" 1 code;
      check "names the rule" true (contains out "[random]"));
  let code, _ = anorad "lint /nonexistent/path" in
  check_int "missing path exits 2" 2 code

let test_lint_witness_chain () =
  with_lint_tree
    [
      ( "lib/core/util.ml",
        "let shuffle arr = ignore (Random.int (Array.length arr)); arr\n" );
      ("lib/core/util.mli", "val shuffle : int array -> int array\n");
      ("lib/drip/drip.ml", "let step order = Util.shuffle order\n");
      ("lib/drip/drip.mli", "val step : int array -> int array\n");
    ]
    (fun lib ->
      (* The direct Random use fires, and its caller is flagged with the
         full witness chain. *)
      let code, out = anorad ("lint " ^ Filename.quote lib) in
      check_int "findings exit 1" 1 code;
      check "direct use reported" true (contains out "[random]");
      check "taint reported" true (contains out "[taint]");
      check "witness chain printed" true
        (contains out "Drip.step") ;
      check "chain reaches the primitive" true (contains out "Random.int"))

(* Negative control for the escape analysis: a pool task mutating a
   module-level Hashtbl through a 2-edge call chain.  lib/analysis is
   outside the taint boundary and the toplevel-mutable-state scope on
   purpose, so only the effect analysis can see the hazard. *)
let effect_escape_tree =
  [
    ( "lib/analysis/tally.ml",
      "let cache = Hashtbl.create 16\n\
       let note x = Hashtbl.replace cache x x\n\
       let go pool xs =\n\
      \  Radio_exec.Pool.map pool ~f:(fun x -> note x) xs\n" );
    ("lib/analysis/tally.mli", "val go : 'a -> int list -> int list\n");
  ]

let test_lint_effects () =
  with_lint_tree effect_escape_tree (fun lib ->
      (* Reported with the full witness chain. *)
      let code, out = anorad ("lint " ^ Filename.quote lib) in
      check_int "effects exit 1" 1 code;
      check "effect rule named" true (contains out "[effect]");
      check "class named" true (contains out "SharedMut");
      check "witness chain printed" true
        (contains out "Tally.go → Tally.note → Tally.cache");
      (* SARIF carries the lattice class as a result property. *)
      let code, out = anorad ("lint --sarif - " ^ Filename.quote lib) in
      check_int "sarif exit 1" 1 code;
      check "sarif effect rule" true (contains out "\"ruleId\":\"effect\"");
      check "sarif effectClass property" true
        (contains out "\"properties\":{\"effectClass\":\"SharedMut\"}");
      (* An allow annotation on the submitting function suppresses it. *)
      let tally =
        Filename.concat (Filename.dirname lib) "lib/analysis/tally.ml"
      in
      write_file tally
        "let cache = Hashtbl.create 16\n\
         let note x = Hashtbl.replace cache x x\n\
         (* radiolint: allow effect — single-domain use *)\n\
         let go pool xs =\n\
        \  Radio_exec.Pool.map pool ~f:(fun x -> note x) xs\n";
      let code, _ = anorad ("lint " ^ Filename.quote lib) in
      check_int "allowed escape exits 0" 0 code);
  (* A pool task that stays pure is clean. *)
  with_lint_tree
    [
      ("lib/analysis/pure.ml", "let double pool xs = Radio_exec.Pool.map pool ~f:(fun x -> x * 2) xs\n");
      ("lib/analysis/pure.mli", "val double : 'a -> int list -> int list\n");
    ]
    (fun lib ->
      let code, _ = anorad ("lint " ^ Filename.quote lib) in
      check_int "clean tree exits 0" 0 code)

let test_effects_cmd () =
  with_lint_tree effect_escape_tree (fun lib ->
      let code, out = anorad ("effects " ^ Filename.quote lib) in
      check_int "listing exit 0" 0 code;
      check "classifies the chain head" true (contains out "Tally.note");
      check "names the class" true (contains out "SharedMut");
      let code, out = anorad ("effects --summary " ^ Filename.quote lib) in
      check_int "summary exit 0" 0 code;
      check "census header" true (contains out "module");
      check "per-module row" true (contains out "Tally");
      check "total row" true (contains out "total"))

(* An unparseable file is not skipped: the effect listing would silently
   miss every function in it. *)
let test_effects_unparseable () =
  with_lint_tree
    (("lib/analysis/broken.ml", "let x = 1\nlet = 2\n") :: effect_escape_tree)
    (fun lib ->
      let code, err = anorad_stderr ("effects " ^ Filename.quote lib) in
      check_int "parse error exits 2" 2 code;
      check "positioned parse-error" true
        (contains err "broken.ml:2: [parse-error]"))

let test_lint_sarif_stdout () =
  with_lint_tree
    [ ("lib/core/bad.ml", "let x = Random.int 10\n") ]
    (fun lib ->
      let code, out = anorad ("lint --sarif - " ^ Filename.quote lib) in
      check_int "findings still exit 1" 1 code;
      check "sarif version" true (contains out "\"version\":\"2.1.0\"");
      check "sarif schema" true (contains out "sarif-schema-2.1.0.json");
      check "ruleId present" true (contains out "\"ruleId\":\"random\""))

(* Every file error of the front end is one stderr line naming the path,
   and exit 2 — never an uncaught exception. *)
let test_lint_io_errors () =
  with_lint_tree
    [ ("lib/core/good.ml", "let x = 1\n"); ("lib/core/good.mli", "val x : int\n") ]
    (fun lib ->
      let q = Filename.quote lib in
      let code, err = anorad_stderr ("lint --sarif /nonexistent/x.sarif " ^ q) in
      check_int "unwritable SARIF exits 2" 2 code;
      check "SARIF path and reason" true
        (contains err
           "anorad lint: /nonexistent/x.sarif: No such file or directory");
      let code, err = anorad_stderr (Printf.sprintf "lint --sarif %s %s" q q) in
      check_int "directory SARIF target exits 2" 2 code;
      check "SARIF target path and reason" true
        (contains err (Printf.sprintf "anorad lint: %s: Is a directory" lib));
      let code, err = anorad_stderr "lint /nonexistent/path" in
      check_int "missing path exits 2" 2 code;
      check "scanned path and reason" true
        (contains err "anorad lint: /nonexistent/path: No such file or directory"))

(* ------------------------------------------------------------------ *)
(* mc                                                                  *)
(* ------------------------------------------------------------------ *)

let test_mc_verify () =
  with_family "h" 2 (fun path ->
      let code, out = anorad ("mc " ^ Filename.quote path ^ " --replay") in
      check_int "feasible verifies with exit 0" 0 code;
      check "canonical leader" true (contains out "elected node 0");
      check "replay matches" true (contains out "matches bit-for-bit");
      check "invariants hold" true (contains out "model invariants hold"));
  with_family "s" 2 (fun path ->
      let code, out = anorad ("mc " ^ Filename.quote path) in
      check_int "infeasible non-election is exit 0" 0 code;
      check "symmetric terminal state" true (contains out "non-election"))

let test_mc_mutant_violation () =
  with_family "h" 2 (fun path ->
      let code, out =
        anorad ("mc " ^ Filename.quote path ^ " --protocol mutant-greedy-decision")
      in
      check_int "safety violation exits 1" 1 code;
      check "two leaders named" true (contains out "two leaders elected");
      check "counterexample printed" true (contains out "counterexample"));
  with_family "h" 2 (fun path ->
      let code, out =
        anorad ("mc " ^ Filename.quote path ^ " --protocol mutant-early-stop")
      in
      check_int "liveness violation exits 1" 1 code;
      check "no leader reported" true (contains out "no leader"))

let test_mc_usage_and_budget () =
  let code, _ = anorad "mc" in
  check_int "missing CONFIG exits 2" 2 code;
  with_family "h" 2 (fun path ->
      let code, err =
        anorad_stderr
          ("mc " ^ Filename.quote path ^ " --protocol no-such-machine")
      in
      check_int "unknown protocol exits 2" 2 code;
      Alcotest.(check string)
        "unknown protocol message"
        "anorad mc: unknown protocol \"no-such-machine\" (known: drip, \
         pure-drip, beacon, silent, min-beacon, wave, mutant-greedy-decision, \
         mutant-early-stop)\n"
        err;
      let code, out = anorad ("mc " ^ Filename.quote path ^ " --depth 1") in
      check_int "depth budget exits 2" 2 code;
      check "budget named" true (contains out "budget exhausted"))

let test_mc_sarif () =
  with_family "h" 2 (fun path ->
      let code, out =
        anorad
          ("mc " ^ Filename.quote path
         ^ " --protocol mutant-greedy-decision --sarif -")
      in
      check_int "violation exits 1" 1 code;
      check "sarif version" true (contains out "\"version\":\"2.1.0\"");
      check "mc rule id" true (contains out "\"ruleId\":\"mc-two-leaders\"");
      let code, out = anorad ("mc " ^ Filename.quote path ^ " --sarif -") in
      check_int "verified exits 0" 0 code;
      check "empty results" true (contains out "\"results\":[]"))

let test_mc_explore_and_oracle () =
  with_family "s" 2 (fun path ->
      let code, out =
        anorad ("mc " ^ Filename.quote path ^ " --explore --depth 8")
      in
      check_int "explore exit" 0 code;
      check "no separation on infeasible" true (contains out "no separation");
      check "depth exhaustion is conclusive" true
        (contains out "conclusive at depth 8");
      check "footprint reported" true (contains out "visited set");
      (* A tripped state cap is a different, non-conclusive verdict. *)
      let code, out =
        anorad
          ("mc " ^ Filename.quote path
         ^ " --explore --depth 8 --state-cap 20")
      in
      check_int "cap trip exit 2" 2 code;
      check "cap trip named" true (contains out "inconclusive: state cap");
      check "remedy suggested" true (contains out "raise --state-cap"));
  with_family "h" 1 (fun path ->
      let code, out =
        anorad ("mc " ^ Filename.quote path ^ " --explore --depth 12")
      in
      check_int "explore exit" 0 code;
      check "separation found" true (contains out "separation:"));
  let code, out = anorad "mc --oracle 3" in
  check_int "oracle consistent exit 0" 0 code;
  check "agreement reported" true (contains out "agree everywhere")

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

(* A request stream exercising every request kind plus a malformed line;
   responses are newline-delimited JSON on stdout (docs/SERVE.md). *)
let serve_script =
  String.concat ""
    [
      {|{"id":1,"kind":"classify","config":"config 4\ntags 2 0 0 3\n0 1\n1 2\n2 3\n"}|};
      "\n";
      {|{"id":2,"kind":"elect","config":"config 4\ntags 2 0 0 3\n0 1\n1 2\n2 3\n"}|};
      "\n";
      {|{"id":3,"kind":"simulate","config":"config 4\ntags 2 0 0 3\n0 1\n1 2\n2 3\n"}|};
      "\n";
      {|{"id":4,"kind":"mc-check","config":"config 4\ntags 2 0 0 3\n0 1\n1 2\n2 3\n"}|};
      "\n";
      "this is not json\n";
      {|{"id":5,"kind":"stats"}|};
      "\n";
    ]

let with_script f =
  let path = Filename.temp_file "anorad_serve" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path serve_script;
      f path)

let serve_stdio script args =
  run_cmd
    (Printf.sprintf "%s serve --stdio %s < %s" (Filename.quote binary) args
       (Filename.quote script))

let test_serve_stdio () =
  with_script (fun script ->
      let code, out = serve_stdio script "" in
      check_int "serve exit" 0 code;
      let lines = String.split_on_char '\n' (String.trim out) in
      check_int "one response per request" 6 (List.length lines);
      check "classify answered" true (contains out "\"kind\":\"classify\"");
      check "leader elected" true (contains out "\"leader\":1");
      check "malformed line answered" true
        (contains out "\"status\":\"error\"");
      check "stats answered" true (contains out "\"total\":6"))

(* The headline serve invariant end to end: the same request stream is
   byte-identical at every --jobs level and every cache state. *)
let test_serve_determinism () =
  with_script (fun script ->
      let _, base = serve_stdio script "--jobs 1" in
      let _, par = serve_stdio script "--jobs 2" in
      check "jobs 2 = jobs 1" true (String.equal base par);
      let _, cold = serve_stdio script "--cache-entries 0" in
      check "no cache = cached" true (String.equal base cold);
      let _, tiny = serve_stdio script "--max-batch 1" in
      check "batch 1 = batch 64" true (String.equal base tiny))

let test_serve_usage () =
  let code, _ = run_cmd (Filename.quote binary ^ " serve < /dev/null") in
  check_int "no transport exits 2" 2 code;
  let code, _ =
    run_cmd
      (Filename.quote binary ^ " serve --stdio --socket /tmp/x.sock < /dev/null")
  in
  check_int "both transports exits 2" 2 code;
  let code, out = anorad "serve --help=plain" in
  check_int "help exit" 0 code;
  check "documents --stdio" true (contains out "--stdio");
  check "documents --socket" true (contains out "--socket");
  check "documents --cache-entries" true (contains out "--cache-entries")

let test_mc_help () =
  let code, out = anorad "mc --help=plain" in
  check_int "help exit" 0 code;
  check "documents exit 1" true (contains out "counterexample");
  check "documents --explore" true (contains out "--explore");
  check "documents --oracle" true (contains out "--oracle")

let () =
  Alcotest.run "cli"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "family" `Quick test_family_output;
          Alcotest.test_case "classify exits" `Quick test_classify_exit_codes;
          Alcotest.test_case "elect" `Quick test_elect;
          Alcotest.test_case "compile/run-plan" `Quick
            test_compile_run_plan_roundtrip;
          Alcotest.test_case "repair" `Quick test_repair;
          Alcotest.test_case "audit" `Quick test_audit;
          Alcotest.test_case "audit cut off" `Quick test_audit_cut_off;
          Alcotest.test_case "option ranges" `Quick test_option_ranges;
          Alcotest.test_case "census" `Quick test_census_cli;
          Alcotest.test_case "--jobs determinism" `Quick test_jobs_cli;
          Alcotest.test_case "catalog" `Quick test_catalog_cli;
          Alcotest.test_case "optimal" `Quick test_optimal_cli;
          Alcotest.test_case "refute" `Quick test_refute_cli;
          Alcotest.test_case "explain --dot" `Quick test_explain_dot_cli;
          Alcotest.test_case "trace" `Quick test_trace_cli;
          Alcotest.test_case "bad input" `Quick test_bad_input;
          Alcotest.test_case "empty configuration" `Quick test_empty_config;
          Alcotest.test_case "faults" `Quick test_faults_cli;
          Alcotest.test_case "faults --supervise" `Quick
            test_faults_supervise_cli;
          Alcotest.test_case "resilience" `Quick test_resilience_cli;
          Alcotest.test_case "churn" `Quick test_churn_cli;
          Alcotest.test_case "check-trace --plan" `Quick
            test_check_trace_plan_cli;
          Alcotest.test_case "bad plan" `Quick test_bad_plan_cli;
        ] );
      ( "lint",
        [
          Alcotest.test_case "--help exit codes" `Quick test_lint_help;
          Alcotest.test_case "clean/findings/usage exits" `Quick
            test_lint_clean_and_findings;
          Alcotest.test_case "taint witness chain" `Quick
            test_lint_witness_chain;
          Alcotest.test_case "effect escape check" `Quick test_lint_effects;
          Alcotest.test_case "effects listing and census" `Quick
            test_effects_cmd;
          Alcotest.test_case "effects on unparseable file" `Quick
            test_effects_unparseable;
          Alcotest.test_case "--sarif stdout" `Quick test_lint_sarif_stdout;
          Alcotest.test_case "I/O errors exit 2" `Quick test_lint_io_errors;
        ] );
      ( "serve",
        [
          Alcotest.test_case "stdio round-trip" `Quick test_serve_stdio;
          Alcotest.test_case "stream determinism" `Quick
            test_serve_determinism;
          Alcotest.test_case "usage and help" `Quick test_serve_usage;
        ] );
      ( "mc",
        [
          Alcotest.test_case "verify exits" `Quick test_mc_verify;
          Alcotest.test_case "mutant violations" `Quick
            test_mc_mutant_violation;
          Alcotest.test_case "usage and budget exits" `Quick
            test_mc_usage_and_budget;
          Alcotest.test_case "--sarif" `Quick test_mc_sarif;
          Alcotest.test_case "--explore and --oracle" `Quick
            test_mc_explore_and_oracle;
          Alcotest.test_case "--help" `Quick test_mc_help;
        ] );
    ]
