(* anorad - command-line frontend for the anonymous-radio-network leader
   election library (Miller-Pelc-Yadav, SPAA 2020); `anorad --help` lists
   the subcommands. *)

module C = Radio_config.Config
module CIo = Radio_config.Config_io
module F = Radio_config.Families
module Cl = Election.Classifier
module Can = Election.Canonical
module Fe = Election.Feasibility
module Imp = Election.Impossibility
module Engine = Radio_sim.Engine
module FP = Radio_sim.Fault_plan
module Runner = Radio_sim.Runner
module Trace = Radio_sim.Trace

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let config_arg =
  let doc =
    "Configuration file (format: 'config <n>' header, a 'tags ...' line, \
     then one '<u> <v>' edge per line).  Use '-' for stdin."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CONFIG" ~doc)

(* The one error path for bad input: a missing or malformed CONFIG,
   fault plan or compiled plan, or an out-of-range option, is a message
   on stderr, [anorad <cmd>: invalid <what>: <reason>], and exit code 2,
   never an uncaught exception.  Each loader handles the exceptions of
   the one call that reads its input. *)
let invalid ~cmd what msg =
  Format.eprintf "anorad %s: invalid %s: %s@." cmd what msg;
  exit 2

(* Refuses a numeric option outside [lo .. hi] before any work is done. *)
let in_range ~cmd ?(hi = max_int) lo name v =
  if v < lo || v > hi then
    invalid ~cmd "argument"
      (if hi = max_int then Printf.sprintf "--%s must be >= %d, got %d" name lo v
       else Printf.sprintf "--%s must be in %d..%d, got %d" name lo hi v)

(* The small-configuration universe (census, mc --oracle) is bounded in
   size and span; bad bounds are refused before any work. *)
let universe_bounds ~cmd ~max_n ~max_span =
  match Election.Census.check_bounds ~max_n ~max_span with
  | Ok () -> ()
  | Error msg -> invalid ~cmd "argument" msg

(* The universal-mode search (mc --explore, optimal) has a size limit. *)
let check_explorable ~cmd config =
  if C.size config > Radio_mc.Checker.max_explore_nodes then
    invalid ~cmd "configuration"
      (Printf.sprintf "Checker.explore: crash mask supports n <= %d"
         Radio_mc.Checker.max_explore_nodes)

(* The one writer for user-named output files: [text] goes to stdout for
   '-', and an unwritable path is [anorad <cmd>: cannot write <what>:
   <reason>] on stderr and exit code 2. *)
let write ~cmd what path text =
  if path = "-" then print_string text
  else
    try Out_channel.with_open_text path (fun oc -> output_string oc text)
    with Sys_error msg ->
      Format.eprintf "anorad %s: cannot write %s: %s@." cmd what msg;
      exit 2

let load_config ~cmd path =
  match
    if path = "-" then CIo.of_string (In_channel.input_all In_channel.stdin)
    else CIo.read_file path
  with
  | exception (Failure msg | Sys_error msg) -> invalid ~cmd "configuration" msg
  | config when C.size config = 0 ->
      invalid ~cmd "configuration" "empty configuration"
  | config -> config

(* Parse, then validate against the configuration: an out-of-range node is
   an invalid plan too. *)
let load_plan ~cmd config path =
  match FP.read_file path with
  | exception (Failure msg | Sys_error msg) -> invalid ~cmd "plan" msg
  | plan -> (
      match FP.validate config plan with
      | Ok () -> plan
      | Error msg -> invalid ~cmd "plan" msg)

let verbose_arg =
  let doc = "Print the full refinement trace." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* Checked when the command line is read, before any work. *)
let max_rounds_arg cmd =
  let doc = "Abort the simulation after this many global rounds." in
  Term.(
    const (fun n -> in_range ~cmd 0 "max-rounds" n; n)
    $ Arg.(value & opt int 10_000_000 & info [ "max-rounds" ] ~docv:"N" ~doc))

let jobs_arg =
  let doc =
    "Worker domains for the parallel sweep (default: the $(b,ANORAD_JOBS) \
     environment variable, else the machine's recommended domain count).  \
     1 is the literal sequential path; every level produces byte-identical \
     output (see docs/PARALLEL.md)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let with_jobs_pool jobs f =
  let pool = Radio_exec.Pool.create ?jobs () in
  Fun.protect
    ~finally:(fun () -> Radio_exec.Pool.shutdown pool)
    (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* classify                                                            *)
(* ------------------------------------------------------------------ *)

let classify_cmd =
  let run path verbose =
    let config = load_config ~cmd:"classify" path in
    if not (C.is_connected config) then
      Format.printf
        "warning: configuration is disconnected; the paper's guarantees \
         assume connectivity@.";
    let a = Fe.analyze config in
    if verbose then Format.printf "%a@.@." Cl.pp_run a.Fe.run;
    match a.Fe.leader with
    | Some leader ->
        Format.printf "FEASIBLE@.";
        Format.printf "canonical leader: node %d@." leader;
        Format.printf "iterations: %d@." (Cl.num_iterations a.Fe.run);
        Format.printf "dedicated election terminates in local round %d@."
          a.Fe.election_local_rounds;
        0
    | None ->
        Format.printf "INFEASIBLE@.";
        Format.printf
          "no deterministic distributed algorithm can elect a leader on this \
           configuration@.";
        1
  in
  let doc = "decide whether a configuration admits deterministic leader election" in
  Cmd.v
    (Cmd.info "classify" ~doc)
    Term.(const run $ config_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* elect                                                               *)
(* ------------------------------------------------------------------ *)

let elect_cmd =
  let run path max_rounds =
    let config = load_config ~cmd:"elect" path in
    let a = Fe.analyze config in
    if not a.Fe.feasible then begin
      Format.printf "INFEASIBLE: nothing to elect@.";
      1
    end
    else begin
      match Fe.verify_by_simulation ~max_rounds a with
      | Some
          { Runner.leader = Some v; rounds_to_elect = Some rounds; outcome; _ }
        ->
          Format.printf "leader: node %d@." v;
          Format.printf "elected in %d global rounds@." rounds;
          Format.printf "%a@." Radio_sim.Metrics.pp outcome.Engine.metrics;
          0
      | Some _ | None ->
          Format.printf "simulation did not elect within %d rounds@." max_rounds;
          2
    end
  in
  let doc = "compile the dedicated algorithm and simulate the election" in
  Cmd.v
    (Cmd.info "elect" ~doc)
    Term.(const run $ config_arg $ max_rounds_arg "elect")

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let run path max_rounds =
    let config = load_config ~cmd:"trace" path in
    let a = Fe.analyze config in
    let o =
      Engine.run ~max_rounds ~record_trace:true
        (Can.protocol a.Fe.plan) config
    in
    print_string (Radio_sim.Timeline.render_with_legend o);
    Format.printf "---@.";
    Format.printf "%a@." Trace.pp o.Engine.trace;
    Format.printf "---@.";
    Array.iteri
      (fun v h ->
        Format.printf "node %d history: %a@." v Radio_drip.History.pp h)
      o.Engine.histories;
    (* a run cut off by --max-rounds decides nothing *)
    if a.Fe.feasible then
      let decide = Can.decision a.Fe.plan in
      Format.printf "leader (by decision function): %s@."
        (match
           List.filter
             (fun v -> decide o.Engine.histories.(v))
             (if o.Engine.all_terminated then List.init (C.size config) Fun.id
              else [])
         with
        | [ v ] -> Printf.sprintf "node %d" v
        | _ -> "none")
    else Format.printf "configuration infeasible: no decision function@.";
    0
  in
  let doc = "simulate the canonical DRIP with a full per-round event log" in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ config_arg $ max_rounds_arg "trace")

(* ------------------------------------------------------------------ *)
(* family                                                              *)
(* ------------------------------------------------------------------ *)

let family_cmd =
  let family_arg =
    let doc = "Family name: g | h | s (the paper's G_m, H_m, S_m)." in
    Arg.(
      required
      & pos 0 (some (Arg.enum [ ("g", `G); ("h", `H); ("s", `S) ])) None
      & info [] ~docv:"FAMILY" ~doc)
  in
  let m_arg =
    let doc = "Family parameter m." in
    Arg.(required & pos 1 (some int) None & info [] ~docv:"M" ~doc)
  in
  let run family m =
    match
      match family with
      | `G -> F.g_family m
      | `H -> F.h_family m
      | `S -> F.s_family m
    with
    | config ->
        print_string (CIo.to_string config);
        0
    | exception C.Invalid_configuration msg -> invalid ~cmd:"family" "parameter" msg
  in
  let doc = "print a configuration from the paper's families (pipe into classify/elect)" in
  Cmd.v (Cmd.info "family" ~doc) Term.(const run $ family_arg $ m_arg)

(* ------------------------------------------------------------------ *)
(* refute                                                              *)
(* ------------------------------------------------------------------ *)

let refute_cmd =
  let run path =
    let config = load_config ~cmd:"refute" path in
    let a = Fe.analyze config in
    match Fe.dedicated_election a with
    | None ->
        Format.printf "configuration infeasible: no dedicated algorithm to refute@.";
        1
    | Some e ->
        let r = Imp.refute_universal e in
        Format.printf "probe: first lonely transmission in round %s@."
          (match r.Imp.probe_round with
          | Some t -> string_of_int t
          | None -> "never");
        Format.printf "counterexample (feasible 4-node configuration):@.%s"
          (CIo.to_string r.Imp.counterexample);
        Format.printf "candidate elected there: %s@."
          (match r.Imp.result.Runner.leader with
          | Some v -> Printf.sprintf "node %d" v
          | None -> "nobody");
        Format.printf "universality refuted: %b@." r.Imp.refuted;
        if r.Imp.refuted then 0 else 3
  in
  let doc =
    "run the Proposition 4.4 adversary against the configuration's dedicated \
     algorithm"
  in
  Cmd.v (Cmd.info "refute" ~doc) Term.(const run $ config_arg)

(* ------------------------------------------------------------------ *)
(* compile / run-plan                                                  *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let output_arg =
    let doc = "Output file for the compiled plan ('-' for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run path output =
    let config = load_config ~cmd:"compile" path in
    let a = Fe.analyze config in
    write ~cmd:"compile" "plan" output (Election.Plan_io.to_string a.Fe.plan);
    if a.Fe.feasible then 0
    else begin
      Format.eprintf
        "warning: configuration is infeasible; the plan has no decision \
         function (its phases still run)@.";
      1
    end
  in
  let doc =
    "compile a configuration's dedicated algorithm to a plan file (the \
     artifact installed at every node)"
  in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run $ config_arg $ output_arg)

let run_plan_cmd =
  let plan_arg =
    let doc = "Compiled plan file (from the 'compile' subcommand)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PLAN" ~doc)
  in
  let config_pos1 =
    let doc = "Configuration file to execute the plan on." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CONFIG" ~doc)
  in
  let run plan_path config_path max_rounds =
    let plan =
      match Election.Plan_io.read_file plan_path with
      | exception (Failure msg | Sys_error msg) ->
          invalid ~cmd:"run-plan" "plan" msg
      | plan -> plan
    in
    let config = load_config ~cmd:"run-plan" config_path in
    let r =
      Radio_sim.Runner.run ~max_rounds (Can.election plan) config
    in
    (match (r.Runner.leader, r.Runner.rounds_to_elect) with
    | Some v, Some rounds ->
        Format.printf "leader: node %d (in %d global rounds)@." v rounds
    | _ ->
        Format.printf
          "no unique leader (plan executed on a foreign or infeasible \
           configuration?)@.");
    if Runner.elects_unique_leader r then 0 else 1
  in
  let doc = "execute a compiled plan on a configuration (possibly a foreign one)" in
  Cmd.v
    (Cmd.info "run-plan" ~doc)
    Term.(const run $ plan_arg $ config_pos1 $ max_rounds_arg "run-plan")

(* ------------------------------------------------------------------ *)
(* explain / repair                                                    *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let dot_arg =
    let doc = "Emit a GraphViz rendering instead of text." in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let run path dot =
    let config = load_config ~cmd:"explain" path in
    let e = Election.Explain.explain (Election.Fast_classifier.classify config) in
    if dot then print_string (Election.Explain.to_dot e)
    else begin
      Format.printf "%a@." Election.Explain.pp e;
      (* A second, independently checkable opinion when available. *)
      match Election.Symmetry.find config with
      | Some cert ->
          Format.printf
            "symmetry certificate (fixed-point-free tag-preserving \
             automorphism): [%s]@."
            (String.concat "; "
               (List.map string_of_int (Array.to_list cert)))
      | None -> ()
    end;
    match e.Election.Explain.leader with Some _ -> 0 | None -> 1
  in
  let doc = "explain a verdict: separation story or residual symmetry groups" in
  Cmd.v (Cmd.info "explain" ~doc) Term.(const run $ config_arg $ dot_arg)

let census_cmd =
  let max_n_arg =
    let doc = "Largest graph size to enumerate (1..6)." in
    Arg.(value & opt int 4 & info [ "max-n" ] ~docv:"N" ~doc)
  in
  let max_span_arg =
    let doc = "Largest tag span to enumerate." in
    Arg.(value & opt int 2 & info [ "max-span" ] ~docv:"S" ~doc)
  in
  let run max_n max_span jobs =
    universe_bounds ~cmd:"census" ~max_n ~max_span;
    let report =
      with_jobs_pool jobs (fun pool ->
          Election.Census.run ~pool ~max_n ~max_span ())
    in
    Format.printf "%a@." Election.Census.pp_report report;
    if report.Election.Census.all_consistent then 0 else 2
  in
  let doc =
    "exhaustively classify and cross-validate every small configuration \
     (all connected graphs up to isomorphism x all normalized tag vectors)"
  in
  Cmd.v (Cmd.info "census" ~doc)
    Term.(const run $ max_n_arg $ max_span_arg $ jobs_arg)

let catalog_cmd =
  let name_arg =
    let doc = "Entry to print (omit to list the catalog)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let run name =
    match name with
    | None ->
        List.iter
          (fun e ->
            Printf.printf "%-16s %s\n" e.Radio_config.Catalog.name
              e.Radio_config.Catalog.summary)
          (Radio_config.Catalog.all ());
        0
    | Some name -> (
        match Radio_config.Catalog.find name with
        | Some e ->
            print_string (CIo.to_string e.Radio_config.Catalog.config);
            0
        | None ->
            Format.eprintf "unknown catalog entry %S; try 'anorad catalog'@."
              name;
            1)
  in
  let doc = "list or print the library's named example configurations" in
  Cmd.v (Cmd.info "catalog" ~doc) Term.(const run $ name_arg)

let optimal_cmd =
  let run path jobs =
    let config = load_config ~cmd:"optimal" path in
    check_explorable ~cmd:"optimal" config;
    (match
       with_jobs_pool jobs (fun pool ->
           Radio_mc.Optimal.breaking_time ~pool config)
     with
    | Radio_mc.Optimal.Broken_at r ->
        Format.printf
          "optimal symmetry-breaking round (over all algorithms): %d@." r
    | Radio_mc.Optimal.Never ->
        Format.printf "infeasible: symmetry never breaks@."
    | Radio_mc.Optimal.Not_within_horizon ->
        Format.printf "not broken within the search horizon@."
    | Radio_mc.Optimal.Search_budget_exhausted ->
        Format.printf "search budget exhausted (instance too large)@.");
    (match Radio_mc.Optimal.canonical_breaking_time config with
    | Some r -> Format.printf "canonical DRIP separates at round %d@." r
    | None -> ());
    0
  in
  let doc =
    "exhaustively search for the minimal symmetry-breaking round (small \
     configurations only)"
  in
  Cmd.v (Cmd.info "optimal" ~doc) Term.(const run $ config_arg $ jobs_arg)

let fragility_cmd =
  let run path =
    let config = load_config ~cmd:"fragility" path in
    if not (Election.Feasibility.is_feasible config) then begin
      Format.printf "configuration is infeasible; try 'anorad repair'@.";
      1
    end
    else begin
      Format.printf "%a@." Election.Fragility.pp
        (Election.Fragility.single_tag config);
      0
    end
  in
  let doc = "measure how many single wake-up-tag slips break feasibility" in
  Cmd.v (Cmd.info "fragility" ~doc) Term.(const run $ config_arg)

let audit_cmd =
  let run path max_rounds =
    let config = load_config ~cmd:"audit" path in
    let report = Election.Audit.run ~max_rounds config in
    Format.printf "%a@." Election.Audit.pp report;
    if report.Election.Audit.all_passed then 0 else 2
  in
  let doc =
    "run the full lemma battery (Lemmas 3.4-3.11 and library invariants) on \
     a configuration"
  in
  Cmd.v (Cmd.info "audit" ~doc)
    Term.(const run $ config_arg $ max_rounds_arg "audit")

let repair_cmd =
  let max_changes_arg =
    let doc = "Maximum number of nodes whose tag may change." in
    Arg.(value & opt int 2 & info [ "max-changes" ] ~docv:"K" ~doc)
  in
  let max_tag_arg =
    let doc = "Largest tag the repair may assign (default: span + 1)." in
    Arg.(value & opt (some int) None & info [ "max-tag" ] ~docv:"T" ~doc)
  in
  let run path max_changes max_tag =
    in_range ~cmd:"repair" 1 "max-changes" max_changes;
    let config = load_config ~cmd:"repair" path in
    match Election.Repair.repair ?max_tag ~max_changes config with
    | Some plan ->
        Format.printf "%a@." Election.Repair.pp_plan plan;
        Format.printf "repaired configuration:@.%s"
          (CIo.to_string plan.Election.Repair.repaired);
        0
    | None ->
        Format.printf
          "no feasible tag assignment within the budget (max %d changes)@."
          max_changes;
        1
  in
  let doc = "find a minimal wake-up-tag change making the configuration feasible" in
  Cmd.v
    (Cmd.info "repair" ~doc)
    Term.(const run $ config_arg $ max_changes_arg $ max_tag_arg)

(* ------------------------------------------------------------------ *)
(* lint / check-trace                                                  *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let module D = Radiolint_core.Driver in
  let paths_arg =
    let doc = "Files or directories to lint (default: lib)." in
    Arg.(value & pos_all string [ "lib" ] & info [] ~docv:"PATH" ~doc)
  in
  let sarif_arg =
    let doc = "Write a SARIF 2.1.0 report to $(docv) ('-' for stdout)." in
    Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)
  in
  (* The one exit for every file error — a scanned path or the SARIF
     report: each Sys_error reads "path: reason". *)
  let file_error msg =
    Format.eprintf "anorad lint: %s@." msg;
    exit 2
  in
  let run paths sarif =
    let findings =
      match D.scan paths with
      | exception Sys_error msg -> file_error msg
      | findings -> findings
    in
    (match sarif with
    | Some "-" -> print_string (D.to_sarif findings)
    | _ ->
        Option.iter
          (fun file ->
            match
              Out_channel.with_open_text file (fun oc ->
                  output_string oc (D.to_sarif findings))
            with
            | exception Sys_error msg -> file_error msg
            | () -> ())
          sarif;
        List.iter (Format.printf "%a@." D.pp_finding) findings);
    match List.length findings with
    | 0 -> 0
    | n ->
        Format.eprintf "%d violation%s@." n (if n = 1 then "" else "s");
        1
  in
  let doc =
    "lint sources for determinism hazards.  Every scan runs the AST rules \
     (stray Random.*, Hashtbl iteration, physical equality, Obj.magic, \
     toplevel mutable state, catch-all handlers, assert false, missing \
     .mli, files that do not parse) and the interprocedural taint, \
     effect-escape, value-range and exception-escape analyses"
  in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"no findings.";
      Cmd.Exit.info 1 ~doc:"lint findings were reported.";
      Cmd.Exit.info 2
        ~doc:
          "usage error or I/O error: a path cannot be read or the SARIF \
           report cannot be written.";
    ]
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `S "SUPPRESSING FINDINGS";
      `P
        "Annotate the offending line (or a comment-only line directly \
         above it) with (* radiolint: allow <rule> — reason *); it is the \
         one way to suppress a finding.  Taint findings anchor at the \
         function definition, so the annotation belongs on the $(b,let); \
         effect escapes anchor at the Pool submit call but take the \
         annotation on the submitting function's $(b,let); partiality \
         annotations go on a raising line, a definition (a barrier: it \
         raises nothing to its callers) or a Pool submit line.  No \
         annotation can suppress a $(b,parse-error) finding: the parser \
         never reads it.";
    ]
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~exits ~man)
    Term.(const run $ paths_arg $ sarif_arg)

(* ------------------------------------------------------------------ *)
(* effects                                                             *)
(* ------------------------------------------------------------------ *)

let effects_cmd =
  let module CG = Radiolint_core.Callgraph in
  let module E = Radiolint_core.Effects in
  let paths_arg =
    let doc = "Files or directories to analyze (default: lib)." in
    Arg.(value & pos_all string [ "lib" ] & info [] ~docv:"PATH" ~doc)
  in
  let summary_arg =
    let doc =
      "Print a per-module census (how many functions land in each effect \
       class) instead of the per-function listing."
    in
    Arg.(value & flag & info [ "summary" ] ~doc)
  in
  let run paths summary =
    let cg =
      match Radiolint_core.Driver.callgraph paths with
      | exception Sys_error msg ->
          Format.eprintf "anorad effects: %s@." msg;
          exit 2
      | Ok cg -> cg
      | Error unparseable ->
          Format.eprintf "anorad effects: %a@." Radiolint_core.Driver.pp_finding
            unparseable;
          exit 2
    in
    let infos = E.classify cg in
    if summary then begin
      (* One row of per-class counts per top module, in first-appearance
         order (classify sorts by path, so modules group by file). *)
      let rows =
        List.fold_left
          (fun rows (i : E.info) ->
            let m = CG.module_name_of_path i.E.def.CG.def_path in
            let rows, r =
              match List.assoc_opt m rows with
              | Some r -> (rows, r)
              | None ->
                  let r = Array.make 4 0 in
                  ((m, r) :: rows, r)
            in
            r.(E.rank i.E.cls) <- r.(E.rank i.E.cls) + 1;
            rows)
          [] infos
        |> List.rev
      in
      let width =
        List.fold_left (fun w (m, _) -> max w (String.length m)) 6 rows
      in
      Format.printf "%-*s %6s %9s %10s %6s %6s@." width "module" "Pure"
        "LocalMut" "SharedMut" "IO" "total";
      List.iter
        (fun (m, r) ->
          Format.printf "%-*s %6d %9d %10d %6d %6d@." width m r.(0) r.(1)
            r.(2) r.(3)
            (r.(0) + r.(1) + r.(2) + r.(3)))
        rows;
      let count c =
        List.length (List.filter (fun (i : E.info) -> i.E.cls = c) infos)
      in
      Format.printf "%-*s %6d %9d %10d %6d %6d@." width "total"
        (count E.Pure) (count E.Local_mut) (count E.Shared_mut) (count E.Io)
        (List.length infos)
    end
    else
      List.iter
        (fun (i : E.info) ->
          match i.E.chain with
          | [] ->
              Format.printf "%s:%d: %s  %s@." i.E.def.CG.def_path
                i.E.def.CG.def_line i.E.def.CG.display (E.cls_name i.E.cls)
          | chain ->
              Format.printf "%s:%d: %s  %s  (%s)@." i.E.def.CG.def_path
                i.E.def.CG.def_line i.E.def.CG.display (E.cls_name i.E.cls)
                (String.concat " → "
                   (List.map (fun (h : E.hop) -> h.E.name) chain)))
        infos;
    0
  in
  let doc =
    "classify every function on the effect lattice (Pure < LocalMut < \
     SharedMut < IO) with witness chains; $(b,--summary) prints a \
     per-module census.  The escape check (Pool tasks must stay <= \
     LocalMut) runs on every $(b,anorad lint)."
  in
  Cmd.v (Cmd.info "effects" ~doc) Term.(const run $ paths_arg $ summary_arg)

(* ------------------------------------------------------------------ *)
(* mc                                                                  *)
(* ------------------------------------------------------------------ *)

let mc_cmd =
  let module Machine = Radio_mc.Machine in
  let module Mutant = Radio_mc.Mutant in
  let module Checker = Radio_mc.Checker in
  let module Oracle = Radio_mc.Oracle in
  let module Sarif = Radiolint_core.Sarif in
  let mc_rules =
    [
      ("mc-two-leaders", "safety: more than one node decided leader");
      ("mc-no-leader", "feasible configuration terminated without a leader");
      ( "mc-leader-on-infeasible",
        "a leader emerged on an infeasible configuration" );
      ("mc-wrong-leader", "elected leader differs from the canonical one");
      ( "mc-liveness-bound",
        "election exceeded the O(n^2 sigma) global-round bound" );
    ]
  in
  let config_opt_arg =
    let doc =
      "Configuration file ('-' for stdin).  Not needed with $(b,--oracle)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"CONFIG" ~doc)
  in
  let depth_arg =
    let doc =
      "Cap exploration at $(docv) global rounds.  Default: one past the \
       paper's sigma + ceil(n/2)(n(2 sigma+1)+sigma)+1 bound in protocol \
       mode; 24 in $(b,--explore) mode."
    in
    Arg.(value & opt (some int) None & info [ "depth" ] ~docv:"N" ~doc)
  in
  let states_arg =
    let doc = "State budget: interned history keys in protocol mode \
               (default 200000), visited canonical states in \
               $(b,--explore) mode (default 2000000 — states live \
               bit-packed in an unboxed arena, so millions are cheap)." in
    Arg.(
      value
      & opt (some int) None
      & info [ "states"; "state-cap" ] ~docv:"N" ~doc)
  in
  let protocol_arg =
    let doc =
      "Machine to check: a registered protocol (drip, pure-drip, beacon, \
       silent, min-beacon, wave) or a seeded mutant (mutant-greedy, \
       mutant-early-stop) as a negative control."
    in
    Arg.(value & opt string "drip" & info [ "protocol" ] ~docv:"NAME" ~doc)
  in
  let explore_arg =
    let doc =
      "Universal mode: branch over every subset of awake history classes \
       transmitting (all deterministic anonymous protocols at once) and \
       report whether any reachable state separates a node, instead of \
       checking one protocol."
    in
    Arg.(value & flag & info [ "explore" ] ~doc)
  in
  let faults_arg =
    let doc =
      "With $(b,--explore): arm a crash adversary that may kill up to \
       $(docv) awake nodes (one per round).  Crashes name concrete nodes, \
       so they are what gives the symmetry quotient something to collapse."
    in
    Arg.(value & opt int 0 & info [ "faults" ] ~docv:"K" ~doc)
  in
  let no_reduction_arg =
    let doc =
      "With $(b,--explore): disable the automorphism-quotient symmetry \
       reduction (for measuring what it saves)."
    in
    Arg.(value & flag & info [ "no-reduction" ] ~doc)
  in
  let replay_arg =
    let doc =
      "Replay the extracted trace through the concrete engine and validate \
       it against every model invariant (in $(b,--oracle) mode: replay \
       every configuration's trace)."
    in
    Arg.(value & flag & info [ "replay" ] ~doc)
  in
  let oracle_arg =
    let doc =
      "Differential oracle: for every connected configuration with at most \
       $(docv) nodes (tag span <= 2), check that the model-checker verdict \
       under the canonical DRIP agrees with the classifier.  Ignores \
       CONFIG."
    in
    Arg.(value & opt (some int) None & info [ "oracle" ] ~docv:"N" ~doc)
  in
  let sarif_arg =
    let doc = "Write a SARIF 2.1.0 report to $(docv) ('-' for stdout)." in
    Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)
  in
  let pp_stats ppf (s : Checker.stats) =
    Format.fprintf ppf
      "states: %d explored (%d raw), peak frontier %d, depth reached %d, %d \
       history keys, automorphism group %d"
      s.Checker.states_explored s.Checker.states_raw s.Checker.peak_frontier
      s.Checker.depth_reached s.Checker.distinct_keys s.Checker.automorphisms;
    if s.Checker.visited_bytes > 0 then
      Format.fprintf ppf ", %d canonicalizations, visited set %d bytes"
        s.Checker.canonicalizations s.Checker.visited_bytes
  in
  let write_sarif sarif results =
    Option.iter
      (fun dst ->
        write ~cmd:"mc" "SARIF report" dst
          (Sarif.to_string ~tool_version:"1.0.0" ~rules:mc_rules results))
      sarif
  in
  let run_oracle max_n replay sarif jobs =
    (* Liveness on stderr so stdout stays byte-comparable across runs. *)
    let progress finished total =
      if finished = total || finished mod 16 = 0 then
        Printf.eprintf "\rmc oracle: %d/%d configs%!" finished total;
      if finished = total then prerr_newline ()
    in
    (* the oracle's cells: every span up to 2 *)
    let max_span = 2 in
    universe_bounds ~cmd:"mc" ~max_n ~max_span;
    let report =
      with_jobs_pool jobs (fun pool ->
          Oracle.run ~pool ~progress ~max_n ~max_span ~replay ())
    in
    Format.printf "%a@." Oracle.pp_report report;
    let results =
      List.map
        (fun (d : Oracle.disagreement) ->
          {
            Sarif.rule_id = "mc-oracle-disagreement";
            message =
              Format.asprintf "%a" Oracle.pp_disagreement d
              |> String.map (fun c -> if c = '\n' then ' ' else c);
            path = "<enumerated>";
            line = 1;
            fingerprint = Format.asprintf "mc-oracle:%s" d.Oracle.detail;
            properties = [];
            related = [];
          })
        report.Oracle.disagreements
    in
    write_sarif sarif results;
    if Oracle.consistent report then 0 else 1
  in
  let run_explore config depth states faults reduction jobs =
    (* Liveness and timing on stderr only: stdout must stay
       byte-comparable across runs and across --jobs levels
       (make mc-smoke diffs it). *)
    let t0 = Unix.gettimeofday () in
    let ticked = ref false in
    let progress ~round ~frontier ~explored ~bytes =
      ticked := true;
      Printf.eprintf
        "\rmc explore: round %d, frontier %d, visited %d (%.1f MB)   %!"
        round frontier explored
        (float_of_int bytes /. 1_048_576.)
    in
    let exploration =
      with_jobs_pool jobs (fun pool ->
          Checker.explore ?depth ?states ~reduction ~faults ~pool ~progress
            config)
    in
    if !ticked then prerr_newline ();
    let st = exploration.Checker.stats in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.eprintf
      "mc explore: %d states (%d raw) in %.3f s — %.0f states/s, visited \
       set peak %.1f MB\n\
       %!"
      st.Checker.states_explored st.Checker.states_raw dt
      (float_of_int st.Checker.states_raw /. Float.max dt 1e-9)
      (float_of_int st.Checker.visited_bytes /. 1_048_576.);
    (match exploration.Checker.separated_at with
    | Some r ->
        Format.printf
          "separation: a reachable state holds a uniquely-distinguished \
           node by round %d@."
          r
    | None ->
        Format.printf
          "no separation: no explored state distinguishes any node (the \
           symmetric core of infeasibility)@.");
    Format.printf "%a@." pp_stats exploration.Checker.stats;
    (* A found separation answers the universal question affirmatively no
       matter which budget stopped the search.  Reaching the depth bound
       is the normal end of a bounded exploration (histories grow every
       round, so the frontier never empties on its own): "no separation
       within depth d" is the conclusive bounded answer.  Only the state
       cap cutting the search short of the requested depth leaves the
       negative answer inconclusive. *)
    match
      (exploration.Checker.separated_at, exploration.Checker.exhausted)
    with
    | Some _, _ -> 0
    | None, Some `States ->
        Format.printf
          "inconclusive: state cap (%d states) hit before depth was \
           exhausted — raise --state-cap@."
          (match states with Some s -> s | None -> 2_000_000);
        2
    | None, (None | Some `Depth) ->
        Format.printf "conclusive at depth %d: no separation is reachable@."
          (st.Checker.depth_reached + 1);
        0
  in
  let run_check a path machine depth states replay sarif =
    let res = Checker.verify ?depth ?states ~machine a in
    Format.printf "machine: %s@." res.Checker.machine_name;
    Format.printf "verdict: %a@." Checker.pp_verdict res.Checker.verdict;
    Format.printf "rounds: %d@." res.Checker.rounds;
    Format.printf "%a@." pp_stats res.Checker.stats;
    if replay then begin
      let r = Checker.replay ~machine res in
      Format.printf "engine replay: trace %s, model invariants %s@."
        (if r.Checker.trace_matches then "matches bit-for-bit"
         else "DIVERGES")
        (if Radio_lint.Report.ok r.Checker.report then "hold"
         else "violated")
    end;
    match res.Checker.verdict with
    | Checker.Elected _ | Checker.Non_election _ ->
        write_sarif sarif [];
        0
    | Checker.Violated v ->
        Format.printf "counterexample trace (replayable through 'anorad \
                       check-trace'):@.%a@."
          Trace.pp res.Checker.trace;
        write_sarif sarif
          [
            {
              Sarif.rule_id = Checker.violation_id v;
              message = Format.asprintf "%a" Checker.pp_violation v;
              path;
              line = 1;
              fingerprint =
                Printf.sprintf "%s:%s" (Checker.violation_id v) path;
              properties = [];
              related = [];
            };
          ];
        1
    | Checker.Exhausted b ->
        Format.printf "budget exhausted: %s — no verdict@."
          (match b with `Depth -> "depth" | `States -> "states");
        2
  in
  let run config_path depth states protocol explore faults no_reduction
      replay oracle sarif jobs =
    match oracle with
    | Some max_n -> run_oracle max_n replay sarif jobs
    | None -> (
        match config_path with
        | None ->
            Format.eprintf
              "anorad mc: a CONFIG argument is required (or use --oracle \
               N)@.";
            2
        | Some path -> (
            Option.iter (in_range ~cmd:"mc" 0 "depth") depth;
            let config = load_config ~cmd:"mc" path in
            let known = Machine.names @ Mutant.names in
            if explore then check_explorable ~cmd:"mc" config;
            let n = C.size config in
            let hi = if explore then Checker.max_explore_states ~n else max_int in
            Option.iter (in_range ~cmd:"mc" ~hi 0 "states") states;
            if explore then
              run_explore config depth states faults (not no_reduction) jobs
            else if not (List.mem protocol known) then begin
              (* Refused before the configuration is classified. *)
              Format.eprintf "anorad mc: unknown protocol %S (known: %s)@."
                protocol (String.concat ", " known);
              2
            end
            else
              let a = Fe.analyze config in
              match
                List.find_map
                  (fun of_name -> of_name a.Fe.plan protocol)
                  [ Machine.of_name; Mutant.of_name ]
              with
              | Some machine ->
                  run_check a path machine depth states replay sarif
              | None -> 2))
  in
  let doc =
    "bounded model checking of the election transition system: verify \
     safety (never two leaders) and bounded liveness (a feasible \
     configuration elects its canonical leader within the paper's O(n^2 \
     sigma) bound) for a pluggable per-node protocol, extract replayable \
     counterexample traces, explore the protocol-universal transition \
     relation with symmetry reduction ($(b,--explore)), or cross-check \
     every small configuration against the classifier ($(b,--oracle))"
  in
  let exits =
    [
      Cmd.Exit.info 0
        ~doc:
          "property verified (exploration / oracle completed with nothing \
           to report).";
      Cmd.Exit.info 1
        ~doc:
          "a property violation was found; the counterexample trace is \
           printed (and the finding written to --sarif).";
      Cmd.Exit.info 2
        ~doc:
          "usage error, or a budget exhausted before a verdict.  \
           $(b,--explore) distinguishes the two budgets: a fully explored \
           depth bound without separation prints 'conclusive at depth d' \
           and exits 0; the state cap tripping first prints \
           'inconclusive: state cap' and exits 2.";
    ]
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `S "COUNTEREXAMPLES";
      `P
        "A Violated verdict prints the offending execution as a concrete \
         trace in the same format the engine records; replaying the \
         machine concretely ($(b,--replay)) re-derives it bit-for-bit and \
         runs the full model-conformance checker on the outcome.";
    ]
  in
  Cmd.v
    (Cmd.info "mc" ~doc ~exits ~man)
    Term.(
      const run $ config_opt_arg $ depth_arg $ states_arg $ protocol_arg
      $ explore_arg $ faults_arg $ no_reduction_arg $ replay_arg
      $ oracle_arg $ sarif_arg $ jobs_arg)

(* Headline for a failed conformance check: name the invariant and the node
   it broke at, so a failing CI line is actionable without the full report. *)
let pp_violation_headline ppf (vs : Radio_lint.Report.t) =
  match vs with
  | [] -> ()
  | v :: _ ->
      Format.fprintf ppf
        "check-trace: FAILED: invariant %S violated%s%s (%d violation%s \
         total)"
        v.Radio_lint.Report.check
        (match v.Radio_lint.Report.node with
        | Some n -> Printf.sprintf " at node %d" n
        | None -> "")
        (match v.Radio_lint.Report.round with
        | Some r -> Printf.sprintf " in round %d" r
        | None -> "")
        (List.length vs)
        (if List.length vs = 1 then "" else "s")

let check_trace_cmd =
  let plan_opt_arg =
    let doc =
      "Fault plan file: execute the run under these faults and report which \
       pristine-model invariants the faults break (see 'anorad faults' for \
       the fault-aware checker)."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"PLAN" ~doc)
  in
  let run path max_rounds plan_path =
    let config = load_config ~cmd:"check-trace" path in
    let a = Fe.analyze config in
    let proto = Can.protocol a.Fe.plan in
    let o, vs =
      match plan_path with
      | None ->
          let o = Engine.run ~max_rounds ~record_trace:true proto config in
          (o, Radio_lint.Invariants.validate ~protocol:proto o)
      | Some plan_path ->
          let plan = load_plan ~cmd:"check-trace" config plan_path in
          let fo =
            Engine.run_plan ~max_rounds ~record_trace:true plan proto config
          in
          (* Deliberately the pristine validator: the point of --plan here
             is to show which model invariants the faults break. *)
          (fo.Engine.base, Radio_lint.Invariants.validate fo.Engine.base)
    in
    Format.printf "protocol: %s@." proto.Radio_drip.Protocol.name;
    Format.printf "rounds: %d, all terminated: %b@." o.Engine.rounds
      o.Engine.all_terminated;
    match vs with
    | [] ->
        Format.printf
          "all model invariants hold (collision semantics, termination \
           permanence, forced wake-ups, history consistency, anonymity, \
           purity of instances)@.";
        0
    | vs ->
        Format.printf "%a@." pp_violation_headline vs;
        Format.printf "%a@." Radio_lint.Report.pp vs;
        2
  in
  let doc =
    "execute the configuration's canonical DRIP with a trace and verify \
     every model invariant of Sections 2.1/2.2 against the outcome"
  in
  Cmd.v
    (Cmd.info "check-trace" ~doc)
    Term.(const run $ config_arg $ max_rounds_arg "check-trace" $ plan_opt_arg)

(* ------------------------------------------------------------------ *)
(* faults / resilience                                                 *)
(* ------------------------------------------------------------------ *)

let faults_cmd =
  let plan_pos1 =
    let doc =
      "Fault plan file ('faults' header, then 'crash <node> <round>', \
       'drop <src> <dst> <round>', 'noise <node> <round>', 'jitter <node> \
       <delta>' lines)."
    in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"PLAN" ~doc)
  in
  let supervise_arg =
    let doc =
      "On a failed election, hand the run to the supervisor: re-seed the \
       wake-up tags and retry with exponential backoff."
    in
    Arg.(value & flag & info [ "supervise" ] ~doc)
  in
  let run path plan_path max_rounds supervise =
    let config = load_config ~cmd:"faults" path in
    let plan = load_plan ~cmd:"faults" config plan_path in
    let a = Fe.analyze config in
    let proto = Can.protocol a.Fe.plan in
    let fo = Engine.run_plan ~max_rounds ~record_trace:true plan proto config in
    Format.printf "rounds: %d, survivors all terminated: %b@."
      fo.Engine.base.Engine.rounds fo.Engine.base.Engine.all_terminated;
    Format.printf "fault ledger (%d fired):@.%a@."
      (List.length fo.Engine.ledger)
      Engine.pp_ledger fo.Engine.ledger;
    (match Radio_lint.Invariants.validate_faulty ~protocol:proto fo with
    | [] -> Format.printf "fault-aware model invariants hold@."
    | vs ->
        Format.printf "%a@." Radio_lint.Report.pp vs;
        exit 2);
    if not a.Fe.feasible then begin
      Format.printf "configuration infeasible: no election to degrade@.";
      1
    end
    else begin
      match Engine.elected (Can.decision a.Fe.plan) fo with
      | Some v ->
          Format.printf "leader: node %d@." v;
          0
      | None ->
          Format.printf "no unique surviving leader under this plan@.";
          if supervise then begin
            let r = Radio_faults.Supervisor.supervise ~plan config in
            Format.printf "%a@?" Radio_faults.Supervisor.pp r;
            match r.Radio_faults.Supervisor.leader with
            | Some _ -> 0
            | None -> 1
          end
          else 1
    end
  in
  let doc =
    "execute a configuration's dedicated election under a deterministic \
     fault plan and check the fault-aware model invariants"
  in
  Cmd.v
    (Cmd.info "faults" ~doc)
    Term.(
      const run $ config_arg $ plan_pos1 $ max_rounds_arg "faults"
      $ supervise_arg)

let resilience_cmd =
  let module R = Radio_faults.Resilience in
  let trials_arg =
    let doc = "Trials per intensity point." in
    Arg.(value & opt int 20 & info [ "trials" ] ~docv:"T" ~doc)
  in
  let seed_arg =
    let doc = "Seed for the crash schedules (the sweep is a deterministic function of it)." in
    Arg.(value & opt int 0xFA17 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let max_intensity_arg =
    let doc = "Largest crash count to sweep (default: n)." in
    Arg.(value & opt (some int) None & info [ "max-intensity" ] ~docv:"K" ~doc)
  in
  let csv_arg =
    let doc = "Write the degradation curve as csv to this file ('-' for stdout)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let run path trials seed max_intensity csv jobs =
    in_range ~cmd:"resilience" 0 "trials" trials;
    Option.iter (in_range ~cmd:"resilience" 0 "max-intensity") max_intensity;
    let config = load_config ~cmd:"resilience" path in
    let name = Filename.remove_extension (Filename.basename path) in
    if not (Fe.is_feasible config) then begin
      Format.eprintf "anorad resilience: configuration is infeasible@.";
      1
    end
    else
      let curve =
        with_jobs_pool jobs (fun pool ->
            R.crash_sweep ~pool ~seed ~trials ?max_intensity ~name config)
      in
      Format.printf "%a@?" R.pp curve;
      print_string (R.to_chart curve);
      Option.iter
        (fun file -> write ~cmd:"resilience" "CSV" file (R.to_csv curve))
        csv;
      0
  in
  let doc =
    "sweep crash-fault intensity over a configuration's dedicated election \
     and emit the degradation curve (success, stability, round overhead)"
  in
  Cmd.v
    (Cmd.info "resilience" ~doc)
    Term.(
      const run $ config_arg $ trials_arg $ seed_arg $ max_intensity_arg
      $ csv_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* churn                                                               *)
(* ------------------------------------------------------------------ *)

let churn_cmd =
  let module Ch = Radio_faults.Churn in
  let module I = Election.Incremental in
  let plan_arg =
    let doc =
      "Scripted flap schedule: a fault-plan file whose topology events \
       ('link-down <u> <v> <round>', 'link-up <u> <v> <round>', 'leave \
       <node> <round>', 'join <node> <round> <tag>', 'retag <node> <round> \
       <tag>') and crashes set the epoch boundaries.  Without it, a \
       schedule is sampled from $(b,--seed) and the flap counts."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"PLAN" ~doc)
  in
  let seed_arg =
    let doc = "Seed for the sampled flap schedule." in
    Arg.(value & opt int 0xC0FF & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let count name doc = Arg.(value & opt int 0 & info [ name ] ~docv:"K" ~doc) in
  let link_flaps_arg =
    count "link-flaps" "Paired link-down/link-up events to sample."
  in
  let node_flaps_arg =
    count "node-flaps" "Paired leave/join events to sample."
  in
  let retags_arg = count "retags" "Alarm-moving retag events to sample." in
  let crashes_arg = count "crashes" "Crash-stop events to sample." in
  let horizon_arg =
    let doc = "Supervised rounds (epoch boundaries must fall inside)." in
    Arg.(value & opt int 200 & info [ "horizon" ] ~docv:"H" ~doc)
  in
  let max_attempts_arg =
    let doc = "Election attempts per epoch before giving up." in
    Arg.(value & opt int 5 & info [ "max-attempts" ] ~docv:"A" ~doc)
  in
  let max_timeout_arg =
    let doc = "Cap on the doubling per-attempt round budget." in
    Arg.(value & opt (some int) None & info [ "max-timeout" ] ~docv:"T" ~doc)
  in
  let oracle_arg =
    let doc =
      "Instead of a churn run: drive K randomized edit sequences through \
       the incremental classifier's differential oracle (bit-for-bit \
       against the from-scratch classifier), parallelized over \
       $(b,--jobs).  CONFIG is ignored in this mode."
    in
    Arg.(value & opt (some int) None & info [ "oracle" ] ~docv:"K" ~doc)
  in
  let run path plan_path seed link_flaps node_flaps retags crashes horizon
      max_attempts max_timeout oracle jobs =
    in_range ~cmd:"churn" 1 "horizon" horizon;
    Option.iter (in_range ~cmd:"churn" 0 "oracle") oracle;
    List.iter
      (fun (name, k) -> in_range ~cmd:"churn" 0 name k)
      [
        ("link-flaps", link_flaps);
        ("node-flaps", node_flaps);
        ("retags", retags);
        ("crashes", crashes);
      ];
    match oracle with
    | Some sequences ->
        let report =
          with_jobs_pool jobs (fun pool ->
              I.Oracle.run ~pool ~sequences ~seed ())
        in
        Format.printf "%a@." I.Oracle.pp report;
        if I.Oracle.ok report then 0 else 2
    | None -> (
        let config = load_config ~cmd:"churn" path in
        let plan =
          match plan_path with
          | Some p -> load_plan ~cmd:"churn" config p
          | None ->
              FP.sample ~seed ~crashes ~link_flaps ~node_flaps ~retags
                ~horizon config
        in
        Format.printf "schedule (%d events):@.@[<v>%a@]@." (List.length plan)
          FP.pp plan;
        let r = Ch.run ~max_attempts ?max_timeout ~plan ~horizon config in
        Format.printf "%a@?" Ch.pp r;
        if r.Ch.final_leader <> None then 0 else 1)
  in
  let doc =
    "supervise a deployment across topology churn: incremental \
     re-classification at every epoch boundary, tag repair when \
     feasibility is lost, and bounded-backoff re-election \
     (availability, rounds-to-re-elect, re-classification cost)"
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const run $ config_arg $ plan_arg $ seed_arg $ link_flaps_arg
      $ node_flaps_arg $ retags_arg $ crashes_arg $ horizon_arg
      $ max_attempts_arg $ max_timeout_arg $ oracle_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let module Srv = Radio_serve.Server in
  let run socket stdio jobs cache_entries max_batch stats_every max_accepts =
    let opts =
      {
        Srv.jobs;
        cache_entries = max 0 cache_entries;
        max_batch = max 1 max_batch;
        stats_every = max 0 stats_every;
      }
    in
    match (stdio, socket) with
    | true, Some _ | false, None ->
        Format.eprintf "anorad serve: pass exactly one of --stdio or --socket PATH@.";
        2
    | true, None ->
        Srv.serve_stdio opts;
        0
    | false, Some path -> (
        match Srv.serve_socket ~max_accepts opts ~path with
        | () -> 0
        | exception Unix.Unix_error (err, fn, _) ->
            Format.eprintf "anorad serve: %s: %s@." fn (Unix.error_message err);
            2)
  in
  let socket_arg =
    let doc = "Listen on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let stdio_arg =
    let doc = "Serve a single request stream over stdin/stdout." in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let cache_entries_arg =
    let doc =
      "LRU result-cache capacity in canonical configurations (0 disables \
       caching).  Cache state never changes response bytes, only latency \
       (docs/SERVE.md)."
    in
    Arg.(value & opt int 256 & info [ "cache-entries" ] ~docv:"N" ~doc)
  in
  let max_batch_arg =
    let doc = "Maximum requests drained into one wave." in
    Arg.(value & opt int 64 & info [ "max-batch" ] ~docv:"N" ~doc)
  in
  let stats_every_arg =
    let doc =
      "Print a telemetry line to stderr every $(docv) requests (0: only \
       when a stats request is served)."
    in
    Arg.(value & opt int 0 & info [ "stats-every" ] ~docv:"N" ~doc)
  in
  let max_accepts_arg =
    let doc =
      "With --socket: exit after serving $(docv) connections (0: serve \
       forever)."
    in
    Arg.(value & opt int 0 & info [ "accepts" ] ~docv:"N" ~doc)
  in
  let doc =
    "election-as-a-service: newline-delimited JSON requests (classify, \
     elect, simulate, mc-check, stats) answered through one amortized \
     domain pool and a canonical-key LRU cache; same request stream, \
     byte-identical response stream at every --jobs level and cache state \
     (docs/SERVE.md)"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ stdio_arg $ jobs_arg $ cache_entries_arg
      $ max_batch_arg $ stats_every_arg $ max_accepts_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "deterministic leader election in anonymous radio networks" in
  let info = Cmd.info "anorad" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            classify_cmd;
            elect_cmd;
            trace_cmd;
            family_cmd;
            refute_cmd;
            compile_cmd;
            run_plan_cmd;
            explain_cmd;
            repair_cmd;
            audit_cmd;
            fragility_cmd;
            census_cmd;
            catalog_cmd;
            optimal_cmd;
            lint_cmd;
            effects_cmd;
            mc_cmd;
            check_trace_cmd;
            faults_cmd;
            resilience_cmd;
            churn_cmd;
            serve_cmd;
          ]))
