(* The execution subsystem: Pool scheduling/determinism/telemetry, the
   mergeable interner, and the parallel == sequential byte-equality
   contract for every wired sweep (census, oracle, resilience, optimal)
   at jobs in {1, 2, 4}. *)

open Radio_exec

let jobs_levels = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool units                                                          *)
(* ------------------------------------------------------------------ *)

let test_empty_batch () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let hits = ref 0 in
          Pool.run_batch pool
            ~f:(fun _ _ -> incr hits)
            ~commit:(fun _ () -> ())
            [||];
          Alcotest.(check int) "no tasks ran" 0 !hits;
          Alcotest.(check (list int)) "map of empty" [] (Pool.map pool ~f:succ [])))
    jobs_levels

let test_one_task () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (list int))
            "singleton map" [ 42 ]
            (Pool.map pool ~f:(fun x -> x * 2) [ 21 ])))
    jobs_levels

let test_map_order () =
  let xs = List.init 257 (fun i -> i) in
  let expect = List.map (fun i -> (i * 7) mod 13) xs in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "map order, jobs=%d" jobs)
            expect
            (Pool.map pool ~f:(fun i -> (i * 7) mod 13) xs)))
    jobs_levels

let test_map_reduce_matches_fold () =
  let xs = List.init 100 (fun i -> i) in
  let f x = Printf.sprintf "<%d>" (x * x) in
  let seq = List.fold_left (fun acc x -> acc ^ f x) "" xs in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let par = Pool.map_reduce pool ~f ~init:"" ~merge:( ^ ) xs in
          Alcotest.(check string)
            (Printf.sprintf "fold equality, jobs=%d" jobs)
            seq par))
    jobs_levels

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs () in
      let committed = ref [] in
      let raised =
        try
          Pool.run_batch pool ~chunk:1
            ~f:(fun i x -> if i = 5 then raise (Boom x) else x * 10)
            ~commit:(fun i y -> committed := (i, y) :: !committed)
            (Array.init 12 (fun i -> i));
          None
        with Boom x -> Some x
      in
      Alcotest.(check (option int))
        (Printf.sprintf "exception surfaced, jobs=%d" jobs)
        (Some 5) raised;
      (* the exact sequential prefix was committed, in order *)
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "prefix committed, jobs=%d" jobs)
        [ (0, 0); (1, 10); (2, 20); (3, 30); (4, 40) ]
        (List.rev !committed);
      (* the pool survives the exception and shuts down cleanly *)
      Alcotest.(check (list int))
        "pool usable after exception" [ 2; 4; 6 ]
        (Pool.map pool ~f:(fun x -> 2 * x) [ 1; 2; 3 ]);
      Pool.shutdown pool;
      Pool.shutdown pool (* idempotent *);
      Alcotest.(check (list int))
        "post-shutdown degrades to caller" [ 1; 2 ]
        (Pool.map pool ~f:succ [ 0; 1 ]))
    jobs_levels

let test_stats_monotone () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let snapshots =
        List.map
          (fun n ->
            ignore (Pool.map pool ~f:succ (List.init n (fun i -> i)));
            Pool.stats pool)
          [ 10; 100; 1000 ]
      in
      let rec pairs = function
        | a :: (b :: _ as rest) ->
            let open Pool in
            Alcotest.(check bool) "tasks monotone" true (b.tasks >= a.tasks);
            Alcotest.(check bool) "steals monotone" true (b.steals >= a.steals);
            Alcotest.(check bool)
              "depth monotone" true
              (b.max_queue_depth >= a.max_queue_depth);
            Array.iteri
              (fun i bi ->
                Alcotest.(check bool) "busy monotone" true (bi >= a.busy.(i)))
              b.busy;
            pairs rest
        | _ -> ()
      in
      pairs snapshots;
      let s = Pool.stats pool in
      Alcotest.(check int) "jobs reported" 2 s.Pool.jobs;
      Alcotest.(check int) "all elements counted" 1110 s.Pool.tasks)

(* Amortized one-pool-per-process reuse (ROADMAP item 5, docs/PARALLEL.md):
   a pool stays alive and correct across many batches, shutdown is
   observable through [is_alive], and submitting after shutdown degrades
   to the caller-executes sequential path with identical results. *)
let test_amortized_reuse () =
  let expected n = List.init n (fun i -> (i * i) + 1) in
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check bool) "alive after create" true (Pool.is_alive pool);
      for round = 1 to 50 do
        let n = 1 + ((round * 7) mod 40) in
        let got = Pool.map pool ~f:(fun i -> (i * i) + 1) (List.init n Fun.id) in
        Alcotest.(check (list int))
          (Printf.sprintf "batch %d correct" round)
          (expected n) got;
        Alcotest.(check bool)
          (Printf.sprintf "alive after batch %d" round)
          true (Pool.is_alive pool)
      done;
      let before = Pool.stats pool in
      Alcotest.(check bool) "work was counted" true (before.Pool.tasks > 0))

let test_reuse_after_shutdown () =
  let pool = Pool.create ~jobs:3 () in
  Alcotest.(check bool) "alive" true (Pool.is_alive pool);
  let a = Pool.map pool ~f:succ (List.init 100 Fun.id) in
  Pool.shutdown pool;
  Alcotest.(check bool) "dead after shutdown" false (Pool.is_alive pool);
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.(check bool) "still dead" false (Pool.is_alive pool);
  (* the well-specified degraded path: caller executes, same results *)
  let b = Pool.map pool ~f:succ (List.init 100 Fun.id) in
  Alcotest.(check (list int)) "post-shutdown batch = live batch" a b;
  let s = Pool.stats pool in
  Alcotest.(check int) "degraded work still counted" 200 s.Pool.tasks

let test_with_pool_kills () =
  let escaped = ref None in
  Pool.with_pool ~jobs:2 (fun pool -> escaped := Some pool);
  match !escaped with
  | None -> Alcotest.fail "with_pool did not run"
  | Some pool ->
      Alcotest.(check bool)
        "with_pool shuts its pool down" false (Pool.is_alive pool)

let test_jobs_resolution () =
  let pool = Pool.create ~jobs:7 () in
  Alcotest.(check int) "explicit jobs" 7 (Pool.jobs pool);
  Pool.shutdown pool;
  let pool = Pool.create ~jobs:0 () in
  Alcotest.(check int) "clamped to 1" 1 (Pool.jobs pool);
  Pool.shutdown pool;
  Unix.putenv "ANORAD_JOBS" "3";
  let pool = Pool.create () in
  Alcotest.(check int) "ANORAD_JOBS honoured" 3 (Pool.jobs pool);
  Pool.shutdown pool;
  Unix.putenv "ANORAD_JOBS" "";
  let pool = Pool.create () in
  Alcotest.(check bool) "garbage env falls back" true (Pool.jobs pool >= 1);
  Pool.shutdown pool

(* A pool with [minor_heap_words] grows the minor heap of every domain
   that runs one of its parallel batches; a pool without it leaves its
   workers at the runtime default.  Each task reports its own domain's
   size, so the check holds whichever domain ran which chunk. *)
let test_minor_heap () =
  let default = (Gc.get ()).Gc.minor_heap_size in
  let sizes pool =
    Pool.map_array pool ~chunk:1
      ~f:(fun () ->
        Unix.sleepf 0.005;
        (Gc.get ()).Gc.minor_heap_size)
      (Array.make 8 ())
  in
  Pool.with_pool ~jobs:2 (fun pool ->
      Array.iter
        (Alcotest.(check int) "no knob: default size" default)
        (sizes pool));
  let words = 4 * default in
  let pool = Pool.create ~jobs:2 ~minor_heap_words:words () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Array.iter
        (fun s -> Alcotest.(check bool) "knob: grown" true (s >= words))
        (sizes pool))

let test_busy_work () =
  (* a batch heavy enough that workers actually run tasks; checks the
     result is still deterministic and telemetry counts every element *)
  let n = 2000 in
  let f i =
    let acc = ref 0 in
    for k = 1 to 200 do
      acc := (!acc + (i * k)) mod 9973
    done;
    !acc
  in
  let expect = Array.init n f in
  Pool.with_pool ~jobs:4 (fun pool ->
      let got = Pool.map_array pool ~f (Array.init n (fun i -> i)) in
      Alcotest.(check (array int)) "heavy batch deterministic" expect got;
      let s = Pool.stats pool in
      Alcotest.(check int) "telemetry counted all" n s.Pool.tasks;
      Alcotest.(check bool)
        "busy time recorded" true
        (Array.fold_left ( +. ) 0. s.Pool.busy > 0.))

(* ------------------------------------------------------------------ *)
(* Intern                                                              *)
(* ------------------------------------------------------------------ *)

let test_intern_sequential () =
  let t = Intern.create () in
  Alcotest.(check int) "first id" 1 (Intern.get t 10);
  Alcotest.(check int) "second id" 2 (Intern.get t 20);
  Alcotest.(check int) "hit" 1 (Intern.get t 10);
  Alcotest.(check int) "size" 2 (Intern.size t);
  Alcotest.(check int) "next" 3 (Intern.next_id t);
  Alcotest.(check (option int)) "find hit" (Some 2) (Intern.find t 20);
  Alcotest.(check (option int)) "find miss" None (Intern.find t 30);
  Alcotest.(check int) "key of an id" 20 (Intern.key t 2)

(* Keys embed a parent id in the high bits, as the explorer's packed
   history keys do. *)
let pack parent label = (parent lsl 32) lor label

(* Interns each stream into its own local view ("concurrently": every
   view sees the same frozen global table), commits the views in
   submission order, and checks the resolved ids against one sequential
   left-to-right run over the same streams. *)
let check_commit_matches_sequential ?(preload = []) streams =
  let seq = Intern.create () in
  List.iter (fun k -> ignore (Intern.get seq k : int)) preload;
  let seq_ids = List.map (List.map (Intern.get seq)) streams in
  let par = Intern.create () in
  List.iter (fun k -> ignore (Intern.get par k : int)) preload;
  let locals = List.map (fun _ -> Intern.local par) streams in
  let local_ids =
    List.map2 (fun l stream -> List.map (Intern.get_local l) stream) locals
      streams
  in
  let par_ids =
    List.map2
      (fun l ids -> List.map (Intern.commit par l) ids)
      locals local_ids
  in
  Alcotest.(check (list (list int))) "ids bit-identical" seq_ids par_ids;
  Alcotest.(check int) "same table size" (Intern.size seq) (Intern.size par);
  Alcotest.(check int) "same next id" (Intern.next_id seq) (Intern.next_id par)

let test_intern_commit_matches_sequential () =
  (* two "tasks" intern overlapping key streams; the parents are already
     final ids, exactly like a frontier's *)
  check_commit_matches_sequential
    [
      [ pack 0 1; pack 0 2; pack 1 1 ];
      [ pack 0 2; pack 0 3; pack 2 4 ];
      [ pack 1 1; pack 4 5 ];
    ]

let test_intern_local_growth () =
  (* one view's log runs far past its initial 16 buckets (it doubles at
     every half-full mark), re-meeting its own earlier keys and keys the
     global table already holds *)
  let preload = List.init 100 (fun i -> pack 0 (3 * i)) in
  let big =
    List.init 3_000 (fun i -> pack (i mod 7) (i / 3))
    @ List.init 3_000 (fun i -> pack (i mod 7) (i / 5))
  in
  let small = List.init 500 (fun i -> pack (i mod 5) (i / 2)) in
  check_commit_matches_sequential ~preload [ big; small; big ];
  let t = Intern.create () in
  let l = Intern.local t in
  let ids = List.map (Intern.get_local l) big in
  Alcotest.(check (list int)) "provisional ids stable across growth" ids
    (List.map (Intern.get_local l) big)

let test_intern_wide_keys () =
  (* packed parents reach past 2^32: keys that agree in the low 32 bits
     must stay distinct, in the global table and in views *)
  let wide =
    [
      pack 1 7; pack 2 7; pack 1_000_000 7; (1 lsl 40) lor 7; max_int;
      max_int - 1; pack 3 0; 1 lsl 61; (1 lsl 61) lor 1; -1; min_int;
      pack 1 7;
    ]
  in
  let t = Intern.create () in
  let ids = List.map (Intern.get t) wide in
  Alcotest.(check (list int)) "dense first-seen ids"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 1 ] ids;
  Alcotest.(check (option int)) "find wide" (Some 4)
    (Intern.find t ((1 lsl 40) lor 7));
  Alcotest.(check (option int)) "low bits alone miss" None
    (Intern.find t 7);
  (* views and the replay treat keys as opaque, negative ones included *)
  check_commit_matches_sequential
    [ wide; List.rev wide; List.map (fun k -> k lxor (1 lsl 33)) wide ]

(* ------------------------------------------------------------------ *)
(* Parallel == sequential byte equality for the wired sweeps           *)
(* ------------------------------------------------------------------ *)

let with_jobs_pool jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let check_bytes_across_jobs name render =
  let reference = with_jobs_pool 1 render in
  List.iter
    (fun jobs ->
      let got = with_jobs_pool jobs render in
      Alcotest.(check string) (Printf.sprintf "%s, jobs=%d" name jobs) reference got)
    (List.tl jobs_levels)

let test_census_bytes () =
  check_bytes_across_jobs "census report" (fun pool ->
      let report = Election.Census.run ~pool ~max_n:3 ~max_span:1 () in
      Format.asprintf "%a" Election.Census.pp_report report)

let test_oracle_bytes () =
  check_bytes_across_jobs "oracle report" (fun pool ->
      let r = Radio_mc.Oracle.run ~pool ~max_n:3 () in
      Format.asprintf "%a" Radio_mc.Oracle.pp_report r)

let catalog_config name =
  match Radio_config.Catalog.find name with
  | Some e -> e.Radio_config.Catalog.config
  | None -> Alcotest.fail ("catalog entry missing: " ^ name)

let test_resilience_bytes () =
  let config = catalog_config "h2" in
  check_bytes_across_jobs "resilience csv+table" (fun pool ->
      let sweep =
        Radio_faults.Resilience.crash_sweep ~pool ~trials:10 ~name:"h2" config
      in
      Radio_faults.Resilience.to_csv sweep
      ^ "\n"
      ^ Format.asprintf "%a" Radio_faults.Resilience.pp sweep)

let test_optimal_bytes () =
  check_bytes_across_jobs "optimal breaking time" (fun pool ->
      let outcomes =
        List.map
          (fun name ->
            let c = catalog_config name in
            match Radio_mc.Optimal.breaking_time ~pool ~horizon:8 c with
            | Radio_mc.Optimal.Broken_at r ->
                Printf.sprintf "%s: broken at %d" name r
            | Radio_mc.Optimal.Never -> name ^ ": never"
            | Radio_mc.Optimal.Not_within_horizon -> name ^ ": horizon"
            | Radio_mc.Optimal.Search_budget_exhausted -> name ^ ": budget")
          [ "two-cells"; "symmetric-pair"; "h2" ]
      in
      String.concat "\n" outcomes)

(* ------------------------------------------------------------------ *)
(* Bench E20 JSON                                                      *)
(* ------------------------------------------------------------------ *)

(* Minimal structural JSON validation: balanced delimiters outside
   strings, non-empty, and the keys E20 promises. *)
let json_well_formed s =
  let depth = ref 0 and ok = ref true and in_str = ref false in
  let escaped = ref false in
  String.iter
    (fun c ->
      if !in_str then
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
        else ()
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && (not !in_str) && String.length (String.trim s) > 0

let bench =
  Filename.concat (Filename.dirname Sys.executable_name) "../bench/main.exe"

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Runs [f dir] in a fresh temporary directory, removed afterwards with
   whatever the bench wrote there: the bench writes its BENCH files into
   its working directory, never into the checkout. *)
let in_temp_dir f =
  let dir = Filename.temp_dir "anorad_bench" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* [bench SUITE --quick] in a temporary directory writes a well-formed
   [file] carrying every one of [keys]. *)
let check_bench_json ~suite ~file keys =
  in_temp_dir (fun dir ->
      let rc =
        Sys.command
          (Printf.sprintf "cd %s && %s %s --quick > /dev/null 2>&1"
             (Filename.quote dir) (Filename.quote bench) suite)
      in
      Alcotest.(check int) ("bench " ^ suite ^ " --quick exits 0") 0 rc;
      let json =
        In_channel.with_open_text (Filename.concat dir file)
          In_channel.input_all
      in
      Alcotest.(check bool) "well-formed json" true (json_well_formed json);
      List.iter
        (fun key ->
          Alcotest.(check bool)
            (Printf.sprintf "key %s present" key)
            true
            (contains json (Printf.sprintf "\"%s\"" key)))
        keys)

let test_bench_parallel_json () =
  check_bench_json ~suite:"par" ~file:"BENCH_parallel.json"
    [ "host_cores"; "workload"; "jobs"; "seq_s"; "par_s"; "speedup"; "equal" ]

let test_bench_elect_json () =
  check_bench_json ~suite:"e2" ~file:"BENCH_elect.json"
    [
      "host_cores"; "family"; "n"; "sigma"; "rounds"; "node_rounds";
      "transmissions"; "deliveries"; "engine_ms"; "engine_ms_iqr";
      "ns_per_node_round"; "words_per_node_round";
    ]

(* The bench's one parser: an unknown suite or option is exit 2 with the
   usage on stderr, before any suite runs or any BENCH file is written. *)
let test_bench_bad_args () =
  in_temp_dir (fun dir ->
      List.iter
        (fun args ->
          let err = Filename.concat dir "stderr" in
          let rc =
            Sys.command
              (Printf.sprintf "cd %s && %s %s > /dev/null 2> %s"
                 (Filename.quote dir) (Filename.quote bench) args
                 (Filename.quote err))
          in
          Alcotest.(check int) (args ^ " exits 2") 2 rc;
          Alcotest.(check bool)
            (args ^ " prints usage") true
            (contains (In_channel.with_open_text err In_channel.input_all)
               "usage: main.exe");
          Sys.remove err;
          Alcotest.(check (array string))
            (args ^ " writes nothing") [||] (Sys.readdir dir))
        [ "nosuch"; "churn --bogus" ])

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "one task" `Quick test_one_task;
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "map_reduce = fold" `Quick
            test_map_reduce_matches_fold;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "stats monotone" `Quick test_stats_monotone;
          Alcotest.test_case "amortized reuse" `Quick test_amortized_reuse;
          Alcotest.test_case "reuse after shutdown" `Quick
            test_reuse_after_shutdown;
          Alcotest.test_case "with_pool shuts down" `Quick test_with_pool_kills;
          Alcotest.test_case "jobs resolution" `Quick test_jobs_resolution;
          Alcotest.test_case "heavy batch" `Quick test_busy_work;
          Alcotest.test_case "minor heap knob" `Quick test_minor_heap;
        ] );
      ( "intern",
        [
          Alcotest.test_case "sequential" `Quick test_intern_sequential;
          Alcotest.test_case "commit = sequential ids" `Quick
            test_intern_commit_matches_sequential;
          Alcotest.test_case "local view grows" `Quick
            test_intern_local_growth;
          Alcotest.test_case "keys past 2^32" `Quick test_intern_wide_keys;
        ] );
      ( "parallel-equals-sequential",
        [
          Alcotest.test_case "census bytes" `Slow test_census_bytes;
          Alcotest.test_case "oracle bytes" `Slow test_oracle_bytes;
          Alcotest.test_case "resilience bytes" `Slow test_resilience_bytes;
          Alcotest.test_case "optimal bytes" `Slow test_optimal_bytes;
        ] );
      ( "bench",
        [
          Alcotest.test_case "E20 json" `Slow test_bench_parallel_json;
          Alcotest.test_case "E2 json" `Slow test_bench_elect_json;
          Alcotest.test_case "bad arguments" `Quick test_bench_bad_args;
        ] );
    ]
