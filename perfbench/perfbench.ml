(* The end-to-end benchmark: one seeded workload per invocation, every
   output checked against an in-process reference, end-to-end metrics
   (untraced) or per-layer metrics (traced) printed as the last line.
   See README.md for the workloads, the loop model and the metrics. *)

module C = Radio_config.Config
module Json = Radio_serve.Json
module Server = Radio_serve.Server
module Service = Radio_serve.Service
module Protocol = Radio_serve.Protocol
module Cache = Radio_serve.Cache
module Pool = Radio_exec.Pool
module Can = Election.Canonical
module Fe = Election.Feasibility
module Checker = Radio_mc.Checker
module Churn = Radio_faults.Churn
module FP = Radio_faults.Fault_plan
module I = Election.Incremental

let now = Unix.gettimeofday

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  anorad : string;
  jobs : int;
  out : string;
}

(* The daemon's closed loop keeps this many requests outstanding: at least
   [Pool.min_parallel_batch], so waves reach the pool's workers. *)
let window = 32

(* Set-up is measured this many times per run; the median is reported. *)
let setup_samples = 21

(* ------------------------------------------------------------------ *)
(* Failures and statistics                                            *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      if !failures <= 20 then prerr_endline ("perfbench: FAIL " ^ msg))
    fmt

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Set-up samples taken at [setup_samples] points spread evenly over a
   timed run, so that their median sees the host as the run does: [tick]
   goes between two timed operations, [finish] takes the samples the run
   did not reach and returns the median. *)
let spread_setup ~seconds sample =
  let t0 = now () and got = ref [] in
  let taken () = List.length !got in
  let tick () =
    if
      taken () < setup_samples
      && now ()
         >= t0 +. (float_of_int (taken ()) *. seconds /. float_of_int setup_samples)
    then got := sample () :: !got
  in
  let finish () =
    while taken () < setup_samples do
      got := sample () :: !got
    done;
    median !got
  in
  (tick, finish)

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      List.fold_left
        (fun acc l ->
          match Scanf.sscanf l "VmHWM: %d kB" Fun.id with
          | kb -> float_of_int kb /. 1024.
          | exception _ -> acc)
        nan
        (String.split_on_char '\n' s)

(* ------------------------------------------------------------------ *)
(* Results                                                            *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  metrics : metric list;  (** the JSON metrics of this mode *)
  report : (string * string) list;  (** issue-named metrics, human table *)
  counters : (string * Json.t) list;  (** deterministic counters *)
}

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_outcome a o =
  let failed = !failures in
  Printf.printf "\n%s  seed %d  (%s run)\n" a.workload a.seed
    (if a.trace then "traced" else "untraced");
  List.iter (fun (k, v) -> Printf.printf "  %-26s %s\n" k v) o.report;
  Printf.printf "  %-26s %.4f (%d of %d)\n" "failed_ratio"
    (float_of_int failed /. float_of_int (max 1 o.attempted))
    failed o.attempted;
  let row =
    Json.Obj
      ([
         ("workload", Json.Str a.workload);
         ("seed", Json.Int a.seed);
         ("trace", Json.Bool a.trace);
         ("host_cores", Json.Int (Domain.recommended_domain_count ()));
         ("jobs", Json.Int a.jobs);
         ("window", Json.Int window);
         ("ocaml_version", Json.Str Sys.ocaml_version);
         ("attempted", Json.Int o.attempted);
         ("failed", Json.Int failed);
       ]
      @ o.counters)
  in
  Printf.printf "row %s\n" (Json.to_string row);
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit_)
      o.metrics
  in
  let ok =
    failed = 0 && o.attempted > 0
    && List.for_all (fun x -> Float.is_finite x.value) o.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    ok o.attempted failed
    (String.concat ", " metrics);
  ok

let ms x = Printf.sprintf "%.3f ms" (1e3 *. x)

let gc_delta (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  (g1.minor_words -. g0.minor_words, g1.major_collections - g0.major_collections)

(* Deltas of the pool's counters; [busy_share] is the summed busy time
   over jobs x wall. *)
let pool_metrics (p0 : Pool.stats) (p1 : Pool.stats) ~wall =
  let busy = ref 0. in
  Array.iteri (fun i b -> busy := !busy +. b -. p0.busy.(i)) p1.busy;
  [
    m "exec.pool.tasks" "count" (float_of_int (p1.tasks - p0.tasks));
    m "exec.pool.steals" "count" (float_of_int (p1.steals - p0.steals));
    m "exec.pool.busy_share" "ratio"
      (!busy /. (float_of_int p1.jobs *. wall));
    m "exec.pool.max_queue_depth" "count" (float_of_int p1.max_queue_depth);
  ]

(* Every per-layer metric, in BENCHMARK.json order.  A workload fills the
   ones of the layers it loads; the rest stay 0. *)
let per_layer_names =
  [
    ("core.classify_share", "ratio"); ("core.classify.calls", "count/op");
    ("core.classify.iterations", "count/call"); ("core.plan_share", "ratio");
    ("sim.runner_share", "ratio"); ("sim.runner.rounds", "count/op");
    ("sim.engine_share", "ratio"); ("sim.engine.rounds", "count/op");
    ("sim.transmissions", "count/op"); ("serve.protocol.parse_share", "ratio");
    ("serve.protocol.request_bytes", "B/op"); ("core.canonical.key_share", "ratio");
    ("serve.render_share", "ratio"); ("serve.cache.lookups", "count/op");
    ("serve.cache.hit_ratio", "ratio"); ("serve.cache.evictions", "count/op");
    ("core.canonical.form_share", "ratio"); ("core.canonical.iso_share", "ratio");
    ("serve.server.waves", "count"); ("serve.server.wave_size", "count");
    ("serve.service.wave_share", "ratio");
    ("serve.server.queue_wait_share", "ratio"); ("exec.pool.tasks", "count");
    ("exec.pool.steals", "count"); ("exec.pool.busy_share", "ratio");
    ("exec.pool.max_queue_depth", "count"); ("mc.explore_share", "ratio");
    ("mc.states_explored", "count"); ("mc.states_raw", "count");
    ("mc.dedup_ratio", "ratio"); ("mc.canonicalizations", "count");
    ("mc.peak_frontier", "count"); ("mc.visited_bytes", "B");
    ("mc.visited_bytes_per_state", "B"); ("core.incremental.apply_share", "ratio");
    ("core.incremental.labels_computed", "count/op");
    ("core.incremental.labels_reused", "count/op");
    ("core.incremental.reuse_ratio", "ratio");
    ("core.incremental.rebuilds", "count/op"); ("faults.churn.epochs", "count/op");
    ("faults.churn.attempts", "count/op");
    ("faults.churn.election_rounds", "count/op");
    ("faults.churn.supervise_share", "ratio"); ("gc.minor_words_per_op", "count/op");
    ("gc.major_collections", "count"); ("trace.ops_per_s", "1/s");
    ("trace.overhead_ratio", "ratio"); ("trace.residual_share", "ratio");
    ("trace.spans", "count");
  ]

let complete_per_layer ms =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) ms with
      | Some x -> { x with unit_ }
      | None -> m name unit_ 0.)
    per_layer_names

let share layers ~wall name = Span.self_of layers name /. wall

(* Writes the Chrome trace and prints the per-layer self-time table. *)
let finish_trace a tr ~wall =
  let layers = Span.by_layer tr in
  Printf.printf "\nper-layer self time (traced wall %.3f s, %d spans)\n" wall
    (Span.count tr);
  Span.print_table layers ~wall;
  let path =
    Filename.concat a.out
      (Printf.sprintf "trace-%s-%d.json" a.workload a.seed)
  in
  Span.write_chrome tr path;
  Printf.printf "chrome trace: %s\n" path;
  layers

(* ------------------------------------------------------------------ *)
(* Serve: the daemon over a pipe                                      *)

type daemon = {
  pid : int;
  to_d : Unix.file_descr;
  from_d : Unix.file_descr;
  rbuf : Buffer.t;
  chunk : Bytes.t;
}

let spawn a ~err_path =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile err_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let argv =
    [| a.anorad; "serve"; "--stdio"; "--jobs"; string_of_int a.jobs |]
  in
  let pid = Unix.create_process a.anorad argv req_r resp_w err in
  List.iter Unix.close [ req_r; resp_w; err ];
  {
    pid;
    to_d = req_w;
    from_d = resp_r;
    rbuf = Buffer.create 65536;
    chunk = Bytes.create 65536;
  }

(* Reads what is available and returns the complete lines. *)
let read_lines d =
  let n = Unix.read d.from_d d.chunk 0 (Bytes.length d.chunk) in
  if n = 0 then raise End_of_file;
  Buffer.add_subbytes d.rbuf d.chunk 0 n;
  let s = Buffer.contents d.rbuf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some j ->
      Buffer.clear d.rbuf;
      Buffer.add_string d.rbuf (String.sub s (j + 1) (String.length s - j - 1));
      String.split_on_char '\n' (String.sub s 0 j)

let rec read_one d =
  match read_lines d with [] -> read_one d | l :: _ -> l

let write_all fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

let close_daemon d =
  (try Unix.close d.to_d with Unix.Unix_error _ -> ());
  (try
     while true do
       ignore (read_lines d)
     done
   with End_of_file | Unix.Unix_error _ -> ());
  (try Unix.close d.from_d with Unix.Unix_error _ -> ());
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "daemon exited abnormally"

type loop = {
  mutable completed : int;
  mutable latencies : float list;  (** newest first *)
  mutable stamps : float list;  (** completion times, newest first *)
  mutable t_first : float;
}

(* Closed loop over one connection: [window] requests outstanding; each
   response releases the next request, until [deadline]; then the
   outstanding requests are drained.  Returns the next request index. *)
let closed_loop d ~first ~deadline ~request ~expected st =
  let sent = Queue.create () in
  let next = ref first in
  let pending = ref "" and off = ref 0 in
  let last_progress = ref (now ()) in
  let fill () =
    while Queue.length sent < window && now () < deadline do
      let i = !next in
      incr next;
      let rest = String.sub !pending !off (String.length !pending - !off) in
      pending := rest ^ request i ^ "\n";
      off := 0;
      Queue.push (i, now ()) sent
    done
  in
  fill ();
  st.t_first <- now ();
  while not (Queue.is_empty sent) do
    let want_write = !off < String.length !pending in
    let r, w, _ =
      try
        Unix.select [ d.from_d ] (if want_write then [ d.to_d ] else []) [] 1.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (if w <> [] then
       match
         Unix.write_substring d.to_d !pending !off
           (String.length !pending - !off)
       with
       | k -> off := !off + k
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    if r <> [] then begin
      List.iter
        (fun line ->
          match Queue.take_opt sent with
          | None -> fail "unexpected response line"
          | Some (i, t_sent) ->
              let t = now () in
              st.latencies <- (t -. t_sent) :: st.latencies;
              st.completed <- st.completed + 1;
              st.stamps <- t :: st.stamps;
              if not (String.equal line (expected i)) then
                fail "response %d differs from the reference: %s" i
                  (if String.length line > 160 then String.sub line 0 160
                   else line))
        (read_lines d);
      last_progress := now ()
    end;
    if now () -. !last_progress > 60. then failwith "daemon stalled for 60 s";
    fill ()
  done;
  !next

(* [key=<int>] inside a telemetry line. *)
let field line key =
  let pat = " " ^ key ^ "=" in
  let rec find i =
    if i + String.length pat > String.length line then None
    else if String.sub line i (String.length pat) = pat then
      Some (i + String.length pat)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some j ->
      let k = ref j in
      while !k < String.length line && line.[!k] >= '0' && line.[!k] <= '9' do
        incr k
      done;
      int_of_string_opt (String.sub line j (!k - j))

(* ------------------------------------------------------------------ *)
(* Serve: inputs, references and gates                                *)

type serve_inputs = {
  stream : Gen.serve;
  tails : string array;
  resp_tails : string array;  (** reference response minus [{"id":k] *)
}

let template_of (s : Gen.serve) i = s.schedule.(i mod Array.length s.schedule)
let id_prefix i = {|{"id":|} ^ string_of_int i

let request_of inp i = Gen.line ~id:i inp.tails.(template_of inp.stream i)

let expected_of inp i =
  id_prefix i ^ inp.resp_tails.(template_of inp.stream i)

let reference_opts =
  { Server.default_options with jobs = Some 1; cache_entries = 0 }

(* The reference stream: every template once, at jobs 1 with the cache
   off, computed before any timing.  Each classify verdict is checked
   against the literal classifier (Algorithms 1-4) on the request's own
   configuration. *)
let serve_inputs a =
  let stream = Gen.serve a.workload a.seed in
  let tails = Array.map Gen.line_tail stream.templates in
  let b = Buffer.create (1 lsl 20) in
  Array.iteri
    (fun k t ->
      Buffer.add_string b (Gen.line ~id:k t);
      Buffer.add_char b '\n')
    tails;
  let out = Server.run_string reference_opts (Buffer.contents b) in
  let lines =
    Array.of_list
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' out))
  in
  if Array.length lines <> Array.length tails then
    failwith "reference stream has the wrong number of responses";
  let resp_tails =
    Array.mapi
      (fun k l ->
        let p = id_prefix k in
        let pl = String.length p in
        if String.length l < pl || String.sub l 0 pl <> p then
          failwith "reference response does not echo its id";
        String.sub l pl (String.length l - pl))
      lines
  in
  Array.iteri
    (fun k (r : Gen.request) ->
      match Json.parse lines.(k) with
      | Error _ -> fail "template %d: reference response is not JSON" k
      | Ok j -> (
          if Json.member "status" j <> Some (Json.Str "ok") then
            fail "template %d: reference response is an error" k;
          match (r.kind, Option.bind (Json.member "result" j) (fun res -> Some res)) with
          | Gen.Classify, Some res ->
              let lit = Election.Classifier.classify r.config in
              if
                Json.member "feasible" res
                <> Some (Json.Bool (Election.Classifier.is_feasible lit))
                || Json.member "iterations" res
                   <> Some (Json.Int (Election.Classifier.num_iterations lit))
              then fail "template %d: verdict disagrees with Classifier" k
          | Gen.Classify, None -> fail "template %d: no result" k
          | _ -> ()))
    stream.templates;
  { stream; tails; resp_tails }

let cost_of resp_tail =
  match Json.parse ({|{"id":0|} ^ resp_tail) with
  | Ok j -> (
      match Json.member "cost" j with
      | Some c ->
          let get k =
            match Json.member k c with Some (Json.Int x) -> x | _ -> 0
          in
          (get "rounds", get "bits")
      | None -> (0, 0))
  | Error _ -> (0, 0)

(* Deterministic counters over one pass of the schedule: classifier
   iterations, rounds and transmissions from the reference responses,
   and cache hits and misses of a 256-entry LRU fed in waves of [window]
   (the pass runs twice; the second pass is counted). *)
let serve_counters inp =
  let s = inp.stream in
  let len = Array.length s.schedule in
  let rounds = ref 0 and bits = ref 0 and iters = ref 0 in
  Array.iter
    (fun k ->
      let r, b = cost_of inp.resp_tails.(k) in
      rounds := !rounds + r;
      bits := !bits + b;
      match Json.parse ({|{"id":0|} ^ inp.resp_tails.(k)) with
      | Ok j -> (
          match Option.bind (Json.member "result" j) (Json.member "iterations") with
          | Some (Json.Int x) -> iters := !iters + x
          | _ -> ())
      | Error _ -> ())
    s.schedule;
  let keys =
    Array.map
      (fun (r : Gen.request) -> Can.cache_key r.config)
      s.templates
  in
  let cache = Cache.create ~capacity:256 in
  let hits = ref 0 and misses = ref 0 in
  for pass = 0 to 1 do
    let w0 = ref 0 in
    while !w0 < len do
      let seen = Hashtbl.create 64 in
      let fresh = ref [] in
      for i = !w0 to min len (!w0 + window) - 1 do
        let key = keys.(s.schedule.(i)) in
        let hit =
          Hashtbl.mem seen key
          || (match Cache.find cache key with Some () -> true | None -> false)
        in
        if not hit then fresh := key :: !fresh;
        Hashtbl.replace seen key ();
        if pass = 1 then if hit then incr hits else incr misses
      done;
      List.iter (fun key -> Cache.add cache key ()) (List.rev !fresh);
      w0 := !w0 + window
    done
  done;
  [
    ("templates", Json.Int (Array.length s.templates));
    ("schedule_len", Json.Int len);
    ("classifier_iterations", Json.Int !iters);
    ("rounds", Json.Int !rounds);
    ("transmissions", Json.Int !bits);
    ("cache_hits", Json.Int !hits);
    ("cache_misses", Json.Int !misses);
  ]

let probe_line =
  Gen.line ~id:0
    (Gen.line_tail
       { Gen.kind = Gen.Classify; family = "h_m"; config = Radio_config.Families.h_family 2 })

(* Set-up: daemon spawn to its first answered request.  Spawning a second
   daemon beside the loaded one would time the benchmark's own load, so
   half the samples come before the timed loop and half after it. *)
let serve_setup_sample a ~err_path =
  let expected = Server.run_string reference_opts (probe_line ^ "\n") in
  let expected = String.trim expected in
  fun () ->
    let t0 = now () in
    let d = spawn a ~err_path in
    write_all d.to_d (probe_line ^ "\n");
    let line = read_one d in
    let dt = now () -. t0 in
    if line <> expected then fail "set-up probe response differs";
    close_daemon d;
    dt

type serve_daemon_result = {
  d_loop : loop;
  d_rss : float;
  d_telemetry : (string * Json.t) list;
}

(* The untraced measurement: warm-up, then [seconds] of closed loop. *)
let serve_daemon a inp ~seconds ~err_path =
  let d = spawn a ~err_path in
  Unix.set_nonblock d.to_d;
  let request = request_of inp and expected = expected_of inp in
  let warm = { completed = 0; latencies = []; stamps = []; t_first = 0. } in
  let warm_s = Float.min 1.0 (0.1 *. seconds) in
  let next =
    closed_loop d ~first:0 ~deadline:(now () +. warm_s) ~request ~expected warm
  in
  let st = { completed = 0; latencies = []; stamps = []; t_first = 0. } in
  let next =
    closed_loop d ~first:next ~deadline:(now () +. seconds) ~request ~expected
      st
  in
  Unix.clear_nonblock d.to_d;
  write_all d.to_d (Printf.sprintf {|{"id":%d,"kind":"stats"}|} next ^ "\n");
  ignore (read_one d);
  let rss = vm_hwm_mb (string_of_int d.pid) in
  close_daemon d;
  let tele =
    match
      List.rev
        (List.filter
           (fun l -> field l "hits" <> None)
           (String.split_on_char '\n'
              (In_channel.with_open_text err_path In_channel.input_all)))
    with
    | l :: _ ->
        List.filter_map
          (fun (name, key) ->
            Option.map (fun v -> (name, Json.Int v)) (field l key))
          [
            ("daemon_waves", "waves"); ("daemon_cache_hits", "hits");
            ("daemon_cache_misses", "misses");
            ("daemon_cache_evictions", "evictions");
            ("daemon_pool_tasks", "tasks"); ("daemon_pool_steals", "steals");
          ]
    | [] ->
        fail "daemon printed no telemetry";
        []
  in
  { d_loop = st; d_rss = rss; d_telemetry = tele }

(* The run cut into passes of [block] responses (one walk of the
   schedule); returns the median over passes of the pass's rate and of its
   p50 latency, so a burst of host load that hits a few passes moves
   neither.  A run shorter than one pass is one pass. *)
let serve_passes l ~block =
  let stamps = Array.of_list (List.rev l.stamps) in
  let lat = Array.of_list (List.rev l.latencies) in
  let n = Array.length stamps in
  let block = max 1 (min n block) in
  let rates = ref [] and p50s = ref [] in
  let start = ref l.t_first in
  for b = 0 to (n / block) - 1 do
    let last = ((b + 1) * block) - 1 in
    rates := float_of_int block /. (stamps.(last) -. !start) :: !rates;
    p50s := median (Array.to_list (Array.sub lat (b * block) block)) :: !p50s;
    start := stamps.(last)
  done;
  (median !rates, median !p50s, List.length !rates)

(* ------------------------------------------------------------------ *)
(* Serve: the traced in-process replay                                *)

type serve_tally = {
  mutable t_requests : int;
  mutable t_bytes : int;
  mutable t_waves : int;
  mutable lookups : int;
  mutable hits : int;
  mutable misses : int;
  mutable iso : int;
  mutable classify_calls : int;
  mutable iterations : int;
  mutable runner_rounds : int;
  mutable engine_rounds : int;
  mutable transmissions : int;
  mutable wave_wall : float;  (** inside parse + process_wave *)
  mutable pw_wall : float;  (** inside process_wave *)
  mutable pw_work : float;  (** process_wave wall + other workers' busy *)
  mutable replayed : float;  (** replayed layer spans *)
}

let replay_layers =
  [
    "core.canonical.form"; "core.canonical.key"; "serve.cache.lookup";
    "serve.cache.add"; "core.classify"; "core.plan"; "sim.runner"; "sim.engine";
  ]

(* Waves of [window] requests go through [Protocol.parse] and
   [Service.process_wave] on a pool of [jobs], as the daemon's waves do.
   Spans cannot reach inside [process_wave], so after each wave the
   benchmark replays that wave's layer calls on the caller, in the
   service's own order (canonicalize and look up every request, analyze
   the misses, then run the engine), each inside its span, against a
   shadow cache that must end with the service's own counters.  What
   [process_wave] did beyond the replayed calls is the render residual. *)
let serve_traced a inp ~seconds =
  let tr = Span.create () in
  let pool = Pool.create ~jobs:a.jobs () in
  let service = Service.create ~cache_entries:256 in
  let shadow : Fe.analysis Cache.t = Cache.create ~capacity:256 in
  let t =
    {
      t_requests = 0; t_bytes = 0; t_waves = 0; lookups = 0; hits = 0;
      misses = 0; iso = 0; classify_calls = 0; iterations = 0;
      runner_rounds = 0; engine_rounds = 0; transmissions = 0;
      wave_wall = 0.; pw_wall = 0.; pw_work = 0.; replayed = 0.;
    }
  in
  let wave ~record w i0 =
    let sp name ~parent f =
      if record then Span.with_span tr ~name ~parent ~req:w f else f (-1)
    in
    let lines = Array.init window (fun j -> request_of inp (i0 + j)) in
    let b0 = Pool.stats pool in
    let tw = now () in
    let parsed, resp, pw =
      sp "serve.server.wave" ~parent:(-1) (fun wid ->
          let parsed =
            Array.map
              (fun l -> sp "serve.protocol.parse" ~parent:wid (fun _ -> Protocol.parse l))
              lines
          in
          let t0 = now () in
          let resp =
            sp "serve.service.process_wave" ~parent:wid (fun _ ->
                Service.process_wave service ~pool parsed)
          in
          (parsed, resp, now () -. t0))
    in
    let wave_dt = now () -. tw in
    let b1 = Pool.stats pool in
    Array.iteri
      (fun j r ->
        if not (String.equal r (expected_of inp (i0 + j))) then
          fail "traced response %d differs from the reference" (i0 + j))
      resp;
    (* the replay *)
    let tr0 = now () in
    sp "replay" ~parent:(-1) (fun rid ->
        let configs =
          Array.map
            (fun (p : Protocol.parsed) ->
              match p.request with
              | Ok (Protocol.Classify { config }) -> Some (config, `Classify)
              | Ok (Protocol.Elect { config; max_rounds }) ->
                  Some (config, `Elect max_rounds)
              | Ok (Protocol.Simulate { config; max_rounds }) ->
                  Some (config, `Simulate max_rounds)
              | _ -> None)
            parsed
        in
        let resolved = Hashtbl.create 64 in
        let keys =
          Array.map
            (Option.map (fun (config, _) ->
                 let canon, _ =
                   sp "core.canonical.form" ~parent:rid (fun _ ->
                       Can.canonical_form config)
                 in
                 if record && C.size config <= Can.iso_cache_bound then
                   t.iso <- t.iso + 1;
                 let key =
                   sp "core.canonical.key" ~parent:rid (fun _ -> Can.raw_key canon)
                 in
                 if record then t.lookups <- t.lookups + 1;
                 if Hashtbl.mem resolved key then (if record then t.hits <- t.hits + 1)
                 else begin
                   match
                     sp "serve.cache.lookup" ~parent:rid (fun _ ->
                         Cache.find shadow key)
                   with
                   | Some an ->
                       if record then t.hits <- t.hits + 1;
                       Hashtbl.replace resolved key (Some an)
                   | None ->
                       if record then t.misses <- t.misses + 1;
                       Hashtbl.replace resolved key None
                 end;
                 (key, canon)))
            configs
        in
        (* analyze the misses in first-occurrence order *)
        Array.iter
          (function
            | Some (key, canon) when Hashtbl.find resolved key = None ->
                let run =
                  sp "core.classify" ~parent:rid (fun _ ->
                      Election.Fast_classifier.classify canon)
                in
                let an = sp "core.plan" ~parent:rid (fun _ -> Fe.analyze_run run) in
                if record then begin
                  t.classify_calls <- t.classify_calls + 1;
                  t.iterations <-
                    t.iterations + Election.Classifier.num_iterations run
                end;
                sp "serve.cache.add" ~parent:rid (fun _ -> Cache.add shadow key an);
                Hashtbl.replace resolved key (Some an)
            | _ -> ())
          keys;
        Array.iteri
          (fun j c ->
            match (c, keys.(j)) with
            | Some (config, kind), Some (key, _) -> (
                let an = Option.get (Hashtbl.find resolved key) in
                match kind with
                | `Elect max_rounds when an.Fe.feasible ->
                    let r =
                      sp "sim.runner" ~parent:rid (fun _ ->
                          Radio_sim.Runner.run ~max_rounds
                            (Can.election an.Fe.plan) config)
                    in
                    let mt = r.outcome.metrics in
                    if record then begin
                      t.runner_rounds <- t.runner_rounds + mt.rounds;
                      t.transmissions <- t.transmissions + mt.transmissions
                    end
                | `Simulate max_rounds ->
                    let o =
                      sp "sim.engine" ~parent:rid (fun _ ->
                          Radio_sim.Engine.run ~max_rounds
                            (Can.protocol an.Fe.plan) config)
                    in
                    if record then begin
                      t.engine_rounds <- t.engine_rounds + o.rounds;
                      t.transmissions <- t.transmissions + o.metrics.transmissions
                    end
                | _ -> ())
            | _ -> ())
          configs);
    ignore tr0;
    if record then begin
      t.t_requests <- t.t_requests + window;
      t.t_bytes <-
        Array.fold_left (fun acc l -> acc + String.length l) t.t_bytes lines;
      t.t_waves <- t.t_waves + 1;
      t.wave_wall <- t.wave_wall +. wave_dt;
      t.pw_wall <- t.pw_wall +. pw;
      let others = ref 0. in
      Array.iteri
        (fun i b -> if i > 0 then others := !others +. b -. b0.busy.(i))
        b1.busy;
      t.pw_work <- t.pw_work +. pw +. !others
    end
  in
  let warm_s = Float.min 1.0 (0.1 *. seconds) in
  let next = ref 0 and w = ref 0 in
  let warm_end = now () +. warm_s in
  while now () < warm_end do
    wave ~record:false !w !next;
    next := !next + window;
    incr w
  done;
  let p0 = Pool.stats pool in
  let g0 = Gc.quick_stat () in
  let t_start = now () in
  let deadline = t_start +. seconds in
  while now () < deadline do
    wave ~record:true !w !next;
    next := !next + window;
    incr w
  done;
  let wall = now () -. t_start in
  let minor, majors = gc_delta g0 in
  let p1 = Pool.stats pool in
  Pool.shutdown pool;
  let tel = Service.telemetry service in
  if
    tel.cache_evictions <> Cache.evictions shadow
    || tel.cache_entries <> Cache.length shadow
  then fail "shadow cache diverged from the service's cache";
  let layers = finish_trace a tr ~wall in
  let replayed =
    List.fold_left (fun acc n -> acc +. Span.self_of layers n) 0. replay_layers
  in
  let residual = t.pw_work -. replayed in
  let ops = float_of_int (max 1 t.t_requests) in
  let sh = share layers ~wall in
  ( t.t_requests,
    wall,
    t.wave_wall,
    [
      m "core.classify_share" "" (sh "core.classify");
      m "core.classify.calls" "" (float_of_int t.classify_calls /. ops);
      m "core.classify.iterations" ""
        (float_of_int t.iterations /. float_of_int (max 1 t.classify_calls));
      m "core.plan_share" "" (sh "core.plan");
      m "sim.runner_share" "" (sh "sim.runner");
      m "sim.runner.rounds" "" (float_of_int t.runner_rounds /. ops);
      m "sim.engine_share" "" (sh "sim.engine");
      m "sim.engine.rounds" "" (float_of_int t.engine_rounds /. ops);
      m "sim.transmissions" "" (float_of_int t.transmissions /. ops);
      m "serve.protocol.parse_share" "" (sh "serve.protocol.parse");
      m "serve.protocol.request_bytes" "" (float_of_int t.t_bytes /. ops);
      m "core.canonical.key_share" "" (sh "core.canonical.key");
      m "serve.render_share" "" (residual /. wall);
      m "serve.cache.lookups" "" (float_of_int t.lookups /. ops);
      m "serve.cache.hit_ratio" ""
        (float_of_int t.hits /. float_of_int (max 1 t.lookups));
      m "serve.cache.evictions" ""
        (float_of_int (Cache.evictions shadow) /. ops);
      m "core.canonical.form_share" "" (sh "core.canonical.form");
      m "core.canonical.iso_share" ""
        (float_of_int t.iso /. float_of_int (max 1 t.lookups));
      m "serve.server.waves" "" (float_of_int t.t_waves);
      m "serve.server.wave_size" ""
        (float_of_int t.t_requests /. float_of_int (max 1 t.t_waves));
      m "serve.service.wave_share" "" (t.pw_wall /. wall);
      m "gc.minor_words_per_op" "" (minor /. ops);
      m "gc.major_collections" "" (float_of_int majors);
      m "trace.residual_share" "" (residual /. t.pw_work);
      m "trace.spans" "" (float_of_int (Span.count tr));
    ]
    @ pool_metrics p0 p1 ~wall,
    t.pw_wall /. float_of_int (max 1 t.t_waves) )

let run_serve a =
  let err_path = Filename.concat a.out "daemon.stderr" in
  let inp = serve_inputs a in
  let counters = serve_counters inp in
  let attempted_setup = Array.length inp.stream.templates in
  let block = Array.length inp.stream.schedule in
  if not a.trace then begin
    let sample = serve_setup_sample a ~err_path:(err_path ^ ".setup") in
    let before = List.init ((setup_samples + 1) / 2) (fun _ -> sample ()) in
    let r = serve_daemon a inp ~seconds:a.seconds ~err_path in
    let after = List.init (setup_samples / 2) (fun _ -> sample ()) in
    let setup = median (before @ after) in
    let attempted_setup = attempted_setup + setup_samples in
    let l = r.d_loop in
    let rate, p50, passes = serve_passes l ~block in
    let p99 = quantile l.latencies 0.99 in
    {
      attempted = attempted_setup + l.completed;
      metrics =
        [
          m "setup_s" "s" setup; m "peak_rss_mb" "MiB" r.d_rss;
          m "ops_per_s" "1/s" rate; m "latency_p50_ms" "ms" (1e3 *. p50);
        ];
      report =
        [
          ("setup_s", Printf.sprintf "%.4f s (median of %d)" setup setup_samples);
          ("peak_rss_mb", Printf.sprintf "%.1f MiB (daemon VmHWM)" r.d_rss);
          ("req_per_s", Printf.sprintf "%.1f req/s (median of %d passes)" rate passes);
          ("latency_p50_ms", ms p50 ^ " (median of pass medians)");
          ( "latency_p99_ms",
            Printf.sprintf "%s (%d samples)" (ms p99) (List.length l.latencies) );
        ];
      counters = counters @ r.d_telemetry;
    }
  end
  else begin
    let half = a.seconds /. 2. in
    let r = serve_daemon a inp ~seconds:half ~err_path in
    let untraced, lat50, _ = serve_passes r.d_loop ~block in
    let n, _wall, wave_wall, ms_, mean_wave = serve_traced a inp ~seconds:half in
    let traced = float_of_int n /. wave_wall in
    {
      attempted = attempted_setup + r.d_loop.completed + n;
      metrics =
        ms_
        @ [
            m "serve.server.queue_wait_share" "" ((lat50 -. mean_wave) /. lat50);
            m "trace.ops_per_s" "" traced;
            m "trace.overhead_ratio" "" (1. -. (traced /. untraced));
          ];
      report =
        [
          ("untraced req_per_s", Printf.sprintf "%.1f req/s (daemon)" untraced);
          ("traced req_per_s", Printf.sprintf "%.1f req/s (in-process)" traced);
          ("wave_ms", Printf.sprintf "%.3f ms (mean process_wave)" (1e3 *. mean_wave));
          ("queue_wait_ms", Printf.sprintf "%.3f ms (daemon p50 latency - wave)" (1e3 *. (lat50 -. mean_wave)));
        ];
      counters = counters @ r.d_telemetry;
    }
  end

(* ------------------------------------------------------------------ *)
(* mc-explore                                                         *)

let same_exploration (x : Checker.exploration) (y : Checker.exploration) =
  x.stats = y.stats && x.separated_at = y.separated_at
  && x.exhausted = y.exhausted

let run_mc a =
  let rows = Gen.mc_rows a.seed in
  let reference =
    List.map
      (fun (r : Gen.mc_row) -> Checker.explore ~depth:r.depth ~faults:1 r.config)
      rows
  in
  let probe = C.uniform (Radio_graph.Gen.cycle 4) 0 in
  let probe_ref = Checker.explore ~depth:4 ~faults:1 probe in
  (* Set-up: pool start to the first answered explore (a small one). *)
  let setup_sample () =
    let t0 = now () in
    let pool = Pool.create ~jobs:a.jobs () in
    let e = Checker.explore ~pool ~depth:4 ~faults:1 probe in
    let dt = now () -. t0 in
    Pool.shutdown pool;
    if not (same_exploration e probe_ref) then fail "mc set-up probe";
    dt
  in
  let pool = Pool.create ~jobs:a.jobs () in
  let explores = ref 0 in
  (* one round = every row once; returns (states, seconds) per round *)
  let rounds ?(tick = ignore) ~seconds ~tr () =
    let rates = ref [] and waves = ref [] and states = ref 0 and busy = ref 0. in
    let deadline = now () +. seconds in
    while now () < deadline do
      let st = ref 0 and dt = ref 0. in
      List.iter2
        (fun (r : Gen.mc_row) ref_ ->
          tick ();
          let t0 = now () in
          let last = ref t0 in
          let req = !explores in
          let progress ~round:_ ~frontier:_ ~explored:_ ~bytes:_ =
            let t = now () in
            waves := (t -. !last) :: !waves;
            (match tr with
            | Some (tr, root) ->
                Span.add tr ~name:"mc.wave" ~parent:!root ~req
                  ~id:(Span.fresh tr) !last t
            | None -> ());
            last := t
          in
          let e =
            match tr with
            | Some (tr, root) ->
                Span.with_span tr ~name:"mc.explore" ~parent:(-1) ~req (fun id ->
                    root := id;
                    Checker.explore ~pool ~progress ~depth:r.depth ~faults:1
                      r.config)
            | None ->
                Checker.explore ~pool ~progress ~depth:r.depth ~faults:1 r.config
          in
          let d = now () -. t0 in
          incr explores;
          if not (same_exploration e ref_) then
            fail "explore of %s differs from the jobs-1 reference" r.name;
          st := !st + e.stats.states_explored;
          dt := !dt +. d)
        rows reference;
      rates := (float_of_int !st /. !dt) :: !rates;
      states := !states + !st;
      busy := !busy +. !dt
    done;
    (!rates, !waves, !states, !busy)
  in
  let per_round f =
    List.fold_left (fun acc (e : Checker.exploration) -> acc + f e.stats) 0 reference
  in
  let counters =
    [
      ("states_explored", Json.Int (per_round (fun s -> s.states_explored)));
      ("states_raw", Json.Int (per_round (fun s -> s.states_raw)));
      ("canonicalizations", Json.Int (per_round (fun s -> s.canonicalizations)));
      ("peak_frontier", Json.Int (per_round (fun s -> s.peak_frontier)));
      ("visited_bytes", Json.Int (per_round (fun s -> s.visited_bytes)));
    ]
  in
  let o =
    if not a.trace then begin
      let tick, setup = spread_setup ~seconds:a.seconds setup_sample in
      let rates, waves, _, _ = rounds ~tick ~seconds:a.seconds ~tr:None () in
      let setup = setup () in
      let rate = median rates in
      let rss = vm_hwm_mb "self" in
      let p50 = quantile waves 0.5 and p99 = quantile waves 0.99 in
      {
        attempted = !explores + setup_samples;
        metrics =
          [
            m "setup_s" "s" setup; m "peak_rss_mb" "MiB" rss;
            m "ops_per_s" "1/s" rate; m "latency_p50_ms" "ms" (1e3 *. p50);
          ];
        report =
          [
            ("setup_s", Printf.sprintf "%.4f s (median of %d)" setup setup_samples);
            ("peak_rss_mb", Printf.sprintf "%.1f MiB (VmHWM)" rss);
            ( "states_per_s",
              Printf.sprintf "%.0f states/s (median of %d rounds)" rate
                (List.length rates) );
            ("wave_p50_ms", ms p50);
            ( "wave_p99_ms",
              Printf.sprintf "%s (%d committed waves)" (ms p99)
                (List.length waves) );
          ];
        counters;
      }
    end
    else begin
      let half = a.seconds /. 2. in
      let rates, _, _, _ = rounds ~seconds:half ~tr:None () in
      let untraced = median rates in
      let tr = Span.create () in
      let p0 = Pool.stats pool in
      let g0 = Gc.quick_stat () in
      let t0 = now () in
      let rates, _, states, busy =
        rounds ~seconds:half ~tr:(Some (tr, ref (-1))) ()
      in
      let wall = now () -. t0 in
      let minor, majors = gc_delta g0 in
      let p1 = Pool.stats pool in
      let traced = median rates in
      let layers = finish_trace a tr ~wall in
      let stat f = float_of_int (per_round f) in
      {
        attempted = !explores;
        metrics =
          [
            m "mc.explore_share" "" (busy /. wall);
            m "mc.states_explored" "" (stat (fun s -> s.states_explored));
            m "mc.states_raw" "" (stat (fun s -> s.states_raw));
            m "mc.dedup_ratio" ""
              (stat (fun s -> s.states_explored) /. stat (fun s -> s.states_raw));
            m "mc.canonicalizations" "" (stat (fun s -> s.canonicalizations));
            m "mc.peak_frontier" "" (stat (fun s -> s.peak_frontier));
            m "mc.visited_bytes" "" (stat (fun s -> s.visited_bytes));
            m "mc.visited_bytes_per_state" ""
              (stat (fun s -> s.visited_bytes) /. stat (fun s -> s.states_explored));
            m "gc.minor_words_per_op" "" (minor /. float_of_int (max 1 states));
            m "gc.major_collections" "" (float_of_int majors);
            m "trace.ops_per_s" "" traced;
            m "trace.overhead_ratio" "" (1. -. (traced /. untraced));
            m "trace.residual_share" "" (Span.self_of layers "mc.explore" /. busy);
            m "trace.spans" "" (float_of_int (Span.count tr));
          ]
          @ pool_metrics p0 p1 ~wall;
        report =
          [
            ("untraced states_per_s", Printf.sprintf "%.0f" untraced);
            ("traced states_per_s", Printf.sprintf "%.0f" traced);
          ];
        counters;
      }
    end
  in
  Pool.shutdown pool;
  o

(* ------------------------------------------------------------------ *)
(* churn-flaps                                                        *)

type churn_digest = {
  availability : float;
  attempts : int list;
  re_elections : int;
  election_rounds : int;
  stats : I.stats;
  final_leader : int option;
}

let digest (r : Churn.report) =
  {
    availability = r.availability;
    attempts = List.map (fun (e : Churn.epoch) -> e.attempts) r.epochs;
    re_elections = r.re_elections;
    election_rounds = r.total_election_rounds;
    stats = r.stats;
    final_leader = r.final_leader;
  }

let run_case (c : Gen.churn_case) =
  Churn.run ~plan:c.plan ~horizon:c.horizon c.config

(* The plan's topology events as incremental edits, replayed from a fresh
   state — the edit stream the supervisor applies, minus its repair
   write-backs. *)
let replay_edits (c : Gen.churn_case) =
  let st = ref (I.init c.config) in
  List.iter
    (fun (f : FP.fault) ->
      let edits =
        match f with
        | Link_down { u; v; round } when round < c.horizon -> [ I.Remove_edge (u, v) ]
        | Link_up { u; v; round } when round < c.horizon -> [ I.Add_edge (u, v) ]
        | Leave { node; round } when round < c.horizon -> [ I.Leave node ]
        | Join { node; tag; round } when round < c.horizon -> [ I.Join (node, tag) ]
        | Retag { node; tag; round } when round < c.horizon -> [ I.Set_tag (node, tag) ]
        | _ -> []
      in
      List.iter
        (fun e ->
          match I.apply !st e with
          | s -> st := s
          | exception Invalid_argument _ -> ())
        edits)
    (FP.normalize c.plan);
  !st

(* Each case's fastest time over the run gives the pass rate (cases ÷ the
   sum of the fastest times) and the typical schedule (their median).  On
   a shared host, load from neighbours slows whole stretches of a run by
   up to a third; a case's fastest time is the one such a stretch left
   alone.  Cases not reached yet are left out. *)
let fastest per_case =
  let best =
    List.filter_map
      (function [] -> None | t :: ts -> Some (List.fold_left Float.min t ts))
      (Array.to_list per_case)
  in
  (float_of_int (List.length best) /. List.fold_left ( +. ) 0. best, median best)

let run_churn a =
  let cases = Gen.churn a.seed in
  let reference = Array.map (fun c -> digest (run_case c)) cases in
  let probe =
    let config = Radio_config.Families.tagged_path (Array.init 64 (fun i -> i mod 3)) in
    let horizon = 256 in
    {
      Gen.family = "path";
      config;
      horizon;
      plan = FP.sample ~seed:7 ~link_flaps:2 ~node_flaps:1 ~retags:2 ~horizon config;
    }
  in
  let probe_ref = digest (run_case probe) in
  let setup_sample () =
    let t0 = now () in
    let r = run_case probe in
    let dt = now () -. t0 in
    if digest r <> probe_ref then fail "churn set-up probe";
    dt
  in
  let calls = ref 0 in
  let loop ?(tick = ignore) ~seconds ~tr () =
    let times = ref [] and busy = ref 0. and apply = ref 0. in
    let per_case = Array.make (Array.length cases) [] in
    let epochs = ref 0 and attempts = ref 0 and rounds = ref 0 in
    let computed = ref 0 and reused = ref 0 and rebuilds = ref 0 in
    let deadline = now () +. seconds in
    while now () < deadline do
      tick ();
      let k = !calls mod Array.length cases in
      let c = cases.(k) in
      let t0 = now () in
      let r =
        match tr with
        | Some tr ->
            Span.with_span tr ~name:"faults.churn.run" ~parent:(-1) ~req:!calls
              (fun _ -> run_case c)
        | None -> run_case c
      in
      let dt = now () -. t0 in
      (match tr with
      | Some tr ->
          let t1 = now () in
          ignore
            (Span.with_span tr ~name:"core.incremental.apply" ~parent:(-1)
               ~req:!calls (fun _ -> replay_edits c));
          apply := !apply +. (now () -. t1)
      | None -> ());
      if digest r <> reference.(k) then
        fail "Churn.run on case %d differs from the reference" k;
      incr calls;
      times := dt :: !times;
      per_case.(k) <- dt :: per_case.(k);
      busy := !busy +. dt;
      epochs := !epochs + List.length r.epochs;
      List.iter
        (fun (e : Churn.epoch) ->
          attempts := !attempts + e.attempts;
          rounds := !rounds + e.election_rounds;
          rebuilds := !rebuilds + e.rebuilds)
        r.epochs;
      computed := !computed + r.stats.computed;
      reused := !reused + r.stats.reused
    done;
    let n = float_of_int (List.length !times) in
    let per x = float_of_int !x /. n in
    ( !times,
      fastest per_case,
      !busy,
      !apply,
      [
        m "core.incremental.labels_computed" "" (per computed);
        m "core.incremental.labels_reused" "" (per reused);
        m "core.incremental.reuse_ratio" ""
          (float_of_int !reused /. float_of_int (max 1 (!reused + !computed)));
        m "core.incremental.rebuilds" "" (per rebuilds);
        m "faults.churn.epochs" "" (per epochs);
        m "faults.churn.attempts" "" (per attempts);
        m "faults.churn.election_rounds" "" (per rounds);
      ] )
  in
  let counters =
    let sum f = Array.fold_left (fun acc d -> acc + f d) 0 reference in
    [
      ("cases", Json.Int (Array.length cases));
      ("labels_computed", Json.Int (sum (fun d -> d.stats.computed)));
      ("labels_reused", Json.Int (sum (fun d -> d.stats.reused)));
      ("rebuilds", Json.Int (sum (fun d -> d.stats.full_rebuilds)));
      ("attempts", Json.Int (sum (fun d -> List.fold_left ( + ) 0 d.attempts)));
      ("election_rounds", Json.Int (sum (fun d -> d.election_rounds)));
    ]
  in
  if not a.trace then begin
    let tick, setup = spread_setup ~seconds:a.seconds setup_sample in
    let times, (rate, p50), _, _, _ = loop ~tick ~seconds:a.seconds ~tr:None () in
    let setup = setup () in
    let rss = vm_hwm_mb "self" in
    let p99 = quantile times 0.99 in
    {
      attempted = !calls + setup_samples;
      metrics =
        [
          m "setup_s" "s" setup; m "peak_rss_mb" "MiB" rss;
          m "ops_per_s" "1/s" rate; m "latency_p50_ms" "ms" (1e3 *. p50);
        ];
      report =
        [
          ("setup_s", Printf.sprintf "%.4f s (median of %d)" setup setup_samples);
          ("peak_rss_mb", Printf.sprintf "%.1f MiB (VmHWM)" rss);
          ( "schedules_per_s",
            Printf.sprintf "%.1f 1/s (cases / sum of per-case fastest)" rate );
          ("schedule_p50_ms", ms p50 ^ " (median of per-case fastest)");
          ( "schedule_p99_ms",
            Printf.sprintf "%s (%d samples)" (ms p99) (List.length times) );
        ];
      counters;
    }
  end
  else begin
    let half = a.seconds /. 2. in
    let _, (untraced, _), _, _, _ = loop ~seconds:half ~tr:None () in
    let tr = Span.create () in
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let times, (traced, _), busy, apply, ms_ =
      loop ~seconds:half ~tr:(Some tr) ()
    in
    let wall = now () -. t0 in
    let minor, majors = gc_delta g0 in
    let layers = finish_trace a tr ~wall in
    let residual = busy -. apply in
    {
      attempted = !calls;
      metrics =
        ms_
        @ [
            m "core.incremental.apply_share" "" (Span.self_of layers "core.incremental.apply" /. wall);
            m "faults.churn.supervise_share" "" (residual /. wall);
            m "gc.minor_words_per_op" "" (minor /. float_of_int (List.length times));
            m "gc.major_collections" "" (float_of_int majors);
            m "trace.ops_per_s" "" traced;
            m "trace.overhead_ratio" "" (1. -. (traced /. untraced));
            m "trace.residual_share" "" (residual /. busy);
            m "trace.spans" "" (float_of_int (Span.count tr));
          ];
      report =
        [
          ("untraced schedules_per_s", Printf.sprintf "%.1f" untraced);
          ("traced schedules_per_s", Printf.sprintf "%.1f" traced);
        ];
      counters;
    }
  end

(* ------------------------------------------------------------------ *)
(* Generator self-test                                                *)

let selftest () =
  let ok = ref true in
  let check what b =
    if not b then begin
      ok := false;
      Printf.printf "selftest FAIL: %s\n" what
    end
  in
  List.iter
    (fun w ->
      check (w ^ ": one seed, identical bytes")
        (String.equal (Gen.to_bytes w 11) (Gen.to_bytes w 11));
      check (w ^ ": seeds differ")
        (not (String.equal (Gen.to_bytes w 11) (Gen.to_bytes w 12))))
    Gen.workloads;
  (* held-out seed: each workload keeps its stated mix *)
  let seed = 424242 in
  let share xs p =
    float_of_int (List.length (List.filter p xs)) /. float_of_int (List.length xs)
  in
  let d = Gen.serve "serve-distinct" seed in
  let ts = Array.to_list d.templates in
  let near x y = Float.abs (x -. y) < 0.03 in
  check "distinct: 50% classify" (near (share ts (fun r -> r.kind = Gen.Classify)) 0.5);
  check "distinct: 30% elect" (near (share ts (fun r -> r.kind = Gen.Elect)) 0.3);
  check "distinct: 20% simulate" (near (share ts (fun r -> r.kind = Gen.Simulate)) 0.2);
  List.iter
    (fun f ->
      check ("distinct: family " ^ f)
        (near (share ts (fun r -> r.family = f)) 0.25))
    [ "g_m"; "gnp"; "tree"; "path" ];
  check "distinct: n in 32..256"
    (List.for_all (fun (r : Gen.request) -> C.size r.config >= 32 && C.size r.config <= 256) ts);
  let keys = List.map (fun (r : Gen.request) -> Can.cache_key r.config) ts in
  check "distinct: every configuration is new"
    (List.length (List.sort_uniq compare keys) = List.length keys);
  check "distinct: more templates than cache entries" (List.length ts > 256);
  let r = Gen.serve "serve-repeat" seed in
  let sched = Array.to_list (Array.map (fun k -> r.templates.(k)) r.schedule) in
  check "repeat: >= 90% classify"
    (share sched (fun r -> r.kind = Gen.Classify) >= 0.9);
  let large = share sched (fun r -> C.size r.config > Can.iso_cache_bound) in
  check "repeat: 2-6% above the iso bound" (large >= 0.02 && large <= 0.06);
  let small_keys =
    List.sort_uniq compare
      (List.filter_map
         (fun (r : Gen.request) ->
           if C.size r.config <= Can.iso_cache_bound then Some (Can.cache_key r.config)
           else None)
         sched)
  in
  check "repeat: base set smaller than the cache" (List.length small_keys < 256);
  let c = Gen.churn seed in
  check "churn: n in 64..256"
    (Array.for_all (fun (x : Gen.churn_case) -> C.size x.config >= 64 && C.size x.config <= 256) c);
  check "churn: plans validate"
    (Array.for_all
       (fun (x : Gen.churn_case) ->
         x.plan <> [] && FP.validate x.config x.plan = Ok ())
       c);
  check "mc: E19 rows"
    (List.map (fun (r : Gen.mc_row) -> r.name) (Gen.mc_rows seed) = [ "H_2"; "ring6_broken" ]);
  if !ok then print_endline "selftest ok";
  !ok

(* ------------------------------------------------------------------ *)

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1 --anorad EXE \
   --jobs N --out DIR\n\
   perfbench --selftest"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 0 and seconds = ref 10.
  and trace = ref 0 and anorad = ref "" and jobs = ref 0 and out = ref "."
  and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--anorad", Arg.Set_string anorad, "EXE");
      ("--jobs", Arg.Set_int jobs, "N");
      ("--out", Arg.Set_string out, "DIR");
      ("--selftest", Arg.Set self, "");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !self then exit (if selftest () then 0 else 1);
  if not (List.mem !workload Gen.workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let jobs = if !jobs > 0 then !jobs else Domain.recommended_domain_count () in
  let a =
    {
      workload = !workload;
      seed = !seed;
      seconds = Float.max 1. !seconds;
      trace = !trace = 1;
      anorad = !anorad;
      jobs;
      out = !out;
    }
  in
  let o =
    match a.workload with
    | "serve-distinct" | "serve-repeat" -> run_serve a
    | "mc-explore" -> run_mc a
    | _ -> run_churn a
  in
  let o = if a.trace then { o with metrics = complete_per_layer o.metrics } else o in
  exit (if print_outcome a o then 0 else 1)
