module Pool = Radio_exec.Pool

type options = {
  jobs : int option;
  cache_entries : int;
  max_batch : int;
  stats_every : int;
}

let default_options =
  { jobs = None; cache_entries = 256; max_batch = 64; stats_every = 0 }

(* radiolint: allow taint — telemetry-only wall clock; feeds the per-wave
   latency line on stderr and nothing written to stdout. *)
let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Line-buffered, drain-aware reader                                   *)

module Reader = struct
  let max_line_bytes = 4 * 1024 * 1024

  type t = {
    fd : Unix.file_descr;
    mutable buf : Bytes.t;
    mutable len : int;  (* bytes buffered *)
    mutable scanned : int;  (* prefix known to contain no '\n' *)
    mutable eof : bool;
  }

  let create fd =
    { fd; buf = Bytes.create 65536; len = 0; scanned = 0; eof = false }

  let find_newline t =
    let rec go i =
      if i >= t.len then (
        t.scanned <- t.len;
        None)
      else if Bytes.get t.buf i = '\n' then Some i
      else go (i + 1)
    in
    go t.scanned

  let refill t =
    if not t.eof then begin
      if t.len = Bytes.length t.buf then begin
        let bigger = Bytes.create (2 * Bytes.length t.buf) in
        Bytes.blit t.buf 0 bigger 0 t.len;
        t.buf <- bigger
      end;
      let n = Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len) in
      if n = 0 then t.eof <- true else t.len <- t.len + n
    end

  let take t i =
    (* extract [0, i), drop the newline at [i] *)
    let stop = if i > 0 && Bytes.get t.buf (i - 1) = '\r' then i - 1 else i in
    let line = Bytes.sub_string t.buf 0 stop in
    let rest = t.len - i - 1 in
    if rest > 0 then Bytes.blit t.buf (i + 1) t.buf 0 rest;
    t.len <- max 0 rest;
    t.scanned <- 0;
    line

  (* Blocking: always produces the next line, the oversized marker, or
     end-of-input.  A final line missing its newline is still a line. *)
  let rec read_line t =
    match find_newline t with
    | Some i -> `Line (take t i)
    | None ->
        if t.len > max_line_bytes then begin
          (* discard through the next newline (or EOF) without buffering *)
          t.len <- 0;
          t.scanned <- 0;
          let chunk = Bytes.create 65536 in
          let rec drain () =
            if not t.eof then begin
              let n = Unix.read t.fd chunk 0 (Bytes.length chunk) in
              if n = 0 then t.eof <- true
              else
                match Bytes.index_from_opt chunk 0 '\n' with
                | Some j when j < n ->
                    let rest = n - j - 1 in
                    if rest > 0 then begin
                      Bytes.blit chunk (j + 1) t.buf 0 rest;
                      t.len <- rest
                    end
                | _ -> drain ()
            end
          in
          drain ();
          `Oversized
        end
        else if t.eof then
          if t.len = 0 then `Eof
          else begin
            let line = Bytes.sub_string t.buf 0 t.len in
            let stop =
              if t.len > 0 && Bytes.get t.buf (t.len - 1) = '\r' then
                String.sub line 0 (t.len - 1)
              else line
            in
            t.len <- 0;
            t.scanned <- 0;
            `Line stop
          end
        else begin
          refill t;
          read_line t
        end

  (* Is another [read_line] guaranteed not to block?  True when a complete
     line is already buffered, when buffered bytes remain at EOF, or when
     the fd is readable right now. *)
  let has_pending t =
    (match find_newline t with Some _ -> true | None -> false)
    || (t.eof && t.len > 0)
    ||
    if t.eof then false
    else
      match Unix.select [ t.fd ] [] [] 0.0 with
      | [ _ ], _, _ -> true
      | _ -> false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

  let buffered_lines t =
    let k = ref 0 in
    for i = 0 to t.len - 1 do
      if Bytes.get t.buf i = '\n' then incr k
    done;
    !k
end

(* ------------------------------------------------------------------ *)
(* Wave loop                                                           *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let total = Bytes.length b in
  let off = ref 0 in
  while !off < total do
    off := !off + Unix.write fd b !off (total - !off)
  done

let is_blank s = String.trim s = ""

let is_stats (p : Protocol.parsed) =
  match p.request with Ok Protocol.Stats -> true | _ -> false

type progress = {
  mutable served : int;
  mutable waves : int;
  mutable since_report : int;
}

(* [queue=] counts the lines still buffered and the requests decoded
   ahead of their wave ([ahead]). *)
let report opts ~service ~pool ~reader ~ahead progress ~wave_len ~wave_dt
    ~had_stats =
  progress.since_report <- progress.since_report + wave_len;
  let due =
    (opts.stats_every > 0 && progress.since_report >= opts.stats_every)
    || had_stats
  in
  if due then begin
    progress.since_report <- 0;
    let tel = Service.telemetry service in
    let ps = Pool.stats pool in
    Printf.eprintf
      "anorad serve: served=%d errors=%d waves=%d | last wave %d reqs in \
       %.1f ms (%.3f ms/req) | queue=%d | cache hits=%d misses=%d \
       (%.1f%% hit) entries=%d evictions=%d | pool jobs=%d tasks=%d \
       steals=%d\n\
       %!"
      progress.served tel.Service.errors progress.waves wave_len
      (wave_dt *. 1e3)
      (if wave_len = 0 then 0. else wave_dt *. 1e3 /. float_of_int wave_len)
      (Reader.buffered_lines reader + ahead)
      tel.Service.cache_hits tel.Service.cache_misses
      (100. *. Service.hit_rate tel)
      tel.Service.cache_entries tel.Service.cache_evictions ps.Pool.jobs
      ps.Pool.tasks ps.Pool.steals
  end

(* Runs on the pool: [Protocol.parse] never raises, and the oversized
   marker is a constant. *)
let decode = function
  | `Line s -> Protocol.parse s
  | `Oversized -> Protocol.oversized_line ~limit:Reader.max_line_bytes

let serve_fd opts ~service ~pool in_fd out_fd =
  let max_batch = max 1 opts.max_batch in
  let reader = Reader.create in_fd in
  let progress = { served = 0; waves = 0; since_report = 0 } in
  (* Decoded requests not served yet, in stream order; never more than
     [max_batch] of them. *)
  let ahead = Queue.create () in
  let rec next_line ~blocking =
    if blocking || Reader.has_pending reader then
      match Reader.read_line reader with
      | `Eof -> None
      | `Line s when is_blank s -> next_line ~blocking
      | (`Line _ | `Oversized) as l -> Some l
    else None
  in
  (* Tops [ahead] up to [max_batch]: blocks for one line only when it is
     empty, drains the rest without blocking, and decodes every line read
     in one parallel batch. *)
  let fill () =
    let rec read acc k ~blocking =
      if k >= max_batch then acc
      else
        match next_line ~blocking with
        | None -> acc
        | Some l -> read (l :: acc) (k + 1) ~blocking:false
    in
    let lines =
      read [] (Queue.length ahead) ~blocking:(Queue.is_empty ahead)
    in
    Array.iter
      (fun p -> Queue.add p ahead)
      (Pool.map_array pool ~f:decode (Array.of_list (List.rev lines)))
  in
  (* The next wave: up to [max_batch] requests off [ahead], cut after the
     first stats request so its counters are the exact stream prefix. *)
  let cut_wave () =
    let rec go acc k =
      match if k < max_batch then Queue.take_opt ahead else None with
      | None -> acc
      | Some p -> if is_stats p then p :: acc else go (p :: acc) (k + 1)
    in
    Array.of_list (List.rev (go [] 0))
  in
  let rec loop () =
    fill ();
    if not (Queue.is_empty ahead) then begin
      let wave = cut_wave () in
      let had_stats = Array.exists is_stats wave in
      let t0 = now () in
      let responses = Service.process_wave service ~pool wave in
      let dt = now () -. t0 in
      let out = Buffer.create 1024 in
      Array.iter
        (fun r ->
          Buffer.add_string out r;
          Buffer.add_char out '\n')
        responses;
      write_all out_fd (Buffer.contents out);
      progress.served <- progress.served + Array.length wave;
      progress.waves <- progress.waves + 1;
      report opts ~service ~pool ~reader ~ahead:(Queue.length ahead) progress
        ~wave_len:(Array.length wave) ~wave_dt:dt ~had_stats;
      loop ()
    end
  in
  match loop () with
  | () -> ()
  | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
      (* peer stopped reading; there is nobody left to answer *)
      ()

(* The daemon's pool: 8 MiB of minor heap a domain, four times the
   runtime default, so its domains stop together for a minor collection
   four times less often (see [Pool.create]). *)
let daemon_pool opts =
  Pool.create ?jobs:opts.jobs ~minor_heap_words:(1 lsl 20) ()

let ignore_sigpipe () =
  (* a broken output fd must surface as EPIPE, not kill the daemon *)
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ()
  | exception Sys_error _ -> ()

let serve_stdio opts =
  ignore_sigpipe ();
  let service = Service.create ~cache_entries:opts.cache_entries in
  let pool = daemon_pool opts in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> serve_fd opts ~service ~pool Unix.stdin Unix.stdout)

let serve_socket ?(max_accepts = 0) opts ~path =
  ignore_sigpipe ();
  let service = Service.create ~cache_entries:opts.cache_entries in
  let pool = daemon_pool opts in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cleanup () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
    Pool.shutdown pool
  in
  Fun.protect ~finally:cleanup (fun () ->
      (* a previous daemon's stale socket file would make bind fail *)
      (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      let rec accept_loop k =
        if max_accepts = 0 || k < max_accepts then begin
          let cfd, _ = Unix.accept sock in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close cfd with Unix.Unix_error _ -> ())
            (fun () -> serve_fd opts ~service ~pool cfd cfd);
          accept_loop (k + 1)
        end
      in
      accept_loop 0)

let run_string ?service ?pool opts input =
  let service =
    match service with
    | Some s -> s
    | None -> Service.create ~cache_entries:opts.cache_entries
  in
  let own_pool = pool = None in
  let pool =
    match pool with Some p -> p | None -> Pool.create ?jobs:opts.jobs ()
  in
  let in_path = Filename.temp_file "anorad-serve-in" ".jsonl" in
  let out_path = Filename.temp_file "anorad-serve-out" ".jsonl" in
  let cleanup () =
    (try Sys.remove in_path with Sys_error _ -> ());
    (try Sys.remove out_path with Sys_error _ -> ());
    if own_pool then Pool.shutdown pool
  in
  Fun.protect ~finally:cleanup (fun () ->
      let oc = open_out_bin in_path in
      output_string oc input;
      close_out oc;
      let in_fd = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
      let out_fd =
        Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
      in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close in_fd with Unix.Unix_error _ -> ());
          try Unix.close out_fd with Unix.Unix_error _ -> ())
        (fun () -> serve_fd opts ~service ~pool in_fd out_fd);
      let ic = open_in_bin out_path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s)
