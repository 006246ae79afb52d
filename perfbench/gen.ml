(* Seeded workload generator.  Every input of a run is a pure function of
   (workload, seed): each workload draws from its own [Random.State]
   seeded with [salt; seed], and nothing reads the clock or global state.
   The program under test only ever sees the generated inputs. *)

module C = Radio_config.Config
module RC = Radio_config.Random_config
module F = Radio_config.Families
module G = Radio_graph.Graph
module FP = Radio_faults.Fault_plan
module Json = Radio_serve.Json

let workloads = [ "serve-distinct"; "serve-repeat"; "mc-explore"; "churn-flaps" ]

type kind = Classify | Elect | Simulate

let kind_name = function
  | Classify -> "classify"
  | Elect -> "elect"
  | Simulate -> "simulate"

type request = { kind : kind; family : string; config : C.t }

(* A serve stream is a finite set of distinct request templates and a
   schedule over them: request [i] is [templates.(schedule.(i mod len))]
   with id [i].  Templates are distinct request lines, so the reference
   responses are computed once per template. *)
type serve = { templates : request array; schedule : int array }

let rng ~salt seed = Random.State.make [| salt; seed |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let relabel st c =
  let p = Array.init (C.size c) Fun.id in
  shuffle st p;
  C.relabel c p

let between st lo hi = lo + Random.State.int st (hi - lo + 1)

(* ------------------------------------------------------------------ *)
(* serve-distinct                                                     *)

(* More templates than the daemon's 256-entry LRU cache, replayed in one
   fixed order, so every lookup misses: between two uses of a key, 511
   other keys are inserted. *)
let distinct_templates = 512

let distinct_kind k =
  match k mod 10 with
  | 0 | 1 | 2 | 3 | 4 -> Classify
  | 5 | 6 | 7 -> Elect
  | _ -> Simulate

let distinct_config st k =
  let span = between st 1 3 in
  let n = between st 32 256 in
  match k / 10 mod 4 with
  | 0 -> ("g_m", relabel st (F.g_family (between st 8 24)))
  | 1 ->
      ("gnp", relabel st (RC.connected_gnp st ~n ~p:(2.0 /. float_of_int n) ~span))
  | 2 -> ("tree", RC.random_tree st ~n ~span)
  | _ -> ("path", relabel st (RC.random_path st ~n ~span))

let serve_distinct seed =
  let st = rng ~salt:1 seed in
  let templates =
    Array.init distinct_templates (fun k ->
        let family, config = distinct_config st k in
        { kind = distinct_kind k; family; config })
  in
  let schedule = Array.init distinct_templates Fun.id in
  shuffle st schedule;
  { templates; schedule }

(* ------------------------------------------------------------------ *)
(* serve-repeat                                                       *)

(* A popular base set well inside the cache, each base config also sent
   under relabellings (n <= iso_cache_bound, so they share its canonical
   entry), plus a small share of relabelled configurations above the iso
   bound: after warm-up those are the only misses.  The large pool is
   walked in order, so a large key recurs only after 383 other large
   inserts and is always evicted by then. *)
let repeat_base = 96
let repeat_variants = 4
let repeat_large = 384
let repeat_schedule = 8192
let repeat_large_share = 0.04
let repeat_elect_share = 0.05

(* The base set is stratified by popularity rank: rank [b] always has the
   same family, size and tag multiset, and the seed picks the graph and
   which vertex carries which tag.  Canonical-form cost grows with the
   sizes of the tag classes, so every seed has the same cost profile at
   every rank. *)
let small_config st b =
  let n = 4 + (b / 4 mod 5) in
  let span = 1 + (b / 20 mod 3) in
  let tags = Array.init n (fun i -> i mod (span + 1)) in
  shuffle st tags;
  let family, g =
    match b mod 4 with
    | 0 -> ("gnp", Radio_graph.Gen.random_connected_gnp st n 0.4)
    | 1 -> ("tree", Radio_graph.Gen.random_tree st n)
    | 2 -> ("path", Radio_graph.Gen.path n)
    | _ -> ("cycle", Radio_graph.Gen.cycle n)
  in
  (family, C.create g tags)

let serve_repeat seed =
  let st = rng ~salt:2 seed in
  let base = Array.init repeat_base (small_config st) in
  (* template (b, v) at index b * (variants + 1) + v; v = 0 is verbatim *)
  let small =
    Array.init
      (repeat_base * (repeat_variants + 1))
      (fun i ->
        let family, c = base.(i / (repeat_variants + 1)) in
        let config = if i mod (repeat_variants + 1) = 0 then c else relabel st c in
        { kind = Classify; family; config })
  in
  let large =
    Array.init repeat_large (fun _ ->
        let n = between st 12 24 in
        let span = between st 1 3 in
        let family, c =
          if Random.State.bool st then ("tree", RC.random_tree st ~n ~span)
          else ("path", RC.random_path st ~n ~span)
        in
        { kind = Classify; family; config = relabel st c })
  in
  let elect =
    Array.init repeat_base (fun b ->
        let family, config = base.(b) in
        { kind = Elect; family; config })
  in
  let templates = Array.concat [ small; large; elect ] in
  let n_small = Array.length small in
  let n_large = Array.length large in
  (* Zipf(1.1) popularity over the base set *)
  let weights =
    Array.init repeat_base (fun b -> 1. /. (float_of_int (b + 1) ** 1.1))
  in
  let total = Array.fold_left ( +. ) 0. weights in
  let draw_base () =
    let x = Random.State.float st total in
    let rec go b acc =
      if b >= repeat_base - 1 then b
      else
        let acc = acc +. weights.(b) in
        if x < acc then b else go (b + 1) acc
    in
    go 0 0.
  in
  let cursor = ref 0 in
  let schedule =
    Array.init repeat_schedule (fun _ ->
        let u = Random.State.float st 1. in
        if u < repeat_large_share then begin
          let k = n_small + !cursor in
          cursor := (!cursor + 1) mod n_large;
          k
        end
        else if u < repeat_large_share +. repeat_elect_share then
          n_small + n_large + draw_base ()
        else
          let b = draw_base () in
          (* half verbatim, half one of the relabellings *)
          let v =
            if Random.State.bool st then 0 else between st 1 repeat_variants
          in
          (b * (repeat_variants + 1)) + v)
  in
  { templates; schedule }

let serve workload seed =
  match workload with
  | "serve-distinct" -> serve_distinct seed
  | "serve-repeat" -> serve_repeat seed
  | w -> invalid_arg ("Gen.serve: not a serve workload: " ^ w)

(* The request line of template [t] with id 0, minus its leading
   [{"id":0]; request [i] is [{"id":i] followed by this tail. *)
let line_tail (r : request) =
  let s =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Int 0);
           ("kind", Json.Str (kind_name r.kind));
           ("config", Json.Str (Radio_config.Config_io.to_string r.config));
         ])
  in
  let prefix = {|{"id":0|} in
  String.sub s (String.length prefix) (String.length s - String.length prefix)

let line ~id tail = {|{"id":|} ^ string_of_int id ^ tail

(* ------------------------------------------------------------------ *)
(* mc-explore                                                         *)

type mc_row = { name : string; depth : int; config : C.t }

(* The E19 rows that run to conclusion under a one-crash adversary, each
   under a seeded relabelling. *)
let mc_rows seed =
  let st = rng ~salt:3 seed in
  [
    { name = "H_2"; depth = 8; config = relabel st (F.h_family 2) };
    {
      name = "ring6_broken";
      depth = 6;
      config =
        relabel st
          (C.create (Radio_graph.Gen.cycle 6) [| 0; 1; 0; 1; 1; 1 |]);
    };
  ]

(* ------------------------------------------------------------------ *)
(* churn-flaps                                                        *)

type churn_case = {
  family : string;
  config : C.t;
  plan : FP.t;
  horizon : int;
}

let churn_cases = 128

(* Sizes are stratified over 64 .. 256 so every seed has the same size
   profile; the seed picks the graphs, tags and fault plans.  Span 2
   keeps the dedicated election inside an inter-event epoch. *)
let churn seed =
  let st = rng ~salt:4 seed in
  Array.init churn_cases (fun k ->
      let n = 64 + (k * 192 / (churn_cases - 1)) in
      let family, config =
        if k mod 2 = 0 then ("path", RC.random_path st ~n ~span:2)
        else ("gnp", RC.connected_gnp st ~n ~p:(2.0 /. float_of_int n) ~span:2)
      in
      let horizon = 4 * n in
      let plan =
        FP.sample
          ~seed:(Random.State.bits st)
          ~link_flaps:(max 1 (n / 32))
          ~node_flaps:2
          ~retags:(max 1 (n / 32))
          ~horizon config
      in
      { family; config; plan; horizon })

(* ------------------------------------------------------------------ *)
(* Canonical bytes of a workload's inputs, for the determinism test.  *)

let to_bytes workload seed =
  let b = Buffer.create 65536 in
  (match workload with
  | "serve-distinct" | "serve-repeat" ->
      let s = serve workload seed in
      Array.iter
        (fun r ->
          Buffer.add_string b (line_tail r);
          Buffer.add_char b '\n')
        s.templates;
      Array.iter (fun k -> Buffer.add_string b (string_of_int k ^ ",")) s.schedule
  | "mc-explore" ->
      List.iter
        (fun r ->
          Buffer.add_string b
            (Printf.sprintf "%s %d\n%s" r.name r.depth
               (Radio_config.Config_io.to_string r.config)))
        (mc_rows seed)
  | "churn-flaps" ->
      Array.iter
        (fun c ->
          Buffer.add_string b
            (Printf.sprintf "%s %d\n%s%s\n" c.family c.horizon
               (Radio_config.Config_io.to_string c.config)
               (FP.to_string c.plan)))
        (churn seed)
  | w -> invalid_arg ("Gen.to_bytes: unknown workload " ^ w));
  Buffer.contents b
