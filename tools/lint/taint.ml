(* Interprocedural purity analysis — a {!Dataflow} instance over the
   two-point lattice (untainted < tainted).

   Taint is seeded at impure primitives (PRNG and wall-clock longidents),
   propagated backwards over the call graph, and checked against the
   declared purity boundary: every function defined in a deterministic
   directory must be unreachable from a primitive.  The exempt modules
   (lib/baselines/, lib/graph/gen.ml, lib/config/random_config.ml — which
   own their explicitly seeded randomness by contract) and functions
   carrying a [radiolint: allow taint] annotation act as barriers: taint
   neither originates in nor flows through them, so [Catalog.all] calling
   the deterministic half of [Gen] stays clean while [Drip.step] reaching
   [Random.int] through any chain of helpers is reported with the full
   witness path. *)

type hop = Dataflow.hop = { name : string; hop_path : string; hop_line : int }

type finding = {
  func : Callgraph.def;  (* the boundary function that went impure *)
  chain : hop list;  (* func, helpers..., primitive — >= 2 entries *)
  sink : string;  (* dotted primitive name, e.g. "Random.int" *)
}

let rule = "taint"

(* ------------------------------------------------------------------ *)
(* Impure primitives                                                   *)
(* ------------------------------------------------------------------ *)

let primitive comps =
  match comps with
  | "Random" :: _ :: _ -> Some (String.concat "." comps)
  | [ "Unix"; ("gettimeofday" | "time" | "localtime" | "gmtime") ]
  | [ "Sys"; "time" ] ->
      Some (String.concat "." comps)
  | _ -> None

let resolve = Callgraph.resolve

(* ------------------------------------------------------------------ *)
(* Propagation                                                         *)
(* ------------------------------------------------------------------ *)

module Df = Dataflow.Make (struct
  type t = bool

  let bottom = false
  let equal = Bool.equal
  let join = ( || )
  let widen _ joined = joined
end)

let analyze ?(checked = Rules.deterministic_boundary)
    ?(exempt = Rules.random_allowed) cg =
  let barrier (d : Callgraph.def) =
    exempt d.Callgraph.def_path || Callgraph.allowed_def cg d ~rule
  in
  let seeds ~top:_ (d : Callgraph.def) =
    List.filter_map
      (fun { Callgraph.target; ref_line } ->
        match primitive target with
        | Some p -> Some (true, p, ref_line)
        | None -> None)
      d.Callgraph.refs
  in
  let res = Df.solve ~barrier ~seeds cg in
  Callgraph.defs cg
  |> List.filter (fun (d : Callgraph.def) ->
         checked d.Callgraph.def_path && Df.value res d.Callgraph.key)
  |> List.map (fun d ->
         let chain, sink = Df.chain res d in
         { func = d; chain; sink })
  |> List.sort (fun a b ->
         compare
           (a.func.Callgraph.def_path, a.func.Callgraph.def_line)
           (b.func.Callgraph.def_path, b.func.Callgraph.def_line))

let edges f = List.length f.chain - 1

let pp_chain ppf f =
  Format.fprintf ppf "%s"
    (String.concat " → " (List.map (fun h -> h.name) f.chain))

let message f =
  Format.asprintf
    "deterministic boundary reaches impure primitive %s: %a (witness: %s)"
    f.sink pp_chain f
    (String.concat " → "
       (List.map
          (fun h -> Printf.sprintf "%s:%d" h.hop_path h.hop_line)
          f.chain))
