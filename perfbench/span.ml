(* In-memory spans recorded around the benchmark's own calls into each
   layer.  Nothing here reaches into the program: a span is opened and
   closed by the benchmark, on the domain that makes the call.  Spans are
   kept in memory and written out once, at the end of the run. *)

module Json = Radio_serve.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  req : int;  (** the request, explore or schedule the span belongs to *)
  tid : int;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;
  mutable next : int;
  epoch : float;
}

let now = Unix.gettimeofday
let create () = { spans = []; next = 0; epoch = now () }

let add t ~name ~parent ~req ~id t0 t1 =
  t.spans <-
    { id; name; parent; req; tid = (Domain.self () :> int); t0; t1 } :: t.spans

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

(* [with_span t ~name ~parent ~req f] runs [f id] inside a span [id]. *)
let with_span t ~name ~parent ~req f =
  let id = fresh t in
  let t0 = now () in
  let r = f id in
  add t ~name ~parent ~req ~id t0 (now ());
  r

let count t = t.next

(* Self time: the span's duration minus the part of it that its children
   cover (children may overlap when they ran on several domains). *)
let self_times t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    t.spans;
  List.map
    (fun s ->
      let cs =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max c.t0 s.t0, Float.min c.t1 s.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = Float.max a hi in
            if b > a then (acc +. (b -. a), b) else (acc, hi))
          (0., neg_infinity) cs
      in
      (s, s.t1 -. s.t0 -. covered))
    t.spans

type layer = { name : string; calls : int; total : float; self : float }

(* Per span name: calls, total and self seconds, sorted by self time. *)
let by_layer t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun ((s : span), self) ->
      let c, tot, sf =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl s.name (c + 1, tot +. (s.t1 -. s.t0), sf +. self))
    (self_times t);
  Hashtbl.fold
    (fun name (calls, total, self) acc -> { name; calls; total; self } :: acc)
    tbl []
  |> List.sort (fun a b -> Float.compare b.self a.self)

let self_of layers name =
  match List.find_opt (fun (l : layer) -> l.name = name) layers with
  | Some l -> l.self
  | None -> 0.

let print_table layers ~wall =
  Printf.printf "%-28s %9s %12s %12s %10s %7s\n" "layer" "calls" "total ms"
    "self ms" "self us/call" "share";
  List.iter
    (fun (l : layer) ->
      Printf.printf "%-28s %9d %12.2f %12.2f %10.1f %6.1f%%\n" l.name l.calls
        (1e3 *. l.total) (1e3 *. l.self)
        (1e6 *. l.self /. float_of_int (max 1 l.calls))
        (100. *. l.self /. wall))
    layers

(* Chrome trace-event JSON ("X" complete events, integer microseconds),
   which Perfetto and chrome://tracing open directly. *)
let write_chrome t path =
  let us x = Json.Int (int_of_float ((x -. t.epoch) *. 1e6)) in
  let event (s : span) =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (List.hd (String.split_on_char '.' s.name)));
        ("ph", Json.Str "X");
        ("ts", us s.t0);
        ("dur", Json.Int (int_of_float ((s.t1 -. s.t0) *. 1e6)));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.tid);
        ( "args",
          Json.Obj
            [
              ("span", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("req", Json.Int s.req);
            ] );
      ]
  in
  let spans = List.sort (fun (a : span) b -> Float.compare a.t0 b.t0) t.spans in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("traceEvents", Json.List (List.map event spans));
                ("displayTimeUnit", Json.Str "ms");
              ])))
