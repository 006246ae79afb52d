type action =
  | Listen
  | Quiet of int
  | Transmit of string
  | Terminate

type instance = {
  on_wakeup : History.entry -> unit;
  decide : unit -> action;
  observe : History.entry -> unit;
  skip : int -> unit;
}

type t = {
  name : string;
  spawn : unit -> instance;
}

let per_round = function Quiet _ -> Listen | a -> a

let skip_by_observe observe k =
  for _ = 1 to k do
    observe History.Silence
  done

let of_pure ~name d =
  let spawn () =
    let b = History.Builder.create () and len = ref 0 in
    let observe e =
      History.Builder.add b !len e;
      incr len
    in
    {
      on_wakeup = observe;
      decide = (fun () -> d (History.Builder.build b ~length:!len));
      observe;
      skip = skip_by_observe observe;
    }
  in
  { name; spawn }

let stateful ~name ~init ~decide ~observe =
  let spawn () =
    let state = ref None in
    let get () =
      match !state with
      | Some s -> s
      (* radiolint: allow partiality — the engine decides after on_wakeup *)
      | None -> invalid_arg "Protocol.stateful: decide before on_wakeup"
    in
    let observe e = state := Some (observe (get ()) e) in
    {
      on_wakeup = (fun e -> state := Some (init e));
      decide = (fun () -> decide (get ()));
      observe;
      skip = skip_by_observe observe;
    }
  in
  { name; spawn }

let silent ?(lifetime = 0) () =
  stateful
    ~name:(Printf.sprintf "silent-%d" lifetime)
    ~init:(fun _ -> 0)
    ~decide:(fun rounds_done -> if rounds_done >= lifetime then Terminate else Listen)
    ~observe:(fun rounds_done _ -> rounds_done + 1)

let beacon ?(message = "1") ?(delay = 0) () =
  stateful
    ~name:(Printf.sprintf "beacon-%d" delay)
    ~init:(fun _ -> 0)
    ~decide:(fun rounds_done ->
      if rounds_done < delay then Listen
      else if rounds_done = delay then Transmit message
      else Terminate)
    ~observe:(fun rounds_done _ -> rounds_done + 1)
