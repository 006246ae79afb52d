type wake_kind =
  | Spontaneous
  | Forced of string

type round_events = {
  round : int;
  transmitters : (int * string) list;
  woken : (int * wake_kind) list;
  terminated : int list;
}

type t = round_events list

let pp_wake ppf = function
  | Spontaneous -> Format.pp_print_string ppf "spontaneous"
  | Forced m -> Format.fprintf ppf "forced by %S" m

let pp_round ppf ev =
  Format.fprintf ppf "@[<v 2>round %d:" ev.round;
  List.iter
    (fun (v, m) -> Format.fprintf ppf "@ node %d transmits %S" v m)
    ev.transmitters;
  List.iter
    (fun (v, k) -> Format.fprintf ppf "@ node %d wakes (%a)" v pp_wake k)
    ev.woken;
  List.iter (fun v -> Format.fprintf ppf "@ node %d terminates" v) ev.terminated;
  Format.fprintf ppf "@]"

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_round)
    t

module Acc = struct
  type nonrec t = {
    enabled : bool;
    mutable rev_rounds : round_events list;
  }

  let create ~enabled = { enabled; rev_rounds = [] }

  let current a round =
    match a.rev_rounds with
    | ev :: _ when ev.round = round -> ()
    | _ ->
        a.rev_rounds <-
          { round; transmitters = []; woken = []; terminated = [] }
          :: a.rev_rounds

  (* Callers test [enabled] first, so a run without a trace allocates no
     update closure. *)
  let update a round f =
    current a round;
    match a.rev_rounds with
    | ev :: rest -> a.rev_rounds <- f ev :: rest
    (* radiolint: allow assert-false — [current] above just pushed the
       event record for this round, so the list is non-empty. *)
    | [] -> assert false

  let transmit a ~round v m =
    if a.enabled then
      update a round (fun ev ->
          { ev with transmitters = (v, m) :: ev.transmitters })

  let wake a ~round v k =
    if a.enabled then
      update a round (fun ev -> { ev with woken = (v, k) :: ev.woken })

  let terminate a ~round v =
    if a.enabled then
      update a round (fun ev -> { ev with terminated = v :: ev.terminated })

  let freeze a =
    List.rev_map
      (fun ev ->
        {
          ev with
          transmitters = List.sort compare ev.transmitters;
          woken = List.sort compare ev.woken;
          terminated = List.sort compare ev.terminated;
        })
      a.rev_rounds
end
