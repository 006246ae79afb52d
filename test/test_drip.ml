(* Tests for histories, protocol adapters and the patient transform
   (Lemma 3.12). *)

module H = Radio_drip.History
module P = Radio_drip.Protocol
module Patient = Radio_drip.Patient
module C = Radio_config.Config
module F = Radio_config.Families
module Gen = Radio_graph.Gen
module Engine = Radio_sim.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* History                                                             *)
(* ------------------------------------------------------------------ *)

let test_entry_equal () =
  check "silence" true (H.equal_entry H.Silence H.Silence);
  check "collision" true (H.equal_entry H.Collision H.Collision);
  check "same message" true (H.equal_entry (H.Message "x") (H.Message "x"));
  check "different message" false (H.equal_entry (H.Message "x") (H.Message "y"));
  check "mixed" false (H.equal_entry H.Silence H.Collision)

let test_history_equal () =
  let h1 = H.of_array [| H.Silence; H.Message "1"; H.Collision |] in
  let h2 = H.of_array [| H.Silence; H.Message "1"; H.Collision |] in
  let h3 = H.of_array [| H.Silence; H.Message "1" |] in
  check "equal" true (H.equal h1 h2);
  check "prefix not equal" false (H.equal h1 h3);
  check "empty equal" true (H.equal (H.of_array [||]) (H.of_array [||]))

let test_history_to_string () =
  Alcotest.(check string)
    "render" "∅.(1).*"
    (H.to_string (H.of_array [| H.Silence; H.Message "1"; H.Collision |]))

(* The dense reading every history operation must agree with: one entry
   per index, rendered and hashed entry by entry. *)
let dense_to_string a =
  String.concat "."
    (Array.to_list (Array.map (Format.asprintf "%a" H.pp_entry) a))

let dense_hash a =
  let acc = ref (Array.length a) in
  Array.iteri
    (fun i e ->
      match e with
      | H.Silence -> ()
      | H.Collision -> acc := (!acc * 31) + (2 * i) + 1
      | H.Message m -> acc := (!acc * 31) + (2 * i) + (65599 * Hashtbl.hash m))
    a;
  Hashtbl.hash !acc

let dense_equal a b =
  Array.length a = Array.length b && Array.for_all2 H.equal_entry a b

(* Mostly silence, like the engine's histories; two messages and
   collisions for the rest.  Pairs are often equal or one entry apart. *)
let arbitrary_pair =
  let open QCheck.Gen in
  let entry =
    frequency
      [
        (6, return H.Silence);
        (1, return H.Collision);
        (1, map (fun m -> H.Message m) (oneofl [ "1"; "x" ]));
      ]
  in
  let pair =
    array_size (int_range 0 40) entry >>= fun a ->
    let tweak =
      if Array.length a = 0 then return (Array.copy a)
      else
        map2
          (fun i e ->
            let b = Array.copy a in
            b.(i) <- e;
            b)
          (int_range 0 (Array.length a - 1))
          entry
    in
    let fresh = array_size (int_range 0 40) entry in
    map (fun b -> (a, b)) (oneof [ return (Array.copy a); tweak; fresh ])
  in
  QCheck.make
    ~print:(fun (a, b) -> dense_to_string a ^ " / " ^ dense_to_string b)
    pair

let test_builder_matches_dense =
  QCheck.Test.make ~name:"builder = dense" ~count:500 arbitrary_pair
    (fun (a, b) ->
      let h = H.of_array a and hb = H.of_array b in
      let n = Array.length a in
      (* The builder fed only the events, built at two lengths. *)
      let bld = H.Builder.create () in
      let short = ref None in
      Array.iteri
        (fun i e ->
          if i = n / 2 then short := Some (H.Builder.build bld ~length:i);
          if not (H.equal_entry e H.Silence) then H.Builder.add bld i e)
        a;
      let built = H.Builder.build bld ~length:n in
      H.length h = n
      && List.for_all
           (fun i -> H.equal_entry (H.get h i) a.(i))
           (List.init n Fun.id)
      && H.equal built h
      && (match !short with
         | Some p -> H.equal p (H.sub h 0 (n / 2))
         | None -> n = 0)
      && dense_equal (H.to_array h) a
      && H.equal h hb = dense_equal a b
      && String.equal (H.to_string h) (dense_to_string a)
      && H.hash h = dense_hash a
      && (not (dense_equal a b) || H.hash h = H.hash hb)
      && dense_equal
           (H.to_array (H.sub h (n / 3) (n - (n / 3))))
           (Array.sub a (n / 3) (n - (n / 3)))
      && H.fold (fun k i e -> k + if H.equal_entry a.(i) e then 1 else 0) 0 h
         = Array.fold_left
             (fun k e -> if H.equal_entry e H.Silence then k else k + 1)
             0 a)

(* Every operation is total: outside a history there is silence, and the
   builder ignores what would break index order. *)
let test_history_bounds () =
  let h = H.of_array [| H.Message "0"; H.Message "1" |] in
  let same name a h = check name true (H.equal (H.of_array a) h) in
  check "get past the end" true (H.equal_entry (H.get h 2) H.Silence);
  check "get before the start" true (H.equal_entry (H.get h (-1)) H.Silence);
  same "sub clipped" [| H.Message "1" |] (H.sub h 1 2);
  same "sub before the start" [| H.Message "0" |] (H.sub h (-1) 2);
  same "sub outside" [||] (H.sub h 5 2);
  let b = H.Builder.create () in
  H.Builder.add b (-1) H.Collision;
  H.Builder.add b 3 H.Collision;
  H.Builder.add b 3 (H.Message "again");
  H.Builder.add b 1 (H.Message "late");
  same "ascending only" [| H.Silence; H.Silence; H.Silence; H.Collision |]
    (H.Builder.build b ~length:4);
  same "events past the length dropped" [| H.Silence; H.Silence |]
    (H.Builder.build b ~length:2);
  same "negative length" [||] (H.Builder.build b ~length:(-3))

(* ------------------------------------------------------------------ *)
(* Protocol adapters                                                   *)
(* ------------------------------------------------------------------ *)

(* Drive an instance by hand with a scripted observation sequence and
   collect its actions. *)
let drive proto ~wakeup ~script =
  let inst = proto.P.spawn () in
  inst.P.on_wakeup wakeup;
  List.map
    (fun obs ->
      let a = inst.P.decide () in
      (match a with P.Terminate -> () | _ -> inst.P.observe obs);
      a)
    script

let test_beacon () =
  let actions =
    drive (P.beacon ~message:"hi" ~delay:1 ()) ~wakeup:H.Silence
      ~script:[ H.Silence; H.Silence; H.Silence ]
  in
  check "listen, transmit, terminate" true
    (actions = [ P.Listen; P.Transmit "hi"; P.Terminate ])

let test_silent () =
  let actions =
    drive (P.silent ~lifetime:2 ()) ~wakeup:H.Silence
      ~script:[ H.Silence; H.Silence; H.Silence ]
  in
  check "listens then terminates" true
    (actions = [ P.Listen; P.Listen; P.Terminate ])

let test_of_pure_matches_stateful () =
  (* A pure DRIP equivalent to [beacon ~delay:2]: transmit in local round 3. *)
  let pure =
    P.of_pure ~name:"pure-beacon" (fun h ->
        match H.length h with
        | 3 -> P.Transmit "1"
        | k when k > 3 -> P.Terminate
        | _ -> P.Listen)
  in
  let script = [ H.Silence; H.Message "z"; H.Silence; H.Silence ] in
  let a1 = drive pure ~wakeup:H.Silence ~script in
  let a2 = drive (P.beacon ~delay:2 ()) ~wakeup:H.Silence ~script in
  check "same actions" true (a1 = a2)

let test_pure_sees_prefix () =
  (* The pure DRIP at local round i must see exactly H[0..i-1]. *)
  let lengths = ref [] in
  let proto =
    P.of_pure ~name:"len-probe" (fun h ->
        lengths := H.length h :: !lengths;
        if H.length h >= 3 then P.Terminate else P.Listen)
  in
  ignore (drive proto ~wakeup:H.Silence ~script:[ H.Silence; H.Silence; H.Silence ]);
  check "prefix lengths 1,2,3" true (List.rev !lengths = [ 1; 2; 3 ])

let test_stateful_requires_wakeup () =
  let proto =
    P.stateful ~name:"x"
      ~init:(fun _ -> ())
      ~decide:(fun () -> P.Terminate)
      ~observe:(fun () _ -> ())
  in
  let inst = proto.P.spawn () in
  Alcotest.check_raises "decide before wakeup"
    (Invalid_argument "Protocol.stateful: decide before on_wakeup") (fun () ->
      ignore (inst.P.decide ()))

(* ------------------------------------------------------------------ *)
(* Patient transform (Lemma 3.12)                                      *)
(* ------------------------------------------------------------------ *)

let test_start_round () =
  let start ~sigma a = Patient.start_round ~sigma (H.of_array a) in
  let sigma = 3 in
  (* forced wake-up: s = 0 *)
  check_int "forced" 0
    (start ~sigma [| H.Message "m"; H.Silence |]);
  (* message at round 2 <= sigma: s = 2 *)
  check_int "early message" 2
    (start ~sigma
       [| H.Silence; H.Silence; H.Message "m"; H.Silence |]);
  (* no message within sigma: s = sigma *)
  check_int "quiet start" 3
    (start ~sigma
       [| H.Silence; H.Silence; H.Silence; H.Silence; H.Message "late" |]);
  (* sigma = 0: start immediately *)
  check_int "sigma zero" 0 (start ~sigma:0 [| H.Silence |])

let test_patient_listens_first () =
  let sigma = 4 in
  let proto = Patient.make ~sigma (P.beacon ()) in
  let actions =
    drive proto ~wakeup:H.Silence
      ~script:[ H.Silence; H.Silence; H.Silence; H.Silence; H.Silence; H.Silence ]
  in
  (* Listens through local rounds 1..sigma, inner beacon fires at round
     sigma + 1, inner terminate at sigma + 2. *)
  check "delayed beacon" true
    (actions
    = [ P.Listen; P.Listen; P.Listen; P.Listen; P.Transmit "1"; P.Terminate ])

let test_patient_forced_wakeup_starts_inner () =
  let proto = Patient.make ~sigma:5 (P.beacon ()) in
  let actions =
    drive proto ~wakeup:(H.Message "wake") ~script:[ H.Silence; H.Silence ]
  in
  (* Forced wake-up means s_w = 0: the inner DRIP starts right away. *)
  check "inner immediate" true (actions = [ P.Transmit "1"; P.Terminate ])

let test_patient_message_restarts_clock () =
  let sigma = 5 in
  let proto = Patient.make ~sigma (P.beacon ()) in
  (* Message received at local round 2 => inner round 0 is outer round 2,
     inner transmits at outer round 3. *)
  let actions =
    drive proto ~wakeup:H.Silence
      ~script:[ H.Silence; H.Message "m"; H.Silence; H.Silence ]
  in
  check "inner starts after message" true
    (actions = [ P.Listen; P.Listen; P.Transmit "1"; P.Terminate ])

let test_patient_no_transmission_before_sigma_in_network () =
  (* Executed on a configuration of span σ, a patient DRIP must be silent in
     global rounds 0..σ (Claim 1 of Lemma 3.12).  The raw beacon violates
     patience; its patient wrap must not. *)
  let config = F.h_family 4 in
  let sigma = C.span config in
  let proto = Patient.make ~sigma (P.beacon ()) in
  let o = Engine.run ~max_rounds:200 proto config in
  (match o.Engine.first_transmission with
  | Some (r, _) -> check "first tx after sigma" true (r > sigma)
  | None -> Alcotest.fail "expected a transmission");
  check "all wake spontaneously" true
    (Array.for_all not o.Engine.forced)

let test_patient_preserves_election_outcome () =
  (* A hand-rolled inner algorithm for the 2-node path [0; 1]: whoever is
     woken by a message loses, the early riser wins.  Its patient wrap plus
     the transformed decision must elect the same node (Lemma 3.12). *)
  let inner =
    P.stateful ~name:"first-shout"
      ~init:(fun e -> (e, 0))
      ~decide:(fun (wake, rounds) ->
        match (wake, rounds) with
        | H.Message _, 0 -> P.Listen (* woken by the rival: lose quietly *)
        | _, 0 -> P.Transmit "me"
        | _, _ -> P.Terminate)
      ~observe:(fun (wake, rounds) _ -> (wake, rounds + 1))
  in
  let inner_decision h =
    H.length h > 0 && not (H.equal_entry (H.get h 0) (H.Message "me"))
  in
  let config = F.two_cells () in
  let sigma = C.span config in
  let wrapped =
    {
      Radio_sim.Runner.protocol = Patient.make ~sigma inner;
      decision = Patient.decision ~sigma inner_decision;
    }
  in
  let r = Radio_sim.Runner.run ~max_rounds:100 wrapped config in
  check "unique leader" true (Radio_sim.Runner.elects_unique_leader r);
  Alcotest.(check (option int)) "leader is the early riser" (Some 0) r.Radio_sim.Runner.leader

let test_patient_decision_suffix () =
  let sigma = 2 in
  let f h = H.length h = 2 && H.equal_entry (H.get h 1) (H.Message "x") in
  (* Outer history: quiet rounds then the suffix the inner f expects. *)
  let outer = H.of_array [| H.Silence; H.Silence; H.Silence; H.Message "x" |] in
  check "suffix applied" true (Patient.decision ~sigma f outer);
  let outer_forced = H.of_array [| H.Message "w"; H.Message "x" |] in
  check "forced wakeup suffix" true (Patient.decision ~sigma f outer_forced)

let test_patient_rejects_negative_sigma () =
  Alcotest.check_raises "negative sigma"
    (Invalid_argument "Patient.make: sigma must be >= 0") (fun () ->
      ignore (Patient.make ~sigma:(-1) (P.beacon ())))

let () =
  Alcotest.run "radio_drip"
    [
      ( "history",
        [
          Alcotest.test_case "entry equality" `Quick test_entry_equal;
          Alcotest.test_case "history equality" `Quick test_history_equal;
          Alcotest.test_case "to_string" `Quick test_history_to_string;
          QCheck_alcotest.to_alcotest test_builder_matches_dense;
          Alcotest.test_case "bounds" `Quick test_history_bounds;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "beacon" `Quick test_beacon;
          Alcotest.test_case "silent" `Quick test_silent;
          Alcotest.test_case "of_pure vs stateful" `Quick
            test_of_pure_matches_stateful;
          Alcotest.test_case "pure sees prefix" `Quick test_pure_sees_prefix;
          Alcotest.test_case "stateful wakeup guard" `Quick
            test_stateful_requires_wakeup;
        ] );
      ( "patient",
        [
          Alcotest.test_case "start_round" `Quick test_start_round;
          Alcotest.test_case "listens first" `Quick test_patient_listens_first;
          Alcotest.test_case "forced wakeup" `Quick
            test_patient_forced_wakeup_starts_inner;
          Alcotest.test_case "message restarts clock" `Quick
            test_patient_message_restarts_clock;
          Alcotest.test_case "patience in a network" `Quick
            test_patient_no_transmission_before_sigma_in_network;
          Alcotest.test_case "election preserved" `Quick
            test_patient_preserves_election_outcome;
          Alcotest.test_case "decision suffix" `Quick test_patient_decision_suffix;
          Alcotest.test_case "negative sigma" `Quick
            test_patient_rejects_negative_sigma;
        ] );
    ]
