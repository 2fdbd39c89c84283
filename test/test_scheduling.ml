(* Tests for the local busy-window analyses: SPP, SPNP (CAN), TDMA and
   round-robin, against hand-computed and textbook results. *)

module Time = Timebase.Time
module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Rt_task = Scheduling.Rt_task
module Busy_window = Scheduling.Busy_window
module Spp = Scheduling.Spp
module Spnp = Scheduling.Spnp
module Tdma = Scheduling.Tdma
module Round_robin = Scheduling.Round_robin

let outcome = Alcotest.testable Busy_window.pp_outcome (fun a b ->
  match a, b with
  | Busy_window.Bounded x, Busy_window.Bounded y -> Interval.equal x y
  | Busy_window.Unbounded _, Busy_window.Unbounded _ -> true
  | Busy_window.Bounded _, Busy_window.Unbounded _
  | Busy_window.Unbounded _, Busy_window.Bounded _ -> false)

let task ~name ~cet ?(lo = cet) ~priority ~period ?(jitter = 0) () =
  Rt_task.make ~name ~cet:(Interval.make ~lo ~hi:cet) ~priority
    ~activation:
      (Stream.periodic_jitter ~name:(name ^ ".act") ~period ~jitter ())

(* ------------------------------------------------------------------ *)
(* busy-window machinery *)

let test_fixpoint () =
  Alcotest.(check (option int)) "constant" (Some 5)
    (Busy_window.fixpoint ~limit:100 ~init:5 (fun _ -> 5));
  Alcotest.(check (option int)) "staircase" (Some 24)
    (Busy_window.fixpoint ~limit:100 ~init:1 (fun w -> Stdlib.min 24 (w * 2)));
  Alcotest.(check (option int)) "diverges" None
    (Busy_window.fixpoint ~limit:100 ~init:1 (fun w -> w + 1));
  Alcotest.(check bool) "non-monotone rejected" true
    (match Busy_window.fixpoint ~limit:100 ~init:10 (fun w -> w - 1) with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_priority_filters () =
  let t1 = task ~name:"a" ~cet:1 ~priority:1 ~period:10 () in
  let t2 = task ~name:"b" ~cet:1 ~priority:2 ~period:10 () in
  let t3 = task ~name:"c" ~cet:1 ~priority:2 ~period:10 () in
  let all = [ t1; t2; t3 ] in
  Alcotest.(check (list string)) "hp of t2 (equal counts)" [ "a"; "c" ]
    (List.map (fun (t : Rt_task.t) -> t.name)
       (Busy_window.higher_priority ~than:t2 all));
  Alcotest.(check (list string)) "lp of t1" [ "b"; "c" ]
    (List.map (fun (t : Rt_task.t) -> t.name)
       (Busy_window.lower_priority ~than:t1 all))

(* ------------------------------------------------------------------ *)
(* SPP *)

let test_spp_single_task () =
  let t = task ~name:"solo" ~cet:3 ~lo:2 ~priority:1 ~period:10 () in
  Alcotest.check outcome "R = C" (Busy_window.Bounded (Interval.make ~lo:2 ~hi:3))
    (Spp.response_time ~task:t ~others:[] ())

let test_spp_textbook () =
  (* classic rate-monotonic example: C = (1, 2, 3), T = (4, 6, 13);
     R1 = 1, R2 = 3, R3 = 3 + 2*1 + ... = textbook busy-window values *)
  let t1 = task ~name:"t1" ~cet:1 ~priority:1 ~period:4 ()
  and t2 = task ~name:"t2" ~cet:2 ~priority:2 ~period:6 ()
  and t3 = task ~name:"t3" ~cet:3 ~priority:3 ~period:13 () in
  let all = [ t1; t2; t3 ] in
  let response t =
    Spp.response_time ~task:t ~others:(List.filter (fun x -> x != t) all) ()
  in
  Alcotest.check outcome "R1" (Busy_window.Bounded (Interval.point 1)) (response t1);
  Alcotest.check outcome "R2" (Busy_window.Bounded (Interval.make ~lo:2 ~hi:3))
    (response t2);
  (* w = 3 + ceil(w/4)*1 + ceil(w/6)*2 -> w = 10 *)
  Alcotest.check outcome "R3" (Busy_window.Bounded (Interval.make ~lo:3 ~hi:10))
    (response t3)

let test_spp_arbitrary_deadline () =
  (* busy period spans several activations: C=26, T=40 for low prio with a
     C=10, T=25 interferer; utilisation 0.65 + 0.4 > 1?  No: use classic
     Lehoczky example: hp C=26 T=70, lp C=36 T=100:
     q=1: w = 36 + 26 = 62, resp 62; arrival 2 at 100 > 62: done. *)
  let hp = task ~name:"hp" ~cet:26 ~priority:1 ~period:70 ()
  and lp = task ~name:"lp" ~cet:36 ~priority:2 ~period:100 () in
  (* q=1: w = 36 + ceil(62/70)*26 ... w = 36+26 = 62; 62 <= 100 -> single *)
  Alcotest.check outcome "R lp" (Busy_window.Bounded (Interval.make ~lo:36 ~hi:62))
    (Spp.response_time ~task:lp ~others:[ hp ] ())

let test_spp_multiple_activations_in_busy_period () =
  (* utilization close to 1 with a long busy period: hp C=2 T=4 (u=.5),
     lp C=3 T=7 (u~.43): level-2 busy period spans multiple jobs of lp *)
  let hp = task ~name:"hp" ~cet:2 ~priority:1 ~period:4 ()
  and lp = task ~name:"lp" ~cet:3 ~priority:2 ~period:7 () in
  (* q=1: w = 3 + eta(w)*2: w=3+2=5, eta+(5)=2 -> 7, eta+(7)=2 -> 7; resp 7
     next arrival delta_min 2 = 7; finish 7 > 7? no -> stop. R = 7 *)
  Alcotest.check outcome "R lp" (Busy_window.Bounded (Interval.make ~lo:3 ~hi:7))
    (Spp.response_time ~task:lp ~others:[ hp ] ())

let test_spp_jitter_burst_interference () =
  (* jitter makes two hp activations land almost together:
     delta_min_hp 2 = max(1, 100-150) = 1, delta_min_hp 3 = max(2, 50) = 50,
     so w = 10 + 2*5 = 20 with eta_hp(20) = 2: R = 20 *)
  let hp = task ~name:"hp" ~cet:5 ~priority:1 ~period:100 ~jitter:150 ()
  and lp = task ~name:"lp" ~cet:10 ~priority:2 ~period:1000 () in
  Alcotest.check outcome "R lp"
    (Busy_window.Bounded (Interval.make ~lo:10 ~hi:20))
    (Spp.response_time ~task:lp ~others:[ hp ] ())

let test_spp_blocking_term () =
  (* a shared-resource blocking term delays every busy window *)
  let t = task ~name:"t" ~cet:10 ~priority:1 ~period:100 () in
  Alcotest.check outcome "without blocking"
    (Busy_window.Bounded (Interval.point 10))
    (Spp.response_time ~task:t ~others:[] ());
  Alcotest.check outcome "with blocking"
    (Busy_window.Bounded (Interval.make ~lo:10 ~hi:17))
    (Spp.response_time ~blocking:7 ~task:t ~others:[] ());
  Alcotest.(check bool) "negative rejected" true
    (match Spp.response_time ~blocking:(-1) ~task:t ~others:[] () with
     | _ -> false
     | exception Guard.Error.Error (Guard.Error.Invalid_spec _) -> true)

let test_spp_overload () =
  let t1 = task ~name:"t1" ~cet:5 ~priority:1 ~period:8 ()
  and t2 = task ~name:"t2" ~cet:5 ~priority:2 ~period:8 () in
  Alcotest.check outcome "unbounded"
    (Busy_window.Unbounded "overload")
    (Spp.response_time ~task:t2 ~others:[ t1 ] ())

let test_spp_analyse_all () =
  let t1 = task ~name:"t1" ~cet:1 ~priority:1 ~period:4 ()
  and t2 = task ~name:"t2" ~cet:2 ~priority:2 ~period:6 () in
  let results = Spp.analyse [ t1; t2 ] in
  Alcotest.(check int) "two results" 2 (List.length results);
  Alcotest.(check (list string)) "order preserved" [ "t1"; "t2" ]
    (List.map (fun ((t : Rt_task.t), _) -> t.name) results)

(* ------------------------------------------------------------------ *)
(* SPNP *)

let test_spnp_paper_bus () =
  (* the CAN bus of the paper: F1 [4:4] high prio activated by OR(S1,S2)
     with two simultaneous triggers possible, F2 [2:2] low prio *)
  let f1_act =
    Event_model.Combine.or_combine
      [
        Stream.periodic ~name:"S1" ~period:250;
        Stream.periodic ~name:"S2" ~period:450;
      ]
  in
  let f1 =
    Rt_task.make ~name:"F1" ~cet:(Interval.point 4) ~priority:1
      ~activation:f1_act
  in
  let f2 =
    Rt_task.make ~name:"F2" ~cet:(Interval.point 2) ~priority:2
      ~activation:(Stream.periodic ~name:"S4" ~period:400)
  in
  (* q=1: blocked by F2 (2) then 4: finish 6; second simultaneous trigger
     queues behind: finish 10; hand-computed R+ = 10 *)
  Alcotest.check outcome "R F1" (Busy_window.Bounded (Interval.make ~lo:4 ~hi:10))
    (Spnp.response_time ~task:f1 ~others:[ f2 ] ());
  (* F2: blocked by nothing lower, interference from both F1 triggers:
     start = eta_F1(w+1)*4: w=8 -> finish 10 *)
  Alcotest.check outcome "R F2" (Busy_window.Bounded (Interval.make ~lo:2 ~hi:10))
    (Spnp.response_time ~task:f2 ~others:[ f1 ] ())

let test_spnp_blocking_only_from_lower () =
  let hp = task ~name:"hp" ~cet:4 ~priority:1 ~period:100 ()
  and mid = task ~name:"mid" ~cet:6 ~priority:2 ~period:100 ()
  and lp = task ~name:"lp" ~cet:8 ~priority:3 ~period:100 () in
  (* hp: blocked by max(6,8) = 8, then transmits: R = 8 + 4 = 12 *)
  Alcotest.check outcome "R hp"
    (Busy_window.Bounded (Interval.make ~lo:4 ~hi:12))
    (Spnp.response_time ~task:hp ~others:[ mid; lp ] ());
  (* lp: no blocking, interference hp+mid: start = 4+6 = 10, R = 18 *)
  Alcotest.check outcome "R lp"
    (Busy_window.Bounded (Interval.make ~lo:8 ~hi:18))
    (Spnp.response_time ~task:lp ~others:[ hp; mid ] ())

let test_spnp_non_preemptive_once_started () =
  (* an hp arrival during transmission does not preempt: the lp response
     never includes hp work that arrives after the start *)
  let hp = task ~name:"hp" ~cet:3 ~priority:1 ~period:10 ()
  and lp = task ~name:"lp" ~cet:8 ~priority:2 ~period:1000 () in
  (* lp start: w = eta_hp(w+1)*3; w=3: eta(4)=1 -> 3; w=3: start 3 at which
     point hp arrivals at 0 done; finish 11; hp at 10 arrives mid-flight *)
  Alcotest.check outcome "R lp"
    (Busy_window.Bounded (Interval.make ~lo:8 ~hi:11))
    (Spnp.response_time ~task:lp ~others:[ hp ] ())

(* ------------------------------------------------------------------ *)
(* TDMA *)

let test_tdma_service () =
  (* slot 3 in a cycle of 10: worst window starts just after the slot *)
  Alcotest.(check int) "w=7" 0 (Tdma.service ~slot:3 ~cycle:10 7);
  Alcotest.(check int) "w=8" 1 (Tdma.service ~slot:3 ~cycle:10 8);
  Alcotest.(check int) "w=10" 3 (Tdma.service ~slot:3 ~cycle:10 10);
  Alcotest.(check int) "w=17" 3 (Tdma.service ~slot:3 ~cycle:10 17);
  Alcotest.(check int) "w=20" 6 (Tdma.service ~slot:3 ~cycle:10 20)

let test_tdma_response () =
  let t1 = task ~name:"t1" ~cet:2 ~priority:1 ~period:50 ()
  and t2 = task ~name:"t2" ~cet:4 ~priority:1 ~period:50 () in
  let slots = [ { Tdma.task = t1; length = 3 }; { Tdma.task = t2; length = 5 } ] in
  (* t1: cycle 8, slot 3; worst: activation just after slot closes: wait 5,
     then 2 units of service: finish at w with service w >= 2: w = 7 *)
  Alcotest.check outcome "R t1" (Busy_window.Bounded (Interval.make ~lo:2 ~hi:7))
    (Tdma.response_time ~slots ~task:t1 ());
  (* t2: slot 5, cycle 8; demand 4: w - 3 >= 4 -> 7 *)
  Alcotest.check outcome "R t2" (Busy_window.Bounded (Interval.make ~lo:4 ~hi:7))
    (Tdma.response_time ~slots ~task:t2 ())

let test_tdma_demand_spanning_cycles () =
  let t1 = task ~name:"t1" ~cet:7 ~priority:1 ~period:100 ()
  and t2 = task ~name:"t2" ~cet:1 ~priority:1 ~period:100 () in
  let slots = [ { Tdma.task = t1; length = 3 }; { Tdma.task = t2; length = 7 } ] in
  (* t1 needs 7 units at 3/cycle-of-10: worst start offset 7;
     service(w) >= 7 first at w = 7 + 10 + 10 + 1 = ... compute:
     effective = w - 7; service = (e/10)*3 + min 3 (e mod 10);
     w=27: e=20 -> 6; w=28: e=21 -> 6+1=7 -> finish 28 *)
  Alcotest.check outcome "R t1"
    (Busy_window.Bounded (Interval.make ~lo:21 ~hi:28))
    (Tdma.response_time ~slots ~task:t1 ());
  Alcotest.(check bool) "unknown task" true
    (match
       Tdma.response_time ~slots:[ { Tdma.task = t1; length = 3 } ] ~task:t2 ()
     with
     | _ -> false
     | exception Guard.Error.Error (Guard.Error.Invalid_spec _) -> true)

(* ------------------------------------------------------------------ *)
(* Round robin *)

let test_round_robin_isolated () =
  let t1 = task ~name:"t1" ~cet:4 ~priority:1 ~period:100 ()
  and t2 = task ~name:"t2" ~cet:6 ~priority:1 ~period:100 () in
  let shares =
    [ { Round_robin.task = t1; quantum = 2 };
      { Round_robin.task = t2; quantum = 3 } ]
  in
  (* t1: demand 4 -> 2 rounds; interference from t2 bounded by
     min(eta*6, 2*3) = 6: w = 4 + 6 = 10; eta_t2(10) = 1 -> min(6,6)=6 ok *)
  Alcotest.check outcome "R t1"
    (Busy_window.Bounded (Interval.make ~lo:4 ~hi:10))
    (Round_robin.response_time ~shares ~task:t1 ());
  (* t2: demand 6 -> 2 rounds; interference min(4, 2*2) = 4 -> 10 *)
  Alcotest.check outcome "R t2"
    (Busy_window.Bounded (Interval.make ~lo:6 ~hi:10))
    (Round_robin.response_time ~shares ~task:t2 ())

let test_round_robin_quantum_bound_binds () =
  (* a flood of hp-side work is capped by the quantum bound *)
  let flood = task ~name:"flood" ~cet:2 ~priority:1 ~period:3 ()
  and slow = task ~name:"slow" ~cet:4 ~priority:1 ~period:1000 () in
  let shares =
    [ { Round_robin.task = flood; quantum = 2 };
      { Round_robin.task = slow; quantum = 4 } ]
  in
  (* slow: 1 round of 4; flood capped at 1*2 = 2: w = 4 + 2 = 6 even though
     eta_flood(6)*2 = 4 *)
  Alcotest.check outcome "R slow"
    (Busy_window.Bounded (Interval.make ~lo:4 ~hi:6))
    (Round_robin.response_time ~shares ~task:slow ())

let test_round_robin_unknown_task () =
  let t1 = task ~name:"t1" ~cet:4 ~priority:1 ~period:100 () in
  let t2 = task ~name:"t2" ~cet:4 ~priority:1 ~period:100 () in
  Alcotest.(check bool) "raises" true
    (match
       Round_robin.response_time
         ~shares:[ { Round_robin.task = t1; quantum = 1 } ]
         ~task:t2 ()
     with
     | _ -> false
     | exception Guard.Error.Error (Guard.Error.Invalid_spec _) -> true)

(* ------------------------------------------------------------------ *)
(* properties *)

let prop_spp_hp_insensitive_to_lp =
  QCheck.Test.make ~name:"SPP: lower priorities never delay" ~count:40
    (QCheck.pair (QCheck.int_range 1 20) (QCheck.int_range 1 20))
    (fun (c_hp, c_lp) ->
      let c_hp = Stdlib.max 1 c_hp and c_lp = Stdlib.max 1 c_lp in
      let hp = task ~name:"hp" ~cet:c_hp ~priority:1 ~period:100 ()
      and lp = task ~name:"lp" ~cet:c_lp ~priority:2 ~period:100 () in
      let alone = Spp.response_time ~task:hp ~others:[] ()
      and with_lp = Spp.response_time ~task:hp ~others:[ lp ] () in
      match alone, with_lp with
      | Busy_window.Bounded a, Busy_window.Bounded b -> Interval.equal a b
      | Busy_window.Bounded _, Busy_window.Unbounded _
      | Busy_window.Unbounded _, _ -> false)

let prop_spnp_blocking_monotone =
  QCheck.Test.make ~name:"SPNP: response grows with blocker size" ~count:40
    (QCheck.pair (QCheck.int_range 1 10) (QCheck.int_range 1 30))
    (fun (c, b) ->
      let c = Stdlib.max 1 c and b = Stdlib.max 1 b in
      let hp = task ~name:"hp" ~cet:c ~priority:1 ~period:100 () in
      let blocker size = task ~name:"lp" ~cet:size ~priority:2 ~period:100 () in
      let r size =
        match Spnp.response_time ~task:hp ~others:[ blocker size ] () with
        | Busy_window.Bounded i -> Interval.hi i
        | Busy_window.Unbounded _ -> max_int
      in
      r b <= r (b + 5))

let prop_tdma_longer_slot_helps =
  QCheck.Test.make ~name:"TDMA: larger own slot never hurts" ~count:40
    (QCheck.pair (QCheck.int_range 1 10) (QCheck.int_range 1 10))
    (fun (c, s) ->
      let c = Stdlib.max 1 c and s = Stdlib.max 1 s in
      let t = task ~name:"t" ~cet:c ~priority:1 ~period:1000 () in
      let other = task ~name:"o" ~cet:1 ~priority:1 ~period:1000 () in
      let r slot =
        let slots =
          [ { Tdma.task = t; length = slot }; { Tdma.task = other; length = 4 } ]
        in
        match Tdma.response_time ~slots ~task:t () with
        | Busy_window.Bounded i -> Interval.hi i
        | Busy_window.Unbounded _ -> max_int
      in
      r (s + 1) <= r s)

(* The warm-started fixpoints over the resumable demand kernel against
   the verification layer's cold-started references over
   [Busy_window.interference], for every task of random jittered task
   sets (utilisation at most 1/2, so busy periods stay short while
   jitter still packs several activations into one). *)
let arb_task_set =
  let open QCheck in
  let arb_task =
    quad (int_range 1 20) (int_range 0 19) (int_range 1 4)
      (pair (int_range 2 8) (int_range 0 200))
  in
  map
    (fun specs ->
      let n = List.length specs in
      List.mapi
        (fun i (cet, lo, priority, (stretch, jitter_pct)) ->
          let period = stretch * cet * n in
          task
            ~name:(Printf.sprintf "t%d" i)
            ~cet ~lo:(1 + (lo mod cet)) ~priority ~period
            ~jitter:(period * jitter_pct / 100)
            ())
        specs)
    (list_of_size (Gen.int_range 1 4) arb_task)

let matches_reference kernel reference tasks =
  List.for_all
    (fun task ->
      let others = List.filter (fun t -> t != task) tasks in
      Alcotest.equal outcome (kernel ~task ~others) (reference ~task ~others))
    tasks

let prop_spp_matches_reference =
  QCheck.Test.make ~name:"SPP: kernel = cold-start reference" ~count:150
    (QCheck.pair arb_task_set (QCheck.int_range 0 10))
    (fun (tasks, blocking) ->
      matches_reference
        (fun ~task ~others -> Spp.response_time ~blocking ~task ~others ())
        (fun ~task ~others ->
          Verify.Oracle.reference_spp ~blocking ~task ~others ())
        tasks)

let prop_spnp_matches_reference =
  QCheck.Test.make ~name:"SPNP: kernel = cold-start reference" ~count:150
    arb_task_set
    (matches_reference
       (fun ~task ~others -> Spnp.response_time ~task ~others ())
       (fun ~task ~others -> Verify.Oracle.reference_spnp ~task ~others ()))

let () =
  Alcotest.run "scheduling"
    [
      ( "busy window",
        [
          Alcotest.test_case "fixpoint" `Quick test_fixpoint;
          Alcotest.test_case "priority filters" `Quick test_priority_filters;
        ] );
      ( "spp",
        [
          Alcotest.test_case "single task" `Quick test_spp_single_task;
          Alcotest.test_case "textbook RM" `Quick test_spp_textbook;
          Alcotest.test_case "arbitrary deadline" `Quick
            test_spp_arbitrary_deadline;
          Alcotest.test_case "long busy period" `Quick
            test_spp_multiple_activations_in_busy_period;
          Alcotest.test_case "jitter interference" `Quick
            test_spp_jitter_burst_interference;
          Alcotest.test_case "blocking term" `Quick test_spp_blocking_term;
          Alcotest.test_case "overload" `Quick test_spp_overload;
          Alcotest.test_case "analyse all" `Quick test_spp_analyse_all;
        ] );
      ( "spnp",
        [
          Alcotest.test_case "paper bus" `Quick test_spnp_paper_bus;
          Alcotest.test_case "blocking from lower" `Quick
            test_spnp_blocking_only_from_lower;
          Alcotest.test_case "non-preemptive start" `Quick
            test_spnp_non_preemptive_once_started;
        ] );
      ( "tdma",
        [
          Alcotest.test_case "service bound" `Quick test_tdma_service;
          Alcotest.test_case "response" `Quick test_tdma_response;
          Alcotest.test_case "multi-cycle demand" `Quick
            test_tdma_demand_spanning_cycles;
        ] );
      ( "round robin",
        [
          Alcotest.test_case "isolated" `Quick test_round_robin_isolated;
          Alcotest.test_case "quantum bound" `Quick
            test_round_robin_quantum_bound_binds;
          Alcotest.test_case "unknown task" `Quick test_round_robin_unknown_task;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_spp_hp_insensitive_to_lp;
            prop_spnp_blocking_monotone;
            prop_spp_matches_reference;
            prop_spnp_matches_reference;
            prop_tdma_longer_slot_helps;
          ] );
    ]
