(* Tests for the real-time-calculus substrate: numeric curves, (min,+)
   operations, greedy processing components, and cross-validation of the
   RTC fixed-priority chain against the busy-window analysis and the
   simulator. *)

module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Curve = Rtc.Curve
module Workload = Rtc.Workload
module Gpc = Rtc.Gpc

(* ------------------------------------------------------------------ *)
(* curves *)

let test_linear_curve () =
  let c = Curve.linear ~kind:Curve.Lower ~horizon:10 ~rate:(1, 1) in
  Alcotest.(check int) "eval 0" 0 (Curve.eval c 0);
  Alcotest.(check int) "eval 7" 7 (Curve.eval c 7);
  Alcotest.(check int) "beyond horizon" 100 (Curve.eval c 100);
  let half = Curve.linear ~kind:Curve.Lower ~horizon:10 ~rate:(1, 2) in
  Alcotest.(check int) "floor" 3 (Curve.eval half 7);
  let half_up = Curve.linear ~kind:Curve.Upper ~horizon:10 ~rate:(1, 2) in
  Alcotest.(check int) "ceil" 4 (Curve.eval half_up 7);
  (* tail rounding follows the kind *)
  Alcotest.(check int) "tail floor" 50 (Curve.eval half 100);
  Alcotest.(check int) "tail ceil" 50 (Curve.eval half_up 100)

let test_curve_validation () =
  let raises f = match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "horizon 0" true
    (raises (fun () ->
       Curve.create ~kind:Curve.Upper ~horizon:0 ~tail_rate:(1, 1) (fun _ -> 0)));
  Alcotest.(check bool) "bad denominator" true
    (raises (fun () ->
       Curve.create ~kind:Curve.Upper ~horizon:5 ~tail_rate:(1, 0) (fun _ -> 0)));
  Alcotest.(check bool) "negative eval" true
    (raises (fun () ->
       Curve.eval (Curve.linear ~kind:Curve.Upper ~horizon:5 ~rate:(1, 1)) (-1)));
  Alcotest.(check bool) "kind mismatch" true
    (raises (fun () ->
       Curve.min
         (Curve.linear ~kind:Curve.Upper ~horizon:5 ~rate:(1, 1))
         (Curve.linear ~kind:Curve.Lower ~horizon:5 ~rate:(1, 1))))

let test_pointwise_ops () =
  let a = Curve.linear ~kind:Curve.Upper ~horizon:20 ~rate:(2, 1) in
  let b = Curve.linear ~kind:Curve.Upper ~horizon:20 ~rate:(3, 1) in
  Alcotest.(check int) "add" 25 (Curve.eval (Curve.add a b) 5);
  Alcotest.(check int) "min" 10 (Curve.eval (Curve.min a b) 5);
  Alcotest.(check int) "max" 15 (Curve.eval (Curve.max a b) 5)

let test_convolution () =
  (* conv of two linear curves of equal rate is the same line *)
  let a = Curve.linear ~kind:Curve.Lower ~horizon:30 ~rate:(2, 1) in
  let conv = Curve.min_plus_conv a a in
  Alcotest.(check int) "same line" 20 (Curve.eval conv 10);
  (* conv with a delayed curve shifts: f = dt, g = max 0 (dt - 5) *)
  let f = Curve.linear ~kind:Curve.Lower ~horizon:30 ~rate:(1, 1) in
  let g = Workload.service_bounded_delay ~horizon:30 ~delay:5 ~rate:(1, 1) in
  let fg = Curve.min_plus_conv f g in
  Alcotest.(check int) "shifted" 5 (Curve.eval fg 10);
  Alcotest.(check int) "zero region" 0 (Curve.eval fg 5)

let test_deconvolution () =
  (* a stair arrival deconvolved by a full service recovers burst+rate *)
  let stream = Stream.periodic ~name:"p" ~period:10 in
  let alpha = Workload.arrival_upper ~horizon:100 ~wcet:3 stream in
  let beta_as_upper =
    Curve.create ~kind:Curve.Upper ~horizon:100 ~tail_rate:(1, 1) (fun dt -> dt)
  in
  let out = Curve.min_plus_deconv alpha beta_as_upper in
  (* output still bounded: at most one event (3 units) instantly *)
  Alcotest.(check bool) "bounded burst" true (Curve.eval out 0 <= 3);
  Alcotest.(check bool) "dominates input" true
    (Curve.eval out 50 >= Curve.eval alpha 50)

let test_deviations () =
  (* periodic demand C=3 every 10 on a unit-rate resource: delay 3 *)
  let stream = Stream.periodic ~name:"p" ~period:10 in
  let alpha = Workload.arrival_upper ~horizon:200 ~wcet:3 stream in
  let beta = Workload.service_full ~horizon:200 in
  Alcotest.(check (option int)) "delay" (Some 3)
    (Curve.horizontal_deviation ~upper:alpha ~lower:beta);
  Alcotest.(check (option int)) "backlog" (Some 3)
    (Curve.vertical_deviation ~upper:alpha ~lower:beta)

let test_tdma_service_curve () =
  let beta = Workload.service_tdma ~horizon:100 ~slot:3 ~cycle:10 in
  Alcotest.(check int) "blank region" 0 (Curve.eval beta 7);
  Alcotest.(check int) "one slot" 3 (Curve.eval beta 10);
  Alcotest.(check int) "two slots" 6 (Curve.eval beta 20);
  (* agrees with the busy-window TDMA service bound everywhere *)
  for dt = 0 to 100 do
    Alcotest.(check int)
      (Printf.sprintf "dt=%d" dt)
      (Scheduling.Tdma.service ~slot:3 ~cycle:10 dt)
      (Curve.eval beta dt)
  done

(* ------------------------------------------------------------------ *)
(* greedy processing component *)

let test_gpc_single () =
  let stream = Stream.periodic ~name:"p" ~period:10 in
  let alpha = Workload.arrival_upper ~horizon:200 ~wcet:4 stream in
  let beta = Workload.service_full ~horizon:200 in
  let result = Gpc.process ~arrival_upper:alpha ~service_lower:beta in
  Alcotest.(check (option int)) "delay = wcet" (Some 4) result.Gpc.delay;
  Alcotest.(check (option int)) "backlog = wcet" (Some 4) result.Gpc.backlog;
  (* remaining service over one period: best split is s = 9 just before
     the next closed-window arrival: 9 - 4 = 5 *)
  Alcotest.(check int) "remaining over one period" 5
    (Curve.eval result.Gpc.remaining_lower 10)

let test_gpc_overload_no_delay_bound () =
  let stream = Stream.periodic ~name:"p" ~period:10 in
  let alpha = Workload.arrival_upper ~horizon:100 ~wcet:20 stream in
  let beta = Workload.service_full ~horizon:100 in
  let result = Gpc.process ~arrival_upper:alpha ~service_lower:beta in
  Alcotest.(check (option int)) "unbounded" None result.Gpc.delay

let test_fp_chain_vs_busy_window () =
  (* the textbook RM set: C = (1, 2, 3), T = (4, 6, 13); busy-window
     R = (1, 3, 10); RTC delay bounds must be sound (>= simulated = same
     pattern) and are close to the busy-window results *)
  let horizon = 400 in
  let arrival period wcet =
    Workload.arrival_upper ~horizon ~wcet
      (Stream.periodic ~name:"s" ~period)
  in
  let results =
    Gpc.fixed_priority_chain
      ~service:(Workload.service_full ~horizon)
      [
        { Gpc.name = "t1"; arrival_upper = arrival 4 1 };
        { Gpc.name = "t2"; arrival_upper = arrival 6 2 };
        { Gpc.name = "t3"; arrival_upper = arrival 13 3 };
      ]
  in
  let delay name =
    match List.assoc name results with
    | { Gpc.delay = Some d; _ } -> d
    | { Gpc.delay = None; _ } -> Alcotest.failf "unbounded %s" name
  in
  Alcotest.(check int) "t1" 1 (delay "t1");
  Alcotest.(check int) "t2" 3 (delay "t2");
  (* RTC with full curves is as tight as the busy window here *)
  Alcotest.(check int) "t3" 10 (delay "t3");
  (* busy-window reference *)
  let task name cet priority period =
    Scheduling.Rt_task.make ~name ~cet:(Interval.point cet) ~priority
      ~activation:(Stream.periodic ~name:(name ^ ".act") ~period)
  in
  let t1 = task "t1" 1 1 4
  and t2 = task "t2" 2 2 6
  and t3 = task "t3" 3 3 13 in
  List.iter
    (fun (t, others, rtc_delay) ->
      match Scheduling.Spp.response_time ~task:t ~others () with
      | Scheduling.Busy_window.Bounded r ->
        Alcotest.(check bool)
          (t.Scheduling.Rt_task.name ^ ": frameworks agree within slack")
          true
          (rtc_delay >= Interval.hi r)
      | Scheduling.Busy_window.Unbounded _ -> Alcotest.fail "unexpected")
    [ t1, [ t2; t3 ], delay "t1"; t2, [ t1; t3 ], delay "t2";
      t3, [ t1; t2 ], delay "t3" ]

let test_tdma_delay_matches_busy_window () =
  (* a task on a TDMA slot analysed by both frameworks: the RTC delay on
     the TDMA service curve equals the busy-window response time, since
     they share the same supply bound *)
  let cases =
    [ 2, 3, 10, 50; 7, 3, 10, 100; 4, 5, 8, 60; 12, 4, 16, 200 ]
  in
  List.iter
    (fun (cet, slot, cycle, period) ->
      let task =
        Scheduling.Rt_task.make ~name:"t" ~cet:(Interval.point cet) ~priority:1
          ~activation:(Stream.periodic ~name:"act" ~period)
      in
      let other =
        Scheduling.Rt_task.make ~name:"o" ~cet:(Interval.point 1) ~priority:1
          ~activation:(Stream.periodic ~name:"oact" ~period:1000)
      in
      let slots =
        [ { Scheduling.Tdma.task; length = slot };
          { Scheduling.Tdma.task = other; length = cycle - slot } ]
      in
      let busy_window =
        match Scheduling.Tdma.response_time ~slots ~task () with
        | Scheduling.Busy_window.Bounded r -> Interval.hi r
        | Scheduling.Busy_window.Unbounded _ -> Alcotest.fail "unbounded"
      in
      let rtc =
        let result =
          Gpc.process
            ~arrival_upper:
              (Workload.arrival_upper ~horizon:2000 ~wcet:cet
                 (Stream.periodic ~name:"act" ~period))
            ~service_lower:(Workload.service_tdma ~horizon:2000 ~slot ~cycle)
        in
        match result.Gpc.delay with
        | Some d -> d
        | None -> Alcotest.fail "unbounded rtc"
      in
      Alcotest.(check int)
        (Printf.sprintf "C=%d slot=%d cycle=%d" cet slot cycle)
        busy_window rtc)
    cases

let test_fp_chain_order_matters () =
  let horizon = 300 in
  let arrival period wcet =
    Workload.arrival_upper ~horizon ~wcet (Stream.periodic ~name:"s" ~period)
  in
  let chain order =
    Gpc.fixed_priority_chain ~service:(Workload.service_full ~horizon) order
  in
  let heavy = { Gpc.name = "heavy"; arrival_upper = arrival 10 5 } in
  let light = { Gpc.name = "light"; arrival_upper = arrival 50 2 } in
  let delay results name =
    match List.assoc name results with
    | { Gpc.delay = Some d; _ } -> d
    | { Gpc.delay = None; _ } -> max_int
  in
  let light_last = delay (chain [ heavy; light ]) "light" in
  let light_first = delay (chain [ light; heavy ]) "light" in
  Alcotest.(check bool) "lower priority waits longer" true
    (light_last > light_first)

(* ------------------------------------------------------------------ *)
(* certified tails of the workload curves *)

let test_long_period_tail_rate () =
  (* regression: the tail-rate window search used to consider only
     windows up to 128 samples, so a periodic stream with period 2400
     got a certified rate of wcet/128 instead of ~wcet/2400 — nearly
     twenty times too steep, which collapsed the remaining service of
     interfered elements in the hybrid backend.  The long-window ladder
     keeps the tail within a small factor of the exact demand. *)
  let period = 2400 and wcet = 20 and horizon = 4096 in
  let s = Stream.periodic ~name:"slow" ~period in
  let alpha = Workload.arrival_upper ~horizon ~wcet s in
  let dt = 10 * horizon in
  let exact = wcet * (((dt - 1) / period) + 1) in
  let v = Curve.eval alpha dt in
  Alcotest.(check bool) "tail dominates the exact demand" true (v >= exact);
  Alcotest.(check bool)
    (Printf.sprintf "tail within 2x of exact (%d vs %d)" v exact)
    true
    (v <= 2 * exact)

let prop_arrival_tails_conservative =
  (* satellite of the hybrid coupling: past the sampled horizon the
     certified tails must stay on the right side of the exact stream
     demand, arbitrarily far out and for any jitter *)
  QCheck.Test.make ~name:"arrival curve tails bound the stream" ~count:50
    (QCheck.pair
       (QCheck.pair (QCheck.int_range 5 400) (QCheck.int_range 0 60))
       (QCheck.pair (QCheck.int_range 1 6) (QCheck.int_range 1 8)))
    (fun ((period, jitter), (wcet, mult)) ->
      let horizon = 100 in
      let s = Stream.periodic_jitter ~name:"t" ~period ~jitter () in
      let upper = Workload.arrival_upper ~horizon ~wcet s in
      let lower = Workload.arrival_lower ~horizon ~bcet:wcet s in
      let dt = (mult * horizon) + (mult * period / 2) in
      let eta_p = Timebase.Count.to_int (Stream.eta_plus s dt) in
      let eta_m = Timebase.Count.to_int (Stream.eta_minus s dt) in
      Curve.eval upper dt >= wcet * eta_p
      && Curve.eval lower dt <= wcet * eta_m)

(* ------------------------------------------------------------------ *)
(* properties *)

let test_map2_mismatched_horizons () =
  (* pins the map2 horizon convention: the combination keeps the LARGER
     horizon, so in the gap where only the shorter curve has run out of
     samples the result is exact (the shorter curve contributes its
     certified tail) instead of tail-projected from the shorter range *)
  let a = Curve.linear ~kind:Curve.Upper ~horizon:50 ~rate:(1, 1) in
  let b = Curve.linear ~kind:Curve.Upper ~horizon:20 ~rate:(1, 2) in
  let add_rates (n1, d1) (n2, d2) = ((n1 * d2) + (n2 * d1), d1 * d2) in
  let c = Curve.map2 ( + ) add_rates a b in
  Alcotest.(check int) "keeps the larger horizon" 50 (Curve.horizon c);
  for dt = 0 to 50 do
    Alcotest.(check int)
      (Printf.sprintf "exact at %d" dt)
      (Curve.eval a dt + Curve.eval b dt)
      (Curve.eval c dt)
  done;
  List.iter
    (fun dt ->
      Alcotest.(check bool)
        (Printf.sprintf "conservative at %d" dt)
        true
        (Curve.eval c dt >= Curve.eval a dt + Curve.eval b dt))
    [ 51; 64; 100; 200 ]

let prop_conv_dominated =
  (* (f (x) f)(dt) <= f(0) + f(dt) by choosing the trivial split *)
  QCheck.Test.make ~name:"convolution dominated by trivial split" ~count:40
    (QCheck.pair (QCheck.int_range 1 20) (QCheck.int_range 0 40))
    (fun (rate, dt) ->
      let rate = Stdlib.max 1 rate in
      let f = Curve.linear ~kind:Curve.Lower ~horizon:50 ~rate:(rate, 1) in
      Curve.eval (Curve.min_plus_conv f f) dt <= Curve.eval f 0 + Curve.eval f dt)

let prop_deconv_dominates =
  (* (f (/) g)(dt) >= f(dt) - g(0) = f(dt): the s = 0 term of the sup *)
  QCheck.Test.make ~name:"deconvolution dominates the original" ~count:40
    (QCheck.pair (QCheck.int_range 1 10) (QCheck.int_range 0 40))
    (fun (period, dt) ->
      let period = Stdlib.max 1 period in
      let alpha =
        Workload.arrival_upper ~horizon:100 ~wcet:1
          (Stream.periodic ~name:"p" ~period)
      in
      let beta =
        Curve.create ~kind:Curve.Upper ~horizon:100 ~tail_rate:(1, 1)
          (fun x -> x)
      in
      Curve.eval (Curve.min_plus_deconv alpha beta) dt >= Curve.eval alpha dt)

(* ------------------------------------------------------------------ *)
(* product kernels vs the naive scan references of Verify.Oracle *)

let same_deconv = Verify.Oracle.same_deconv

let same_delay upper lower = Verify.Oracle.same_delay ~upper ~lower

let unstable f g =
  match Curve.min_plus_deconv f g with
  | _ -> false
  | exception Curve.Unstable _ -> true

(* Denominators whose pairwise lcm can pass 720 (29 * 31), so some pairs
   go through [harmonise]. *)
let dens = [ 1; 2; 3; 4; 5; 6; 8; 12; 25; 27; 29; 31 ]

(* Random curves from explicit samples: arbitrary (non-monotone) or
   sorted samples, any horizon up to 40, and a tail offset on the
   conservative side of the kind — negative for [Lower], so the tail can
   dip below the sample at the horizon. *)
let gen_curve kinds =
  let open QCheck.Gen in
  oneofl kinds >>= fun kind ->
  int_range 1 40 >>= fun h ->
  array_size (return (h + 1)) (int_range 0 60) >>= fun samples ->
  bool >>= fun sorted ->
  int_range 0 8 >>= fun num ->
  oneofl dens >>= fun den ->
  int_range 0 6 >>= fun off ->
  if sorted then Array.sort compare samples;
  let tail_offset = match kind with Curve.Upper -> off | Curve.Lower -> -off in
  return (Curve.of_samples ~kind ~tail_rate:(num, den) ~tail_offset samples)

let arb_pair gen_a gen_b =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "%a@ /@ %a" Curve.pp a Curve.pp b)
    (QCheck.Gen.pair gen_a gen_b)

let both = [ Curve.Upper; Curve.Lower ]

let prop_deconv_matches_reference =
  QCheck.Test.make ~name:"deconvolution equals the lag-scan reference"
    ~count:1000
    (arb_pair (gen_curve both) (gen_curve both))
    (fun (f, g) -> same_deconv f g)

let prop_delay_matches_reference =
  QCheck.Test.make ~name:"delay equals the forward-search reference"
    ~count:1000
    (arb_pair (gen_curve [ Curve.Upper ]) (gen_curve [ Curve.Lower ]))
    (fun (upper, lower) -> same_delay upper lower)

let prop_kernels_on_workload_curves =
  (* the curves the hybrid backend really builds: certified staircases
     against TDMA service and against the remaining service after one
     interferer (whose negative tail offset dips at its horizon) *)
  QCheck.Test.make ~name:"kernels equal references on workload curves"
    ~count:40
    QCheck.(
      pair
        (pair (int_range 3 60) (int_range 0 40))
        (pair (int_range 1 4) (int_range 1 6)))
    (fun ((period, jitter), (wcet, slot)) ->
      let s = Stream.periodic_jitter ~name:"t" ~period ~jitter () in
      let alpha = Workload.arrival_upper ~horizon:(40 + period) ~wcet s in
      let tdma = Workload.service_tdma ~horizon:64 ~slot ~cycle:(slot + 3) in
      let rest =
        Gpc.remaining_service ~arrival_upper:alpha
          ~service_lower:(Workload.service_full ~horizon:50)
      in
      List.for_all
        (fun beta -> same_deconv alpha beta && same_delay alpha beta)
        [ tdma; rest ])

let test_kernel_outcomes () =
  let stair =
    Curve.of_samples ~kind:Curve.Upper ~tail_rate:(1, 2) ~tail_offset:1
      [| 0; 2; 2; 3; 3; 4 |]
  in
  let slow = Curve.linear ~kind:Curve.Lower ~horizon:7 ~rate:(1, 3) in
  let fast = Curve.linear ~kind:Curve.Lower ~horizon:9 ~rate:(1, 1) in
  (* Unstable: numerator rate 1/2 above denominator rate 1/3 *)
  Alcotest.(check bool) "unstable" true (unstable stair slow);
  Alcotest.(check bool) "unstable agrees" true (same_deconv stair slow);
  Alcotest.(check bool) "stable" false (unstable stair fast);
  Alcotest.(check bool) "stable agrees" true (same_deconv stair fast);
  (* None by rate, and None by the search cap: a flat service never
     reaches the demand of an equally flat but higher arrival curve *)
  Alcotest.(check (option int)) "delay overloaded" None
    (Curve.horizontal_deviation ~upper:stair ~lower:slow);
  Alcotest.(check bool) "overloaded agrees" true (same_delay stair slow);
  let high =
    Curve.of_samples ~kind:Curve.Upper ~tail_rate:(0, 1) ~tail_offset:0
      [| 5; 5 |]
  in
  let flat =
    Curve.of_samples ~kind:Curve.Lower ~tail_rate:(0, 1) ~tail_offset:0
      [| 0; 1; 2 |]
  in
  Alcotest.(check (option int)) "delay unreachable" None
    (Curve.horizontal_deviation ~upper:high ~lower:flat);
  Alcotest.(check bool) "unreachable agrees" true (same_delay high flat);
  Alcotest.(check bool) "bounded agrees" true (same_delay stair fast);
  (* a dropping arrival curve against a lower curve that dips at its
     horizon: the delay search must restart, not resume *)
  let dropping =
    Curve.of_samples ~kind:Curve.Upper ~tail_rate:(1, 4) ~tail_offset:2
      [| 0; 6; 1; 7; 2; 2 |]
  in
  let dipping =
    Curve.of_samples ~kind:Curve.Lower ~tail_rate:(1, 2) ~tail_offset:(-3)
      [| 0; 1; 3; 4; 6 |]
  in
  Alcotest.(check bool) "restart agrees" true (same_delay dropping dipping);
  Alcotest.(check bool) "dip deconv agrees" true (same_deconv dropping dipping)

let () =
  Alcotest.run "rtc"
    [
      ( "curves",
        [
          Alcotest.test_case "linear" `Quick test_linear_curve;
          Alcotest.test_case "validation" `Quick test_curve_validation;
          Alcotest.test_case "pointwise" `Quick test_pointwise_ops;
          Alcotest.test_case "convolution" `Quick test_convolution;
          Alcotest.test_case "deconvolution" `Quick test_deconvolution;
          Alcotest.test_case "deviations" `Quick test_deviations;
          Alcotest.test_case "tdma service" `Quick test_tdma_service_curve;
          Alcotest.test_case "long-period tail rate" `Quick
            test_long_period_tail_rate;
          Alcotest.test_case "map2 mismatched horizons" `Quick
            test_map2_mismatched_horizons;
        ] );
      ( "gpc",
        [
          Alcotest.test_case "single component" `Quick test_gpc_single;
          Alcotest.test_case "overload" `Quick test_gpc_overload_no_delay_bound;
          Alcotest.test_case "fp chain vs busy window" `Quick
            test_fp_chain_vs_busy_window;
          Alcotest.test_case "tdma vs busy window" `Quick
            test_tdma_delay_matches_busy_window;
          Alcotest.test_case "chain order" `Quick test_fp_chain_order_matters;
        ] );
      ( "kernels",
        [ Alcotest.test_case "outcomes vs reference" `Quick test_kernel_outcomes ]
      );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_conv_dominated;
            prop_deconv_dominates;
            prop_arrival_tails_conservative;
            prop_deconv_matches_reference;
            prop_delay_matches_reference;
            prop_kernels_on_workload_curves;
          ] );
    ]
