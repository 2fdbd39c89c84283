(* The incremental fixed-point engine must be a pure optimisation:
   against the non-incremental engine (every iteration from scratch) the
   outcomes are bit-identical, convergence flags agree and the iteration
   trajectory — hence the count — is unchanged, across all three analysis
   modes and every bundled scenario. *)

module Interval = Timebase.Interval
module Busy_window = Scheduling.Busy_window
module Engine = Cpa_system.Engine

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "analysis failed: %s" (Guard.Error.to_string e)

let outcome =
  Alcotest.testable Busy_window.pp_outcome (fun a b ->
    match a, b with
    | Busy_window.Bounded x, Busy_window.Bounded y -> Interval.equal x y
    | Busy_window.Unbounded x, Busy_window.Unbounded y -> String.equal x y
    | _ -> false)

let element_outcome =
  Alcotest.testable
    (fun ppf (o : Engine.element_outcome) ->
      Format.fprintf ppf "%s@%s: %a" o.element o.resource
        Busy_window.pp_outcome o.outcome)
    (fun (a : Engine.element_outcome) b ->
      String.equal a.element b.element
      && String.equal a.resource b.resource
      && Alcotest.equal outcome a.outcome b.outcome)

let modes =
  [
    "hierarchical", Engine.Hierarchical;
    "flat_stream", Engine.Flat_stream;
    "flat_sem", Engine.Flat_sem;
  ]

let scenarios =
  [
    "paper", Scenarios.Paper_system.spec ();
    "gateway", Scenarios.Gateway.spec ();
    "avionics", Scenarios.Avionics.spec ();
    "fan_in_6", Scenarios.Synthetic.fan_in ~signals:6 ();
    "chain_8", Scenarios.Synthetic.chain ~stages:8 ();
  ]

let check_equivalent mode_name mode scenario_name spec =
  let inc = ok (Engine.analyse ~mode ~incremental:true spec) in
  let full = ok (Engine.analyse ~mode ~incremental:false spec) in
  let label what =
    Printf.sprintf "%s/%s: %s" scenario_name mode_name what
  in
  Alcotest.(check (list element_outcome))
    (label "outcomes") full.Engine.outcomes inc.Engine.outcomes;
  Alcotest.(check bool)
    (label "converged") full.Engine.converged inc.Engine.converged;
  Alcotest.(check int)
    (label "iterations") full.Engine.iterations inc.Engine.iterations;
  inc

let test_modes_equivalent () =
  List.iter
    (fun (scenario_name, spec) ->
      List.iter
        (fun (mode_name, mode) ->
          ignore (check_equivalent mode_name mode scenario_name spec))
        modes)
    scenarios

let test_reuse_happens () =
  (* The paper system needs several global iterations; with dependency
     tracking, later iterations must skip untouched resources and keep
     most derived streams. *)
  let inc =
    check_equivalent "hierarchical" Engine.Hierarchical "paper"
      (Scenarios.Paper_system.spec ())
  in
  Alcotest.(check bool) "iterates more than once" true (inc.iterations > 1);
  Alcotest.(check bool)
    "some local analyses were reused" true
    (inc.Engine.stats.resources_reused > 0);
  let total = inc.stats.resources_analysed + inc.stats.resources_reused in
  let resources = List.length inc.spec.Cpa_system.Spec.resources in
  Alcotest.(check int)
    "every resource visited every iteration" (resources * inc.iterations)
    total

let test_non_incremental_never_reuses () =
  let full =
    ok
      (Engine.analyse ~incremental:false
         (Scenarios.Paper_system.spec ()))
  in
  Alcotest.(check int) "no reuse" 0 full.Engine.stats.resources_reused;
  Alcotest.(check int) "no invalidation bookkeeping" 0
    full.stats.streams_invalidated

(* A warm flat-SEM session shares one fitted SEM stream per frame among
   the frame's receivers.  After an edit to a source packed into a frame
   and after repacks — the second reuses the first's frame names for a
   different signal grouping, so only invalidation by key can tell the
   old fit from the new — warm updates must equal a cold analysis. *)
let test_warm_flat_sem_matches_cold () =
  let module Space = Explore.Space in
  let render (r : Engine.result) =
    Engine.status_name r.Engine.status
    :: List.map
         (fun (o : Engine.element_outcome) ->
           Format.asprintf "%s@%s=%a" o.element o.resource
             Busy_window.pp_outcome o.outcome)
         r.Engine.outcomes
  in
  let spec = Scenarios.Paper_system.spec () in
  let w, _ = ok (Engine.warm ~mode:Engine.Flat_sem spec) in
  let repack groups =
    Space.Repack { bus = "CAN"; groups; bits_per_signal = 8; bit_time = 1 }
  in
  ignore
    (List.fold_left
       (fun before edit ->
         let after = Space.apply before edit in
         let sources, elements = Space.touched before edit in
         let stale =
           List.sort_uniq String.compare
             (Engine.affected before ~sources ~elements
             @ Engine.affected after ~sources ~elements)
         in
         let warm = ok (Engine.warm_update w ~spec:after ~stale) in
         let cold = ok (Engine.analyse ~mode:Engine.Flat_sem after) in
         Alcotest.(check (list string))
           (Space.edit_label edit ^ ": warm = cold")
           (render cold) (render warm);
         after)
       spec
       [
         Space.Source_period { source = "S1"; period = 300 };
         repack [ [ "sig1"; "sig3" ]; [ "sig2"; "sig4" ] ];
         repack [ [ "sig1"; "sig2" ]; [ "sig3"; "sig4" ] ];
         Space.Source_period { source = "S2"; period = 400 };
       ])

let () =
  Alcotest.run "engine_incremental"
    [
      ( "equivalence",
        [
          Alcotest.test_case "all modes, all scenarios" `Quick
            test_modes_equivalent;
        ] );
      ( "incrementality",
        [
          Alcotest.test_case "reuses unchanged resources" `Quick
            test_reuse_happens;
          Alcotest.test_case "non-incremental baseline" `Quick
            test_non_incremental_never_reuses;
          Alcotest.test_case "warm flat_sem edits = cold" `Quick
            test_warm_flat_sem_matches_cold;
        ] );
    ]
