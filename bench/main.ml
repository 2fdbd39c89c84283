(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (section 6) plus the ablation and scaling experiments listed
   in DESIGN.md, and the two deterministic bound tables BENCH_9.json and
   BENCH_10.json.  Timing lives in perfbench/ (see perfbench/README.md);
   nothing here reads a clock.

   Usage:
     dune exec bench/main.exe            # all tables, figures, ablations
     dune exec bench/main.exe -- table3  # a single experiment
     dune exec bench/main.exe -- propagation # per-mode tightness table (BENCH_9.json)
     dune exec bench/main.exe -- hybrid  # rtc/cpa/mixed backend table (BENCH_10.json)
   Experiments: tables table3 figure4 ablation-pending ablation-k scaling
   convergence baseline-models buffers cross-framework robustness validate
   propagation hybrid
   (propagation and hybrid rewrite the BENCH files in the cwd and are
   excluded from the no-argument sweep) *)

module Time = Timebase.Time
module Count = Timebase.Count
module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine
module Report = Cpa_system.Report
module Paper = Scenarios.Paper_system

let banner title =
  Printf.printf "\n=== %s ===\n" title

let ok = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "analysis failed: %s\n" (Guard.Error.to_string e);
    exit 1

let analyse_paper mode = ok (Engine.analyse ~mode (Paper.spec ()))

(* ------------------------------------------------------------------ *)
(* E1/E2: Tables 1 and 2 — system parameters and bus analysis          *)

let tables () =
  banner "Table 1: Sources";
  Printf.printf "%-8s %-8s %s\n" "Source" "Period" "Type";
  List.iter
    (fun (name, period, kind) -> Printf.printf "%-8s %-8d %s\n" name period kind)
    [
      "S1", 250, "triggering";
      "S2", 450, "triggering";
      "S3", Paper.s3_period, "pending (period assumed, see DESIGN.md)";
      "S4", 400, "triggering";
    ];
  banner "Table 2: Bus (CAN - scheduled)";
  Printf.printf "%-8s %-14s %s\n" "Frame" "Payload size" "Priority";
  Printf.printf "%-8s %-14s %s\n" "F1" "[4:4]" "High";
  Printf.printf "%-8s %-14s %s\n" "F2" "[2:2]" "Low";
  let hem = analyse_paper Engine.Hierarchical in
  Printf.printf "\nDerived bus responses (both analysis modes agree):\n";
  List.iter
    (fun frame ->
      match Engine.response hem frame with
      | Some r -> Printf.printf "  %-4s R = %s\n" frame (Interval.to_string r)
      | None -> Printf.printf "  %-4s unbounded\n" frame)
    Paper.frames

(* ------------------------------------------------------------------ *)
(* E3: Table 3 — CPU worst-case response times, flat vs hierarchical   *)

let table3 () =
  banner "Table 3: CPU (SPP - scheduled), WCRT flat vs hierarchical";
  let flat, hem = ok (Paper.analyse_both ()) in
  Printf.printf "%-6s %-8s %-6s %10s %10s %8s\n" "Task" "CET" "Prio"
    "R+ flat" "R+ HEM" "Red.";
  let cets = [ "T1", "[24:24]", "High"; "T2", "[32:32]", "Med";
               "T3", "[40:40]", "Low" ] in
  List.iter2
    (fun (row : Report.comparison_row) (name, cet, prio) ->
      let hi = function
        | Some i -> string_of_int (Interval.hi i)
        | None -> "-"
      in
      let red =
        match row.reduction_pct with
        | Some p -> Printf.sprintf "%.1f%%" p
        | None -> "-"
      in
      Printf.printf "%-6s %-8s %-6s %10s %10s %8s\n" name cet prio
        (hi row.baseline) (hi row.improved) red)
    (Report.compare_results ~baseline:flat ~improved:hem ~names:Paper.cpu_tasks)
    cets;
  Printf.printf
    "(flat = standard event models, the paper's baseline; iterations: flat %d, hem %d)\n"
    flat.Engine.iterations hem.Engine.iterations

(* ------------------------------------------------------------------ *)
(* E4: Figure 4 — eta+ of frame F1 and the unpacked T1-T3 activations  *)

let figure4 () =
  banner "Figure 4: eta+ of F1 output and unpacked T1-T3 input streams";
  let hem = analyse_paper Engine.Hierarchical in
  let frame_out = hem.Engine.resolve (Spec.From_frame "F1") in
  let unpacked signal =
    hem.Engine.resolve (Spec.From_signal { frame = "F1"; signal })
  in
  let streams =
    [ "F1", frame_out;
      "T1", unpacked "sig1"; "T2", unpacked "sig2"; "T3", unpacked "sig3" ]
  in
  Printf.printf "%-8s" "dt";
  List.iter (fun (name, _) -> Printf.printf "%8s" name) streams;
  print_newline ();
  let rec dts t acc = if t > 2500 then List.rev acc else dts (t + 125) (t :: acc) in
  List.iter
    (fun dt ->
      Printf.printf "%-8d" dt;
      List.iter
        (fun (_, s) -> Printf.printf "%8s" (Count.to_string (Stream.eta_plus s dt)))
        streams;
      print_newline ())
    (dts 125 [])

(* ------------------------------------------------------------------ *)
(* A1: ablation — pending-signal period sweep                          *)

let ablation_pending () =
  banner "A1: pending source period sweep (T3 WCRT, flat vs HEM)";
  Printf.printf "%-12s %10s %10s %8s\n" "S3 period" "R+ flat" "R+ HEM" "Red.";
  List.iter
    (fun period ->
      let flat, hem = ok (Paper.analyse_both ~s3_period:period ()) in
      match Engine.response flat "T3", Engine.response hem "T3" with
      | Some f, Some h ->
        Printf.printf "%-12d %10d %10d %7.1f%%\n" period (Interval.hi f)
          (Interval.hi h)
          (100.0
          *. float_of_int (Interval.hi f - Interval.hi h)
          /. float_of_int (Interval.hi f))
      | _ -> Printf.printf "%-12d unbounded\n" period)
    [ 250; 500; 1000; 2000; 4000 ]

(* ------------------------------------------------------------------ *)
(* A2: ablation — the simultaneity term (k-1) r- of Definition 9       *)

let ablation_k () =
  banner "A2: inner-update simultaneity term (Def. 9)";
  let pre = (analyse_paper Engine.Hierarchical).Engine.pre_bus_hierarchy "F1" in
  let response = Interval.make ~lo:4 ~hi:10 in
  let k_true = Hem.Inner_update.simultaneity (Hem.Model.outer pre) in
  let with_k k =
    Hem.Deconstruct.unpack_label
      (Hem.Inner_update.apply_response ~simultaneity:k ~response pre)
      "sig1"
  in
  let sound = with_k k_true in
  let ablated = with_k 1 in
  Printf.printf
    "computed k = %d; delta_min of unpacked sig1 with the term vs without:\n"
    k_true;
  Printf.printf "%-6s %12s %14s\n" "n" "with (k=2)" "ablated (k=1)";
  List.iter
    (fun n ->
      Printf.printf "%-6d %12s %14s\n" n
        (Time.to_string (Stream.delta_min sound n))
        (Time.to_string (Stream.delta_min ablated n)))
    [ 2; 3; 4; 5; 8 ];
  Printf.printf
    "(dropping the term is optimistic: it ignores serialization behind\n\
    \ simultaneously packed frames)\n"

(* ------------------------------------------------------------------ *)
(* A3: scaling — signals per frame                                     *)

let scaling () =
  banner "A3: signals per frame vs analysis gap (lowest-priority receiver)";
  Printf.printf "%-9s %10s %10s %8s %6s\n" "signals" "R+ flat" "R+ HEM" "Red."
    "iters";
  List.iter
    (fun n ->
      let spec = Scenarios.Synthetic.fan_in ~signals:n () in
      let flat = ok (Engine.analyse ~mode:Engine.Flat_sem spec) in
      let hem = ok (Engine.analyse ~mode:Engine.Hierarchical spec) in
      let last = Printf.sprintf "T%d" n in
      match Engine.response flat last, Engine.response hem last with
      | Some f, Some h ->
        Printf.printf "%-9d %10d %10d %7.1f%% %6d\n" n (Interval.hi f)
          (Interval.hi h)
          (100.0
          *. float_of_int (Interval.hi f - Interval.hi h)
          /. float_of_int (Interval.hi f))
          hem.Engine.iterations
      | _ -> Printf.printf "%-9d flat overloaded\n" n)
    [ 2; 3; 4; 5; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* A4: global fixed-point convergence                                  *)

let convergence () =
  banner "A4: global iteration counts";
  Printf.printf "%-28s %8s %8s %6s\n" "system" "elements" "iters" "conv";
  let row label spec mode =
    match Engine.analyse ~mode spec with
    | Ok result ->
      Printf.printf "%-28s %8d %8d %6b\n" label
        (List.length result.Engine.outcomes)
        result.Engine.iterations result.Engine.converged
    | Error e ->
      Printf.printf "%-28s error: %s\n" label (Guard.Error.to_string e)
  in
  List.iter
    (fun stages ->
      row
        (Printf.sprintf "pipeline chain (%d stages)" stages)
        (Scenarios.Synthetic.chain ~stages ())
        Engine.Hierarchical)
    [ 2; 4; 8; 12 ];
  row "paper system (flat)" (Paper.spec ()) Engine.Flat_sem;
  row "paper system (hem)" (Paper.spec ()) Engine.Hierarchical;
  row "two-hop gateway (flat)" (Scenarios.Gateway.spec ()) Engine.Flat_sem;
  row "two-hop gateway (hem)" (Scenarios.Gateway.spec ()) Engine.Hierarchical;
  row "avionics full stack" (Scenarios.Avionics.spec ()) Engine.Hierarchical

(* ------------------------------------------------------------------ *)
(* B1: accuracy of the related-work single-stream models               *)

let baseline_models () =
  banner "B1: single-stream model accuracy (related work [1], [4])";
  (* an irregular CAN-like burst: three events at offsets 0, 5, 100,
     repeating every 1000 *)
  let seq =
    Baselines.Event_sequence.make ~outer_period:1000
      ~inner_offsets:[ 0; 5; 100 ] ()
  in
  let exact = Baselines.Event_sequence.to_stream seq in
  let vector =
    Baselines.Event_vector.make
      [
        { Baselines.Event_vector.offset = 0; cycle = Time.of_int 1000 };
        { Baselines.Event_vector.offset = 5; cycle = Time.of_int 1000 };
        { Baselines.Event_vector.offset = 100; cycle = Time.of_int 1000 };
      ]
  in
  let sem =
    Event_model.Sem.to_stream (Baselines.Event_sequence.sem_approximation seq)
  in
  Printf.printf
    "eta+ bounds for the pattern {0, 5, 100} @ 1000 (lower = tighter):\n";
  Printf.printf "%-8s %12s %14s %12s\n" "dt" "hier. seq." "event vector" "SEM fit";
  List.iter
    (fun dt ->
      Printf.printf "%-8d %12s %14d %12s\n" dt
        (Count.to_string (Stream.eta_plus exact dt))
        (Baselines.Event_vector.eta_plus vector dt)
        (Count.to_string (Stream.eta_plus sem dt)))
    [ 6; 50; 101; 500; 1000; 1500; 2000 ];
  Printf.printf
    "(hierarchical sequences and event vectors describe the single stream\n\
    \ exactly; the standard event model over-approximates — but only the\n\
    \ paper's hierarchical event models keep *combined* streams separable)\n"

(* ------------------------------------------------------------------ *)
(* B2: activation buffer bounds (extension)                            *)

let buffers () =
  banner "B2: activation queue bounds vs simulation (paper system)";
  let f1_act =
    Event_model.Combine.or_combine
      [
        Stream.periodic ~name:"S1" ~period:250;
        Stream.periodic ~name:"S2" ~period:450;
      ]
  in
  let f1 =
    Scheduling.Rt_task.make ~name:"F1" ~cet:(Interval.point 4) ~priority:1
      ~activation:f1_act
  in
  let f2 =
    Scheduling.Rt_task.make ~name:"F2" ~cet:(Interval.point 2) ~priority:2
      ~activation:(Stream.periodic ~name:"S4" ~period:400)
  in
  let bound task others =
    match Scheduling.Spnp.backlog_bound ~task ~others () with
    | Ok depth -> string_of_int depth
    | Error e -> e
  in
  let spec = Paper.spec () in
  let generators =
    [
      "S1", Des.Gen.periodic ~period:250 ();
      "S2", Des.Gen.periodic ~period:450 ();
      "S3", Des.Gen.periodic ~period:Paper.s3_period ();
      "S4", Des.Gen.periodic ~period:400 ();
    ]
  in
  match Des.Simulator.run ~generators ~horizon:1_000_000 spec with
  | Error e -> Printf.printf "simulation failed: %s\n" e
  | Ok trace ->
    Printf.printf "%-6s %14s %14s\n" "elem" "queue bound" "observed max";
    let observed name =
      match Des.Trace.max_queue_depth trace name with
      | Some d -> string_of_int d
      | None -> "-"
    in
    Printf.printf "%-6s %14s %14s\n" "F1" (bound f1 [ f2 ]) (observed "F1");
    Printf.printf "%-6s %14s %14s\n" "F2" (bound f2 [ f1 ]) (observed "F2")

(* ------------------------------------------------------------------ *)
(* B3: cross-framework comparison — busy window vs real-time calculus   *)

let cross_framework () =
  banner "B3: busy-window CPA vs real-time calculus (SPP CPU of Table 3)";
  (* the CPU side of the paper's system, with the hierarchical activation
     streams, analysed by both frameworks *)
  let hem = analyse_paper Engine.Hierarchical in
  let unpacked signal =
    hem.Engine.resolve (Spec.From_signal { frame = "F1"; signal })
  in
  let horizon = 4000 in
  let tasks =
    [ "T1", "sig1", 24; "T2", "sig2", 32; "T3", "sig3", 40 ]
  in
  let rtc_results =
    Rtc.Gpc.fixed_priority_chain
      ~service:(Rtc.Workload.service_full ~horizon)
      (List.map
         (fun (name, signal, wcet) ->
           {
             Rtc.Gpc.name;
             arrival_upper =
               Rtc.Workload.arrival_upper ~horizon ~wcet (unpacked signal);
           })
         tasks)
  in
  Printf.printf "%-6s %18s %12s %12s\n" "task" "busy window R+" "RTC delay"
    "RTC backlog";
  List.iter
    (fun (name, _, _) ->
      let bw =
        match Engine.response hem name with
        | Some r -> string_of_int (Interval.hi r)
        | None -> "-"
      in
      let result = List.assoc name rtc_results in
      let delay =
        match result.Rtc.Gpc.delay with
        | Some d -> string_of_int d
        | None -> "unbounded"
      in
      Printf.printf "%-6s %18s %12s %12s\n" name bw delay
        (match result.Rtc.Gpc.backlog with
         | Some b -> string_of_int b
         | None -> "unbounded"))
    tasks;
  Printf.printf
    "(both frameworks bound the same system; small differences stem from\n\
    \ the numeric curve horizon and the remaining-service abstraction)\n"

(* ------------------------------------------------------------------ *)
(* R1: robustness — transfer properties under frame loss               *)

let robustness () =
  banner "R1: signal delivery under injected frame loss (500k units)";
  let spec = Paper.spec () in
  let generators =
    [
      "S1", Des.Gen.periodic ~period:250 ();
      "S2", Des.Gen.periodic ~period:450 ();
      "S3", Des.Gen.periodic ~period:Paper.s3_period ();
      "S4", Des.Gen.periodic ~period:400 ();
    ]
  in
  Printf.printf "%-8s %14s %14s %16s\n" "loss" "sig1 (trig.)" "sig3 (pend.)"
    "max sig3 gap";
  List.iter
    (fun loss ->
      match
        Des.Simulator.run ~frame_loss_percent:loss ~generators
          ~horizon:500_000 spec
      with
      | Error e -> Printf.printf "%-8d %s\n" loss e
      | Ok trace ->
        let deliveries signal =
          List.length
            (Des.Trace.arrivals trace (Des.Port.signal ~frame:"F1" ~signal))
        in
        let max_gap =
          let times =
            Des.Trace.arrivals trace (Des.Port.signal ~frame:"F1" ~signal:"sig3")
          in
          let rec scan acc = function
            | a :: (b :: _ as rest) -> scan (Stdlib.max acc (b - a)) rest
            | [ _ ] | [] -> acc
          in
          scan 0 times
        in
        Printf.printf "%-7d%% %14d %14d %16d\n" loss (deliveries "sig1")
          (deliveries "sig3") max_gap)
    [ 0; 10; 30; 50 ];
  Printf.printf
    "(triggering events die with their frame; pending values are re-sent\n\
    \ with the next transmission — the transfer-property semantics of the\n\
    \ COM layer under faults)\n"

(* ------------------------------------------------------------------ *)
(* V1: simulation cross-check                                          *)

let validate () =
  banner "V1: simulation vs analysis (paper system)";
  let spec = Paper.spec () in
  let hem = analyse_paper Engine.Hierarchical in
  let generators =
    [
      "S1", Des.Gen.periodic ~period:250 ();
      "S2", Des.Gen.periodic ~period:450 ();
      "S3", Des.Gen.periodic ~period:Paper.s3_period ();
      "S4", Des.Gen.periodic ~period:400 ();
    ]
  in
  match Des.Simulator.run ~generators ~horizon:1_000_000 spec with
  | Error e -> Printf.printf "simulation failed: %s\n" e
  | Ok trace ->
    Printf.printf "%-6s %12s %12s %6s\n" "elem" "observed R+" "bound R+" "ok";
    List.iter
      (fun name ->
        match Des.Trace.worst_response trace name, Engine.response hem name with
        | Some obs, Some bound ->
          Printf.printf "%-6s %12d %12d %6s\n" name obs (Interval.hi bound)
            (if obs <= Interval.hi bound then "yes" else "NO")
        | _ -> Printf.printf "%-6s (no data)\n" name)
      ("F1" :: "F2" :: Paper.cpu_tasks)

(* ------------------------------------------------------------------ *)
(* propagation: per-mode output-model tightness table (BENCH_9.json)   *)

module Prop = Event_model.Propagation

(* Force one propagation mode on the whole system: spec-wide default
   set, per-task overrides cleared — the same normalisation the
   propagation oracle applies. *)
let forced_propagation mode (spec : Spec.t) =
  let spec =
    {
      spec with
      Spec.tasks =
        List.map
          (fun (t : Spec.task) -> { t with Spec.propagation = None })
          spec.Spec.tasks;
    }
  in
  Spec.with_propagation mode spec

let propagation_bench () =
  banner "propagation: per-mode output-model tightness (BENCH_9.json)";
  let systems =
    [
      "paper", Paper.spec ();
      "gateway", Scenarios.Gateway.spec ();
      "avionics", Scenarios.Avionics.spec ();
      "fan_in_8", Scenarios.Synthetic.fan_in ~signals:8 ();
      "chain_12", Scenarios.Synthetic.chain ~stages:12 ();
      "network_8", Scenarios.Synthetic.network ();
    ]
  in
  let hi_map (r : Engine.result) =
    List.map
      (fun (o : Engine.element_outcome) ->
        ( o.Engine.element,
          match o.Engine.outcome with
          | Scheduling.Busy_window.Bounded i -> Some (Interval.hi i)
          | Scheduling.Busy_window.Unbounded _ -> None ))
      r.Engine.outcomes
  in
  let mode_names = List.map Prop.mode_name Prop.all_modes in
  Printf.printf "%-12s %10s" "system" "flat";
  List.iter (fun m -> Printf.printf " %13s" m) mode_names;
  Printf.printf "   (sum of bounded R+ over elements)\n";
  let violations = ref 0 in
  let rows =
    List.map
      (fun (name, spec) ->
        let flat =
          ok (Engine.analyse ~mode:Engine.Flat_sem ~incremental:false spec)
        in
        let per_mode =
          List.map
            (fun m ->
              ( m,
                hi_map
                  (ok
                     (Engine.analyse ~mode:Engine.Hierarchical
                        ~incremental:false (forced_propagation m spec))) ))
            Prop.all_modes
        in
        let theta = List.assoc Prop.Theta_tau per_mode in
        let optimal = List.assoc Prop.Optimal per_mode in
        (* optimal must be pointwise at least as tight as every mode *)
        List.iter
          (fun (m, hs) ->
            List.iter
              (fun (element, h) ->
                match List.assoc_opt element optimal, h with
                | Some (Some o), Some h when o > h ->
                  incr violations;
                  Printf.eprintf
                    "%s/%s: optimal %d looser than %s %d\n" name element o
                    (Prop.mode_name m) h
                | Some None, Some h ->
                  incr violations;
                  Printf.eprintf
                    "%s/%s: optimal unbounded, %s bounded at %d\n" name
                    element (Prop.mode_name m) h
                | _ -> ())
              hs)
          per_mode;
        let strict =
          List.exists
            (fun (element, o) ->
              match o, List.assoc_opt element theta with
              | Some o, Some (Some t) -> o < t
              | _ -> false)
            optimal
        in
        let total hs =
          List.fold_left
            (fun acc (_, h) -> match h with Some h -> acc + h | None -> acc)
            0 hs
        in
        Printf.printf "%-12s %10d" name (total (hi_map flat));
        List.iter
          (fun (_, hs) -> Printf.printf " %13d" (total hs))
          per_mode;
        Printf.printf "%s\n" (if strict then "   < theta_tau" else "");
        name, hi_map flat, per_mode, strict)
      systems
  in
  let strict_wins =
    List.filter_map (fun (n, _, _, s) -> if s then Some n else None) rows
  in
  if !violations > 0 then begin
    Printf.eprintf "propagation: %d pointwise-dominance violations\n"
      !violations;
    exit 1
  end;
  if strict_wins = [] then begin
    Printf.eprintf
      "propagation: optimal never strictly tighter than theta_tau\n";
    exit 1
  end;
  Printf.printf "(optimal pointwise <= every mode; strictly tighter than \
                 theta_tau on: %s)\n"
    (String.concat ", " strict_wins);
  let oc = open_out "BENCH_9.json" in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "{\n  \"benchmark\": \"output-model propagation tightness\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"modes\": [%s],\n"
       (String.concat ", "
          (List.map (fun m -> Printf.sprintf "%S" m) mode_names)));
  Buffer.add_string buf "  \"systems\": [\n";
  let render_hi = function Some h -> string_of_int h | None -> "null" in
  List.iteri
    (fun i (name, flat, per_mode, strict) ->
      let elements = List.map fst flat in
      Buffer.add_string buf (Printf.sprintf "    {\"name\": %S,\n" name);
      Buffer.add_string buf "     \"elements\": [\n";
      List.iteri
        (fun j element ->
          Buffer.add_string buf
            (Printf.sprintf "       {\"element\": %S, \"flat\": %s%s}%s\n"
               element
               (render_hi (Option.join (List.assoc_opt element flat)))
               (String.concat ""
                  (List.map
                     (fun (m, hs) ->
                       Printf.sprintf ", %S: %s" (Prop.mode_name m)
                         (render_hi (Option.join (List.assoc_opt element hs))))
                     per_mode))
               (if j = List.length elements - 1 then "" else ",")))
        elements;
      Buffer.add_string buf "     ],\n";
      Buffer.add_string buf
        (Printf.sprintf
           "     \"optimal_pointwise_le\": true, \
            \"optimal_strictly_tighter_than_theta\": %b}%s\n"
           strict
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"strict_win_systems\": [%s]\n}\n"
       (String.concat ", "
          (List.map (fun n -> Printf.sprintf "%S" n) strict_wins)));
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_9.json\n"

(* ------------------------------------------------------------------ *)
(* hybrid: rtc vs cpa vs mixed backend tightness (BENCH_10.json)      *)

(* Force every resource onto one local-analysis backend; EDF resources
   stay on [Cpa] (no RTC service model for dynamic deadlines, and
   [Spec.validate] rejects the combination). *)
let forced_backend b (spec : Spec.t) =
  {
    spec with
    Spec.resources =
      List.map
        (fun (r : Spec.resource) ->
          if r.Spec.scheduler = Spec.Edf then { r with Spec.backend = Spec.Cpa }
          else { r with Spec.backend = b })
        spec.Spec.resources;
  }

(* Alternate backends resource by resource, so every multi-resource
   system carries at least one RTC and one CPA resource in one graph —
   the coupling the hybrid fixed point has to route curves across. *)
let mixed_backend (spec : Spec.t) =
  {
    spec with
    Spec.resources =
      List.mapi
        (fun i (r : Spec.resource) ->
          if r.Spec.scheduler = Spec.Edf || i mod 2 = 1 then
            { r with Spec.backend = Spec.Cpa }
          else { r with Spec.backend = Spec.Rtc })
        spec.Spec.resources;
  }

let hybrid_bench () =
  banner "hybrid: rtc vs cpa vs mixed backends (BENCH_10.json)";
  let systems =
    [
      "paper", Paper.spec ();
      "gateway", Scenarios.Gateway.spec ();
      "avionics", Scenarios.Avionics.spec ();
      "fan_in_8", Scenarios.Synthetic.fan_in ~signals:8 ();
      "chain_12", Scenarios.Synthetic.chain ~stages:12 ();
      "network_8", Scenarios.Synthetic.network ();
    ]
  in
  let backends =
    [
      "cpa", forced_backend Spec.Cpa;
      "rtc", forced_backend Spec.Rtc;
      "mixed", mixed_backend;
    ]
  in
  let hi_map (r : Engine.result) =
    List.map
      (fun (o : Engine.element_outcome) ->
        ( o.Engine.element,
          match o.Engine.outcome with
          | Scheduling.Busy_window.Bounded i -> Some (Interval.hi i)
          | Scheduling.Busy_window.Unbounded _ -> None ))
      r.Engine.outcomes
  in
  Printf.printf "%-12s %8s %12s %10s\n" "system" "backend" "sum R+"
    "bounded";
  let rows =
    List.map
      (fun (name, spec) ->
        let per_backend =
          List.map
            (fun (bname, force) ->
              let r =
                ok
                  (Engine.analyse ~mode:Engine.Hierarchical ~incremental:false
                     (force spec))
              in
              let hs = hi_map r in
              let bounded =
                List.length (List.filter (fun (_, h) -> h <> None) hs)
              in
              let sum =
                List.fold_left
                  (fun acc (_, h) ->
                    match h with Some h -> acc + h | None -> acc)
                  0 hs
              in
              Printf.printf "%-12s %8s %12d %7d/%-2d\n" name bname sum
                bounded (List.length hs);
              bname, hs, bounded, sum, Engine.status_name r.Engine.status)
            backends
        in
        name, per_backend)
      systems
  in
  (* Boundedness drift report: an element bounded under pure CPA may
     legitimately go unbounded under the conservative curve backend
     (long chains accumulate conversion jitter until the in-horizon
     arrival estimate exceeds the certified service rate), but the count
     is recorded so a regression in the conversion layer shows up as a
     jump here. *)
  let unbounded_regressions = ref 0 in
  List.iter
    (fun (name, per_backend) ->
      let find b =
        let _, hs, _, _, _ =
          List.find (fun (n, _, _, _, _) -> n = b) per_backend
        in
        hs
      in
      let cpa = find "cpa" in
      List.iter
        (fun b ->
          List.iter
            (fun (element, h) ->
              match h, List.assoc_opt element (find b) with
              | Some _, Some None ->
                incr unbounded_regressions;
                Printf.eprintf "%s/%s: bounded under cpa, unbounded under %s\n"
                  name element b
              | _ -> ())
            cpa)
        [ "rtc"; "mixed" ])
    rows;
  if !unbounded_regressions > 0 then
    Printf.printf "(%d element(s) bounded under cpa lose boundedness on the \
                   curve backend)\n"
      !unbounded_regressions;
  (* pure-backend agreement on the paper system: the reference system is
     jitter-free periodic with point execution intervals, where the RTC
     fixed-priority service chain and the CPA busy window are the same
     recurrence — per-element worst-case bounds must be equal *)
  let paper_backends = List.assoc "paper" rows in
  let paper_hs b =
    let _, hs, _, _, _ =
      List.find (fun (n, _, _, _, _) -> n = b) paper_backends
    in
    hs
  in
  let pure_agreement =
    List.for_all
      (fun (element, cpa) -> List.assoc_opt element (paper_hs "rtc") = Some cpa)
      (paper_hs "cpa")
  in
  if not pure_agreement then begin
    Printf.eprintf "hybrid: rtc and cpa bounds differ on the paper system\n";
    exit 1
  end;
  (* one DES trace of the paper system (backend-independent): every
     backend's analytic bounds must dominate the observed responses *)
  let paper_spec = Paper.spec () in
  let generators =
    [
      "S1", Des.Gen.periodic ~period:250 ();
      "S2", Des.Gen.periodic ~period:450 ();
      "S3", Des.Gen.periodic ~period:Paper.s3_period ();
      "S4", Des.Gen.periodic ~period:400 ();
    ]
  in
  let dominance =
    match Des.Simulator.run ~generators ~horizon:1_000_000 paper_spec with
    | Error e ->
      Printf.eprintf "hybrid: simulation failed: %s\n" e;
      exit 1
    | Ok trace ->
      List.map
        (fun (bname, _) ->
          let sound =
            List.for_all
              (fun (element, h) ->
                match h, Des.Trace.worst_response trace element with
                | Some bound, Some observed ->
                  if observed > bound then begin
                    Printf.eprintf "hybrid: %s bound %d below observed %d (%s)\n"
                      element bound observed bname;
                    false
                  end
                  else true
                | _ -> true)
              (paper_hs bname)
          in
          bname, sound)
        backends
  in
  if List.exists (fun (_, sound) -> not sound) dominance then begin
    Printf.eprintf "hybrid: analytic bounds below DES observations\n";
    exit 1
  end;
  Printf.printf
    "(pure rtc = pure cpa on paper; all backends dominate DES over 1e6)\n";
  let oc = open_out "BENCH_10.json" in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "{\n  \"benchmark\": \"hybrid rtc/cpa backend tightness\",\n";
  Buffer.add_string buf "  \"systems\": [\n";
  List.iteri
    (fun i (name, per_backend) ->
      Buffer.add_string buf (Printf.sprintf "    {\"name\": %S,\n" name);
      Buffer.add_string buf "     \"backends\": [\n";
      List.iteri
        (fun j (bname, hs, bounded, sum, status) ->
          Buffer.add_string buf
            (Printf.sprintf
               "       {\"backend\": %S, \"sum_hi\": %d, \"bounded\": %d, \
                \"elements\": %d, \"status\": %S}%s\n"
               bname sum bounded (List.length hs) status
               (if j = List.length per_backend - 1 then "" else ",")))
        per_backend;
      Buffer.add_string buf
        (Printf.sprintf "     ]}%s\n"
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"boundedness_regressions\": %d,\n"
       !unbounded_regressions);
  Buffer.add_string buf
    (Printf.sprintf "  \"paper_pure_agreement\": %b,\n" pure_agreement);
  Buffer.add_string buf
    (Printf.sprintf "  \"paper_dominance\": {%s}\n}\n"
       (String.concat ", "
          (List.map
             (fun (b, sound) -> Printf.sprintf "%S: %b" b sound)
             dominance)));
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_10.json\n"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    "tables", tables;
    "table3", table3;
    "figure4", figure4;
    "ablation-pending", ablation_pending;
    "ablation-k", ablation_k;
    "scaling", scaling;
    "convergence", convergence;
    "baseline-models", baseline_models;
    "buffers", buffers;
    "cross-framework", cross_framework;
    "robustness", robustness;
    "validate", validate;
    "propagation", propagation_bench;
    "hybrid", hybrid_bench;
  ]

let () =
  match Array.to_list Sys.argv with
  | [] | _ :: [] ->
    (* everything except the two table writers, which are opt-in *)
    List.iter
      (fun (name, run) ->
        if name <> "propagation" && name <> "hybrid" then run ())
      experiments
  | _ :: names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some run -> run ()
        | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 2)
      names
