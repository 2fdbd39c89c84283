(* The benchmark command:

     main.exe --workload W --seed N --seconds S --trace 0|1 [--bin DIR]

   Runs one workload for S seconds, checks its outputs, prints a
   readable report and, as the last line, one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   [DIR] holds the built executables (bin/hem_tool.exe and the traced
   daemon) for the serve workload. *)

open Perfbench

let workloads = [ "cpa_corpus"; "rtc_mixed"; "serve_session"; "explore_sweep" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (cpa_corpus|rtc_mixed|serve_session|explore_sweep) --seed N \
     --seconds S --trace 0|1 [--bin DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let bin = ref "_build/default" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := (t = "1"); parse rest
    | "--bin" :: d :: rest -> bin := d; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) || !seconds <= 0. then usage ();
  let seed = !seed and seconds = !seconds and traced = !trace in
  (* several set-ups per run; the reported set-up time is their median.
     The serve set-up is the shortest (~40 ms: a process start, loads
     and a few requests) and the noisiest, so it is repeated most. *)
  let setups = if !workload = "serve_session" then 9 else 5 in
  let run =
    match !workload with
    | "cpa_corpus" -> Corpus.run ~items_of:Corpus.cpa_items ~seed ~seconds ~traced ~setups
    | "rtc_mixed" -> Corpus.run ~items_of:Corpus.rtc_items ~seed ~seconds ~traced ~setups
    | "serve_session" -> Serve_load.run ~bin:!bin ~seed ~seconds ~traced ~setups
    | _ -> Sweep.run ~seed ~seconds ~traced ~setups
  in
  Printf.printf "workload %s seed %d seconds %g trace %d\n" !workload seed seconds
    (if traced then 1 else 0);
  Printf.printf "machine %s\n" (Stats.machine ());
  let e2e =
    match Loop.end_to_end ~setups run with
    | Ok metrics -> metrics
    | Error e ->
      (* a traced run reports layer metrics only; its shorter untraced
         phase need not support a tail percentile *)
      if traced then []
      else begin
        Printf.eprintf "%s: %s\n" !workload e;
        exit 1
      end
  in
  List.iter
    (fun (m : Stats.metric) ->
      Printf.printf "metric %-20s %14.6f %-6s (n=%d)\n" m.name m.value m.unit m.samples)
    e2e;
  (let r = run.measured.rates in
   let q p = match Stats.percentile ~min_beyond:0 r p with Ok v -> v | Error _ -> nan in
   Printf.printf "rounds %d: ops/s q1 %.3f median %.3f q3 %.3f min %.3f max %.3f\n" (Array.length r)
     (q 25.) (q 50.) (q 75.) (q 0.) (q 100.));
  Printf.printf "error_rate %.6f (%d failed of %d attempted)\n" (Stats.error_rate run.tally)
    run.tally.failed run.tally.attempted;
  List.iter (fun n -> Printf.printf "failure: %s\n" n) (List.rev run.tally.notes);
  let metrics =
    match run.traced with
    | None -> e2e
    | Some (m, tr) ->
      let rows = Loop.close_spans tr in
      Printf.printf "traced ops %d\n" tr.ops;
      Printf.printf "spans (ms total, self = total minus children):\n";
      let covered = Loop.sum tr "trace.covered_ms" and op_ms = Loop.sum tr "op_ms" in
      List.iter
        (fun (name, total) ->
          Printf.printf "  %-28s %12.3f%s\n" name total
            (if name = "op" then Printf.sprintf "  self %.3f" (op_ms -. covered) else ""))
        rows;
      Printf.printf "outside-phase coverage %.4f of op wall\n"
        (if op_ms = 0. then 0. else covered /. op_ms);
      let ops_u, lat = Loop.steady ~half:run.half run.measured in
      let ops_t, lat_t = Loop.steady ~half:run.half m in
      let p50_t = Stats.median lat_t in
      Printf.printf
        "tracing overhead: ops_per_s %.3f untraced vs %.3f traced (%+.2f%%), latency_p50_ms %.4f vs \
         %.4f (%+.2f%%)\n"
        ops_u ops_t (100. *. (ops_t -. ops_u) /. ops_u) (Stats.median lat) p50_t
        (100. *. (p50_t -. Stats.median lat) /. Stats.median lat);
      let layers = Loop.layer_metrics tr in
      List.iter
        (fun (m : Stats.metric) ->
          Printf.printf "layer %-36s %14.6f %s\n" m.name m.value m.unit)
        layers;
      layers
  in
  List.iter
    (fun (m : Stats.metric) ->
      if not (Stats.valid_name m.name) then begin
        Printf.eprintf "invalid metric name %S\n" m.name;
        exit 1
      end)
    metrics;
  print_endline
    (Stats.result_line ~correct:(run.tally.failed = 0) ~attempted:run.tally.attempted
       ~failed:run.tally.failed metrics)
