(* Self-tests of the benchmark: seeded inputs, metric names, the
   percentile rule and the error accounting. *)

open Perfbench
module E = Cpa_system.Engine
module Json = Explore.Wire.Json

let root = "../.."

(* ------------------------------------------------------------------ *)
(* Seeded inputs *)

let inputs seed =
  let texts systems = List.map (fun (s : Gen.system) -> s.name ^ "\n" ^ s.text) systems in
  let base = Gen.explore_base seed in
  let variants =
    List.concat_map
      (List.map (fun (v : Explore.Space.variant) ->
         v.label ^ ": " ^ String.concat "," (List.map Explore.Space.edit_label v.edits)))
      (Gen.explore_chunks seed base.desc ~chunks:19 ~large:4)
  in
  let knobs =
    List.concat_map
      (fun (s : Gen.system) ->
        Array.to_list
          (Array.map
             (fun (k : Gen.knob) ->
               Explore.Space.edit_label k.flip ^ "/" ^ Explore.Space.edit_label k.restore)
             (Array.concat (Gen.knob_kinds (Gen.rng seed) s.desc))))
      (Gen.serve_sessions seed)
  in
  String.concat "\n"
    (texts (Gen.cpa_systems seed)
    @ texts (Gen.serve_sessions seed)
    @ texts (Gen.serve_cold seed)
    @ texts [ base ] @ variants @ knobs
    @ Gen.explore_queries seed base.desc)

let test_same_seed () =
  Alcotest.(check string) "seed 7 twice" (inputs 7) (inputs 7);
  Alcotest.(check bool) "seeds 7 and 8 differ" false (String.equal (inputs 7) (inputs 8))

let test_texts_parse () =
  List.iter
    (fun (s : Gen.system) ->
      match Cpa_system.Spec_file.parse s.text with
      | Ok d -> Alcotest.(check bool) (s.name ^ " round trip") true (Cpa_system.Spec_file.equal d s.desc)
      | Error e -> Alcotest.failf "%s: %s" s.name e)
    (Gen.cpa_systems 3 @ Gen.serve_cold 3 @ Gen.serve_sessions 3)

(* ------------------------------------------------------------------ *)
(* Metric names *)

let names_in field =
  let text = In_channel.with_open_bin (Filename.concat root "BENCHMARK.json") In_channel.input_all in
  match Json.of_string text with
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  | Ok j -> begin
    match Json.member field j with
    | Some (Json.Arr items) ->
      List.filter_map (fun m -> Option.bind (Json.member "name" m) Json.to_str) items
    | Some _ | None -> Alcotest.failf "BENCHMARK.json has no %s list" field
  end

let fake_run () =
  { Loop.tally = Stats.tally (); setup_s = 0.5;
    measured =
      { latencies = Array.init 200 float_of_int; rounds = Array.make 200 0; rates = [| 100. |] };
    half = Loop.Slower; traced = None; peak_rss_mb = 10.; bound_sum = 100; unbounded = 1 }

let test_names () =
  let e2e =
    match Loop.end_to_end ~setups:3 (fake_run ()) with
    | Ok ms -> List.map (fun (m : Stats.metric) -> m.name) ms
    | Error e -> Alcotest.fail e
  in
  let layers = List.map (fun (m : Stats.metric) -> m.name) (Loop.layer_metrics (Loop.trace ())) in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " matches [A-Za-z0-9_.-]+") true (Stats.valid_name n))
    (e2e @ layers);
  Alcotest.(check bool) "a space is refused" false (Stats.valid_name "a b");
  Alcotest.(check (list string)) "end_to_end as declared" (names_in "end_to_end") e2e;
  Alcotest.(check (list string)) "per_layer as declared" (names_in "per_layer") layers

(* ------------------------------------------------------------------ *)
(* Percentiles *)

let test_percentile () =
  let samples n = Array.init n (fun i -> float_of_int (n - i)) in
  (match Stats.percentile (samples 99) 90. with
   | Ok v -> Alcotest.failf "p90 of 99 samples accepted (%g)" v
   | Error _ -> ());
  (match Stats.percentile (samples 100) 90. with
   | Ok v -> Alcotest.(check (float 0.)) "p90 of 1..100" 90. v
   | Error e -> Alcotest.fail e);
  (match Stats.percentile (samples 19) 50. with
   | Ok _ -> Alcotest.fail "p50 of 19 samples accepted"
   | Error _ -> ());
  Alcotest.(check bool) "too few ops is an error" true
    (Result.is_error
       (Loop.end_to_end ~setups:3
          { (fake_run ()) with measured = { latencies = Array.make 50 1.; rounds = Array.make 50 0; rates = [| 100. |] } }))

(* One half of the rounds, slower or faster, carries the timing
   metrics. *)
let test_steady () =
  let m =
    { Loop.latencies = [| 1.; 1.; 5.; 5.; 2.; 2.; 9. |];
      rounds = [| 0; 0; 1; 1; 2; 2; -1 |]; rates = [| 100.; 20.; 50. |] }
  in
  let rate, lat = Loop.steady ~half:Loop.Slower m in
  Alcotest.(check (float 0.)) "median rate of the two slower rounds" 35. rate;
  Alcotest.(check (array (float 0.))) "their ops only" [| 5.; 5.; 2.; 2. |] lat;
  let rate, lat = Loop.steady ~half:Loop.Faster m in
  Alcotest.(check (float 0.)) "median rate of the two faster rounds" 75. rate;
  Alcotest.(check (array (float 0.))) "their ops only" [| 1.; 1.; 2.; 2. |] lat

(* ------------------------------------------------------------------ *)
(* Error accounting *)

let paper () =
  match Corpus.library [ "paper", Filename.concat root "examples/paper.spec" ] with
  | [ sys ] -> sys
  | _ -> assert false

(* A short [cpa_corpus]-style run over one item.  [t3_cet] replaces the
   execution time of the paper system's task t3. *)
let paper_run ?t3_cet () =
  let sys = paper () in
  let sys =
    match t3_cet with
    | None -> sys
    | Some c ->
      Gen.system "paper"
        { sys.desc with
          tasks =
            List.map
              (fun (k : Cpa_system.Spec.task) ->
                if k.task_name = "t3" then { k with cet = Timebase.Interval.make ~lo:c ~hi:c } else k)
              sys.desc.tasks }
  in
  Corpus.run
    ~items_of:(fun _ -> [ { Corpus.sys; mode = E.Hierarchical } ])
    ~seed:1 ~seconds:0.2 ~traced:false ~setups:1

(* The paper system with t3 slowed down keeps rendering the same output
   op after op, but its bounds miss the hand-written Table 3, so the
   check after the loop counts every op of the run as failed. *)
let test_wrong_bound () =
  let ok = paper_run () in
  Alcotest.(check bool) "ops ran" true (ok.tally.attempted > 0);
  Alcotest.(check int) "correct bounds pass" 0 ok.tally.failed;
  let bad = paper_run ~t3_cet:41 () in
  Alcotest.(check bool) "ops ran" true (bad.tally.attempted > 0);
  Alcotest.(check int) "every op failed" bad.tally.attempted bad.tally.failed;
  Alcotest.(check (float 0.)) "error rate" 1. (Stats.error_rate bad.tally)

let () =
  Alcotest.run "perfbench"
    [ "inputs",
      [ Alcotest.test_case "same seed, same bytes" `Quick test_same_seed;
        Alcotest.test_case "texts parse back" `Quick test_texts_parse ];
      "metrics", [ Alcotest.test_case "names" `Quick test_names ];
      "percentile",
      [ Alcotest.test_case "ten samples beyond" `Quick test_percentile;
        Alcotest.test_case "slower half of the rounds" `Quick test_steady ];
      "errors", [ Alcotest.test_case "wrong bound counted" `Quick test_wrong_bound ] ]
