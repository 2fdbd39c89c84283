(* The closed loop, the benchmark's own spans, per-layer accumulators and
   the sink that reads the engine's existing resource spans. *)

let now () = Unix.gettimeofday ()
let ms_since t0 = (now () -. t0) *. 1e3

(* ------------------------------------------------------------------ *)
(* Growable float samples *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* ------------------------------------------------------------------ *)
(* Closed loop *)

type measured = {
  latencies : float array;  (** per-op wall, ms *)
  rounds : int array;  (** round of each op; -1 outside any complete round *)
  rates : float array;  (** ops/s of each round *)
}

(* Rounds of [cycle] consecutive ops: one pass over a workload's job
   list, so every round has the same mix.  The rate of a round is its op
   count over the sum of its op walls.  A trailing partial round is
   dropped. *)
let cycle_rounds ~cycle lat =
  let n = Array.length lat / cycle in
  let rates =
    Array.init n (fun r ->
      let s = ref 0. in
      for i = r * cycle to (r * cycle) + cycle - 1 do
        s := !s +. lat.(i)
      done;
      float_of_int cycle /. (!s /. 1e3))
  in
  Array.init (Array.length lat) (fun i -> if i / cycle < n then i / cycle else -1), rates

(* The half of a run's rounds its timing metrics are taken over.  On a
   shared machine the load of other tenants comes and goes within a run.

   On one CPU it slows whole stretches of a run, by up to 1.8x on the
   2-core sandbox the bounds were set on.  That load was present for at
   least a quarter of every run measured, so the slower half is the
   steady state; the faster half depends on how long the neighbours
   happened to pause (over eight runs, the median rate of the slower
   half spread 3%, that of the faster half 10%).

   A workload that runs two domains in parallel is hit harder and in
   episodes: while a neighbour holds one of the two CPUs, every pool map
   waits for the domain on it, and the round's rate halves.  Such
   episodes covered 0 to 60% of a run's rounds, so the slower half
   tracked how long they lasted (over ten runs its median rate spread
   25%), while the faster half is the two-CPU rate (12%). *)
type half =
  | Slower
  | Faster

(* The median rate of the [half] of the rounds and the latencies of their
   ops. *)
let steady ~half m =
  let n = Array.length m.rates in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare m.rates.(a) m.rates.(b)) order;
  let keep = Array.make n false in
  for i = 0 to ((n + 1) / 2) - 1 do
    keep.(order.(match half with Slower -> i | Faster -> n - 1 - i)) <- true
  done;
  let rates = List.filter_map (fun r -> if keep.(r) then Some m.rates.(r) else None) (List.init n Fun.id) in
  let lat = samples () in
  Array.iteri (fun i r -> if r >= 0 && keep.(r) then push lat m.latencies.(i)) m.rounds;
  Stats.median (Array.of_list rates), to_array lat

(* Runs [op i] for i = 0, 1, ... until [seconds] have passed; [op]
   returns the wall of its timed part in ms, so work an op does after its
   clock stopped (checks, replays) stays out of the rates. *)
let closed_loop ~seconds ~cycle op =
  let lat = samples () in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let i = ref 0 in
  while now () < deadline do
    push lat (op !i);
    incr i
  done;
  let latencies = to_array lat in
  let rounds, rates = cycle_rounds ~cycle latencies in
  { latencies; rounds; rates }

(* Runs [setup] [n] times; each returns its own duration (s) and state.
   Returns the median duration and the last state, so earlier states are
   garbage before the loop starts. *)
let repeat_setup n setup =
  let times = Array.make n 0. in
  let rec go k =
    let dt, state = setup () in
    times.(k) <- dt;
    if k = n - 1 then state else go (k + 1)
  in
  let state = go 0 in
  Stats.median times, state

(* ------------------------------------------------------------------ *)
(* Spans and layer accumulators *)

(* The benchmark's spans: every op is a root span ["op"] whose children
   are its outside phases.  Spans stay in memory and are folded into
   per-name totals and self times when the run ends. *)
type span = { name : string; op : int; t0 : float; t1 : float }

type trace = {
  mutable spans : span list;
  sums : (string, float) Hashtbl.t;  (** layer metric sums *)
  mutable ops : int;  (** traced ops the sums are over *)
}

let trace () = { spans = []; sums = Hashtbl.create 64; ops = 0 }

let span tr ~op name t0 t1 = tr.spans <- { name; op; t0; t1 } :: tr.spans

let add tr name v =
  Hashtbl.replace tr.sums name (v +. Option.value ~default:0. (Hashtbl.find_opt tr.sums name))

let sum tr name = Option.value ~default:0. (Hashtbl.find_opt tr.sums name)

(* Per-name total duration (ms) and self time: a root's self time is its
   duration minus the part its children cover. *)
let span_table tr =
  let total = Hashtbl.create 16 in
  let bump name v =
    Hashtbl.replace total name (v +. Option.value ~default:0. (Hashtbl.find_opt total name))
  in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let d = (s.t1 -. s.t0) *. 1e3 in
      bump s.name d;
      if s.name <> "op" then
        Hashtbl.replace children s.op (d +. Option.value ~default:0. (Hashtbl.find_opt children s.op)))
    tr.spans;
  let op_total = Option.value ~default:0. (Hashtbl.find_opt total "op") in
  let covered = Hashtbl.fold (fun _ v acc -> acc +. v) children 0. in
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) total [] |> List.sort compare
  in
  rows, op_total, covered

(* ------------------------------------------------------------------ *)
(* Engine resource spans *)

(* The engine already wraps every local analysis in an
   ["engine.resource"] span when a sink is installed.  In traced runs
   this sink adds their durations per resource, so the time charged to
   curve-backend resources can be told apart from busy-window ones. *)
type engine_spans = {
  per_resource : (string, float) Hashtbl.t;  (** ms since last [reset] *)
  mutable open_ : (string * float) list;
}

let engine_spans () = { per_resource = Hashtbl.create 16; open_ = [] }

let install_engine_sink es =
  let resource_of attrs =
    match List.assoc_opt "resource" attrs with
    | Some (Obs.Event.Str r) -> r
    | Some _ | None -> "?"
  in
  Obs.Sink.install ~level:Obs.Sink.Spans
    (Obs.Sink.make (function
      | Obs.Event.Span_begin { name = "engine.resource"; ts; attrs } ->
        es.open_ <- (resource_of attrs, ts) :: es.open_
      | Obs.Event.Span_end { name = "engine.resource"; ts; _ } -> begin
        match es.open_ with
        | (r, t0) :: rest ->
          es.open_ <- rest;
          Hashtbl.replace es.per_resource r
            (((ts -. t0) /. 1e3) +. Option.value ~default:0. (Hashtbl.find_opt es.per_resource r))
        | [] -> ()
      end
      | Obs.Event.Span_begin _ | Obs.Event.Span_end _ | Obs.Event.Instant _
      | Obs.Event.Counter _ -> ()))

let reset_engine_spans es =
  Hashtbl.reset es.per_resource;
  es.open_ <- []

(* ------------------------------------------------------------------ *)
(* Per-layer metrics *)

type kind =
  | Per_op  (** sum over the traced ops, divided by their number *)
  | Total  (** event count over the traced phase *)
  | Ratio of string * string list  (** sum of a key over the sum of keys *)

(* Every workload reports every layer metric; a layer a workload does not
   exercise reads 0.  Sums are filled under the metric's own name unless
   its kind names other keys. *)
let layers =
  let ms = "ms" and per_op = "count/op" and ratio = "ratio" and count = "count" in
  let per_request k = Ratio (k, [ "serve.requests" ]) in
  [ "spec_file.parse_ms", ms, Per_op;
    "spec_file.to_spec_ms", ms, Per_op;
    "engine.analyse_ms", ms, Per_op;
    "engine.iterations", per_op, Per_op;
    "engine.resources_analysed", per_op, Per_op;
    "engine.reuse_ratio", ratio,
    Ratio ("engine.resources_reused", [ "engine.resources_reused"; "engine.resources_analysed" ]);
    "engine.streams_invalidated", per_op, Per_op;
    "scheduling.local_replay_ms", ms, Per_op;
    "scheduling.resource_ms", ms, Per_op;
    "busy_window.windows", per_op, Per_op;
    "busy_window.window_iterations", per_op, Per_op;
    "busy_window.demand_evals", per_op, Per_op;
    "busy_window.demand_probes", per_op, Per_op;
    "event_model.curve.searches", per_op, Per_op;
    "event_model.curve.search_steps", per_op, Per_op;
    "event_model.curve.memo_hit_ratio", ratio,
    Ratio ("curve.memo_hits", [ "curve.memo_hits"; "event_model.curve.closure_evals" ]);
    "event_model.curve.periodic_evals", per_op, Per_op;
    "event_model.curve.closure_evals", per_op, Per_op;
    "event_model.curve.spill_probes", per_op, Per_op;
    "event_model.propagation_replay_ms", ms, Per_op;
    "hem.pack_replay_ms", ms, Per_op;
    "hem.inner_update_replay_ms", ms, Per_op;
    "hem.unpack_replay_ms", ms, Per_op;
    "hybrid.convert_replay_ms", ms, Per_op;
    "hybrid.local_replay_ms", ms, Per_op;
    "rtc.resource_ms", ms, Per_op;
    "rtc.share", ratio, Ratio ("rtc.resource_ms", [ "op_ms" ]);
    "report.render_ms", ms, Per_op;
    "serve.encode_ms", ms, per_request "serve.encode_ms";
    "serve.decode_ms", ms, per_request "serve.decode_ms";
    "serve.rtt_ms", ms, per_request "serve.rtt_ms";
    "serve.service_ms", ms, Ratio ("serve.service_ms", [ "serve.service_count" ]);
    "serve.outside_handler_ms", ms, Ratio ("serve.outside_handler_ms", [ "serve.service_count" ]);
    "serve.cold_load_ms", ms, Ratio ("serve.cold_load_ms", [ "serve.cold_loads" ]);
    "serve.rejected", count, Total;
    "serve.protocol_errors", count, Total;
    "explore.cache.hit_ratio", ratio, Ratio ("explore.cache.hits", [ "explore.cache.lookups" ]);
    "explore.pool.tasks", per_op, Per_op;
    "explore.pool.steals", per_op, Per_op;
    "explore.pool.service.jobs", per_op, Per_op;
    "explore.driver_ms", ms, Per_op;
    "explore.sensitivity_ms", ms, Per_op;
    "guard.trips.cancelled", count, Total;
    "guard.trips.deadline", count, Total;
    "guard.trips.budget", count, Total;
    "engine.degraded", count, Total;
    "trace.coverage", ratio, Ratio ("trace.covered_ms", [ "op_ms" ]) ]

let layer_metrics tr =
  let ops = float_of_int (max 1 tr.ops) in
  List.map
    (fun (name, unit, kind) ->
      let value =
        match kind with
        | Per_op -> sum tr name /. ops
        | Total -> sum tr name
        | Ratio (num, den) ->
          let d = List.fold_left (fun acc k -> acc +. sum tr k) 0. den in
          if d = 0. then 0. else sum tr num /. d
      in
      Stats.metric ~samples:tr.ops name unit value)
    layers

(* Folds the span table into the sums behind [trace.coverage] and
   [rtc.share], and returns printable rows. *)
let close_spans tr =
  let rows, op_total, covered = span_table tr in
  add tr "op_ms" op_total;
  add tr "trace.covered_ms" covered;
  rows

(* Counter deltas of the registry totals (guard trips, degraded runs,
   pool work) between two [Obs.Metrics.totals] readings. *)
let add_counter_deltas tr ~before ~after names =
  List.iter
    (fun (key, counter) ->
      let get l = float_of_int (Option.value ~default:0 (List.assoc_opt counter l)) in
      add tr key (get after -. get before))
    names

let registry_counters =
  [ "guard.trips.cancelled", "guard.trips.cancelled";
    "guard.trips.deadline", "guard.trips.deadline";
    "guard.trips.budget", "guard.trips.budget";
    "engine.degraded", "engine.degraded" ]

(* The busy-window and curve counters of the registry, for workloads whose
   analyses run where [Engine.result.stats] is out of reach (the pool's
   domains, the daemon). *)
let analysis_counters =
  [ "busy_window.windows", "busy_window.windows";
    "busy_window.window_iterations", "busy_window.window_iterations";
    "busy_window.demand_evals", "busy_window.demand_evals";
    "busy_window.demand_probes", "busy_window.demand_probes";
    "event_model.curve.searches", "curve.searches";
    "event_model.curve.search_steps", "curve.search_steps";
    "curve.memo_hits", "curve.memo_hits";
    "event_model.curve.periodic_evals", "curve.periodic_evals";
    "event_model.curve.closure_evals", "curve.closure_evals";
    "event_model.curve.spill_probes", "curve.spill_probes" ]

(* ------------------------------------------------------------------ *)
(* What a workload hands back *)

type run = {
  tally : Stats.tally;
  setup_s : float;  (** median over the run's set-up repetitions *)
  measured : measured;  (** the untraced loop *)
  half : half;  (** the rounds the timing metrics come from *)
  traced : (measured * trace) option;  (** the traced loop, when asked *)
  peak_rss_mb : float;  (** of the process doing the work *)
  bound_sum : int;
  unbounded : int;
}

(* The end-to-end metrics of a run, from its untraced loop: throughput
   and latencies over one half of its rounds (see [steady]).
   [Error] when those rounds hold too few ops for a tail percentile. *)
let end_to_end ~setups r =
  let ops_per_s, lat = steady ~half:r.half r.measured in
  let ops = Array.length lat in
  match Stats.percentile lat 50., Stats.percentile lat 90. with
  | Error e, _ | _, Error e -> Error e
  | Ok p50, Ok p90 ->
    Ok
      [ Stats.metric ~samples:setups "setup_s" "s" r.setup_s;
        Stats.metric ~samples:ops "ops_per_s" "ops/s" ops_per_s;
        Stats.metric ~samples:ops "latency_p50_ms" "ms" p50;
        Stats.metric ~samples:ops "latency_p90_ms" "ms" p90;
        (* reported as the success rate: an end-to-end metric must never
           read 0, and a correct run has no errors *)
        Stats.metric ~samples:r.tally.attempted "success_rate" "ratio"
          (1. -. Stats.error_rate r.tally);
        Stats.metric "peak_rss_mb" "MiB" r.peak_rss_mb;
        Stats.metric "bound_sum" "tu" (float_of_int r.bound_sum);
        Stats.metric "unbounded_elements" "count" (float_of_int r.unbounded) ]
