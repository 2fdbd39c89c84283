(* The analyse workloads: [cpa_corpus] and [rtc_mixed].  One op parses a
   spec text, builds it, runs [Engine.analyse] and renders the outcomes —
   the one-shot [hem_tool analyse] path. *)

module E = Cpa_system.Engine
module Spec = Cpa_system.Spec
module Spec_file = Cpa_system.Spec_file
module BW = Scheduling.Busy_window
module Interval = Timebase.Interval
module Stream = Event_model.Stream

type item = {
  sys : Gen.system;
  mode : E.mode;
}

let render r = Format.asprintf "%a" Cpa_system.Report.print_outcomes r

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* Library specs, read from the checkout as the one-shot CLI would. *)
let library paths =
  List.map
    (fun (name, path) ->
      let text = read_file path in
      match Spec_file.parse text with
      | Ok desc -> { Gen.name; desc; text }
      | Error e -> failwith (Printf.sprintf "%s: %s" path e))
    paths

let cpa_items seed =
  let lib = library [ "paper", "examples/paper.spec"; "avionics", "examples/specs/avionics.scm" ] in
  List.concat_map
    (fun sys -> Array.to_list (Array.map (fun mode -> { sys; mode }) Gen.modes))
    (lib @ Gen.cpa_systems seed)

(* Curve-backend analyses are hierarchical only: a flat-mode analysis of
   the same small systems takes 0.4 to 1.5 s, which would leave too few
   ops in a run for a tail percentile. *)
let rtc_items seed =
  match
    library
      [ "paper", "examples/paper.spec"; "gateway", "examples/specs/paper_gateway.scm";
        "hybrid", "examples/hybrid.spec" ]
  with
  | [ paper; gateway; hybrid ] ->
    List.map
      (fun sys -> { sys; mode = E.Hierarchical })
      (Gen.rtc_systems seed ~paper:paper.desc ~gateway:gateway.desc ~hybrid:hybrid.desc)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Correctness *)

let is_paper (i : item) =
  List.mem i.sys.name [ "paper"; "paper_rtc" ]

(* Paper Table 3 and its flat counterparts, written out by hand: the
   response intervals of the reference system in each mode. *)
let paper_expected = function
  | E.Hierarchical ->
    [ "f1", (4, 10); "f2", (2, 10); "t1", (24, 24); "t2", (32, 56); "t3", (40, 96) ]
  | E.Flat_stream ->
    [ "f1", (4, 10); "f2", (2, 10); "t1", (24, 44); "t2", (32, 108); "t3", (40, 188) ]
  | E.Flat_sem ->
    [ "f1", (4, 10); "f2", (2, 10); "t1", (24, 44); "t2", (32, 132); "t3", (40, 257) ]

let hi (o : E.element_outcome) =
  match o.outcome with BW.Bounded iv -> Some (Interval.hi iv) | BW.Unbounded _ -> None

(* Violations of [expected] in [outcomes].  With [worst_only] only upper
   bounds are compared (the backend agreement claim is about worst
   cases). *)
let check_expected ?(worst_only = false) expected (outcomes : E.element_outcome list) =
  List.filter_map
    (fun (element, (lo, h)) ->
      match List.find_opt (fun (o : E.element_outcome) -> o.element = element) outcomes with
      | None -> Some (element ^ " missing")
      | Some { outcome = BW.Unbounded _; _ } -> Some (element ^ " unbounded")
      | Some { outcome = BW.Bounded iv; _ } ->
        if Interval.hi iv = h && (worst_only || Interval.lo iv = lo) then None
        else Some (Printf.sprintf "%s = %s, expected [%d:%d]" element (Interval.to_string iv) lo h))
    expected

(* HEM <= flat per element: a hierarchical bound must exist wherever a
   flat one does, and be no larger. *)
let check_hem_dominates ~hem ~flat =
  List.filter_map
    (fun (f : E.element_outcome) ->
      match hi f, List.find_opt (fun (h : E.element_outcome) -> h.element = f.element) hem with
      | None, _ -> None
      | Some _, None -> Some (f.element ^ " missing in hierarchical")
      | Some fh, Some h -> begin
        match hi h with
        | Some hh when hh <= fh -> None
        | Some hh -> Some (Printf.sprintf "%s: hierarchical %d > flat %d" f.element hh fh)
        | None -> Some (f.element ^ ": unbounded only in hierarchical")
      end)
    flat

(* ------------------------------------------------------------------ *)
(* Replays *)

(* A derived stream is lazy, so each replayed call is followed by the
   same fixed probe of its result: 15 points of both distance
   functions. *)
let probe s =
  for n = 2 to 16 do
    ignore (Stream.delta_min s n);
    ignore (Stream.delta_plus s n)
  done

let timed tr key f =
  let t0 = Loop.now () in
  (try f () with Invalid_argument _ | Not_found | Failure _ | Guard.Error.Error _ -> ());
  Loop.add tr key (Loop.ms_since t0)

let response r name =
  match E.response r name with
  | v -> v
  | exception Not_found -> None

(* Calls each layer's public function once at the op's converged inputs
   (resolved through [result.resolve] and [pre_bus_hierarchy]), charging
   the per-call cost — with warm curve memos — to the layer. *)
let replay tr (spec : Spec.t) (r : E.result) =
  let on res_name =
    List.filter (fun (k : Spec.task) -> k.resource = res_name) spec.tasks,
    List.filter (fun (f : Spec.frame) -> f.bus = res_name) spec.frames
  in
  List.iter
    (fun (res : Spec.resource) ->
      let tasks, frames = on res.res_name in
      match
        List.map
          (fun (k : Spec.task) ->
            Scheduling.Rt_task.make ~name:k.task_name ~cet:k.cet ~priority:k.priority
              ~activation:(r.resolve k.activation))
          tasks
        @ List.map
            (fun (f : Spec.frame) ->
              Scheduling.Rt_task.make ~name:f.frame_name ~cet:f.tx_time
                ~priority:f.frame_priority
                ~activation:(Hem.Model.outer (r.pre_bus_hierarchy f.frame_name)))
            frames
      with
      | exception (Invalid_argument _ | Not_found | Failure _ | Guard.Error.Error _) -> ()
      | rts -> begin
        match res.backend with
        | Spec.Rtc when res.scheduler = Spec.Edf -> ()
        | Spec.Rtc ->
          let policy =
            match res.scheduler with
            | Spec.Spp -> Hybrid.Local.Spp
            | Spec.Spnp -> Hybrid.Local.Spnp
            | Spec.Tdma -> Hybrid.Local.Tdma
            | Spec.Round_robin -> Hybrid.Local.Round_robin
            | Spec.Edf -> invalid_arg "EDF has no curve backend"
          in
          let services =
            List.map (fun (k : Spec.task) -> k.service) tasks @ List.map (fun _ -> None) frames
          in
          let items =
            List.map2
              (fun service (rt : Scheduling.Rt_task.t) ->
                { Hybrid.Local.name = rt.name; cet = rt.cet; priority = rt.priority; service;
                  activation = rt.activation })
              services rts
          in
          timed tr "hybrid.local_replay_ms" (fun () -> ignore (Hybrid.Local.analyse ~policy items));
          let horizon = Hybrid.Local.default_horizon policy items in
          List.iter
            (fun (it : Hybrid.Local.item) ->
              timed tr "hybrid.convert_replay_ms" (fun () ->
                let wcet = Interval.hi it.cet and bcet = Interval.lo it.cet in
                let c = Hybrid.Convert.of_stream ~horizon ~wcet ~bcet it.activation in
                probe
                  (Hybrid.Convert.to_stream ~name:it.name ~wcet ~bcet ~upper:c.upper
                     ~lower:(Some c.lower))))
            items
        | Spec.Cpa ->
          let service (k : Spec.task) = Option.value ~default:1 k.service in
          let deadline (k : Spec.task) = Option.value ~default:1 k.deadline in
          let task_rts = List.filteri (fun i _ -> i < List.length tasks) rts in
          timed tr "scheduling.local_replay_ms" (fun () ->
            ignore
              (match res.scheduler with
               | Spec.Spp -> Scheduling.Spp.analyse rts
               | Spec.Spnp -> Scheduling.Spnp.analyse rts
               | Spec.Tdma ->
                 Scheduling.Tdma.analyse
                   (List.map2 (fun k task -> { Scheduling.Tdma.task; length = service k }) tasks task_rts)
               | Spec.Round_robin ->
                 Scheduling.Round_robin.analyse
                   (List.map2
                      (fun k task -> { Scheduling.Round_robin.task; quantum = service k })
                      tasks task_rts)
               | Spec.Edf ->
                 Scheduling.Edf.analyse
                   (List.map2 (fun k task -> { Scheduling.Edf.task; deadline = deadline k }) tasks task_rts)));
          List.iter
            (fun (k : Spec.task) ->
              match response r k.task_name with
              | None -> ()
              | Some response ->
                timed tr "event_model.propagation_replay_ms" (fun () ->
                  probe
                    (Event_model.Propagation.derive ~name:(k.task_name ^ ".out")
                       ~mode:(Spec.task_propagation spec k) ~response
                       ~bmin:(Interval.lo k.cet) (r.resolve k.activation))))
            tasks
      end)
    spec.resources;
  if r.mode = E.Hierarchical then
    List.iter
      (fun (f : Spec.frame) ->
        timed tr "hem.pack_replay_ms" (fun () ->
          let signals =
            List.map
              (fun (s : Spec.signal_binding) ->
                { Comstack.Signal.name = s.signal_name; property = s.property;
                  stream = r.resolve s.origin })
              f.signals
          in
          let h =
            Comstack.Frame.hierarchy
              (Comstack.Frame.make ~name:f.frame_name ~send_type:f.send_type ~signals
                 ~tx_time:f.tx_time ~priority:f.frame_priority)
          in
          probe (Hem.Model.outer h);
          List.iter probe (Hem.Deconstruct.unpack h));
        match response r f.frame_name with
        | None -> ()
        | Some response ->
          timed tr "hem.inner_update_replay_ms" (fun () ->
            let h = Hem.Inner_update.apply_response ~response (r.pre_bus_hierarchy f.frame_name) in
            probe (Hem.Model.outer h));
          timed tr "hem.unpack_replay_ms" (fun () ->
            List.iter probe (Hem.Deconstruct.unpack (r.hierarchy f.frame_name))))
      spec.frames

let add_stats tr (r : E.result) =
  let s = r.stats in
  let add k v = Loop.add tr k (float_of_int v) in
  add "engine.iterations" r.iterations;
  add "engine.resources_analysed" s.resources_analysed;
  add "engine.resources_reused" s.resources_reused;
  add "engine.streams_invalidated" s.streams_invalidated;
  add "busy_window.windows" s.busy.busy_windows;
  add "busy_window.window_iterations" s.busy.window_iterations;
  add "busy_window.demand_evals" s.busy.demand_evals;
  add "busy_window.demand_probes" s.busy.demand_probes;
  add "event_model.curve.searches" s.curve.searches;
  add "event_model.curve.search_steps" s.curve.search_steps;
  add "curve.memo_hits" s.curve.memo_hits;
  add "event_model.curve.periodic_evals" s.curve.periodic_evals;
  add "event_model.curve.closure_evals" s.curve.closure_evals;
  add "event_model.curve.spill_probes" s.curve.spill_probes

(* ------------------------------------------------------------------ *)
(* The workload *)

type op_output =
  | Done of { rendered : string; spec : Spec.t; result : E.result }
  | Failed of string

(* One op, with its outside phases timed.  [phase] receives each phase's
   name and bounds. *)
let run_op ~phase (i : item) =
  let t0 = Loop.now () in
  match Spec_file.parse i.sys.text with
  | Error e -> Failed ("parse: " ^ e)
  | Ok d -> begin
    let t1 = Loop.now () in
    phase "spec_file.parse_ms" t0 t1;
    let spec = Spec_file.to_spec d in
    let t2 = Loop.now () in
    phase "spec_file.to_spec_ms" t1 t2;
    match E.analyse ~mode:i.mode spec with
    | Error e -> Failed ("analyse: " ^ Guard.Error.to_string e)
    | Ok result ->
      let t3 = Loop.now () in
      phase "engine.analyse_ms" t2 t3;
      let rendered = render result in
      phase "report.render_ms" t3 (Loop.now ());
      Done { rendered; spec; result }
  end

let no_phase _ _ _ = ()

(* Semantic checks of the reference results: the paper tables, pure-RTC
   agreement, and HEM <= flat where all three modes were analysed.
   Returns the indices of items whose reference fails, with reasons. *)
let verify items (refs : (string * E.result) option array) =
  let result_of name mode =
    let found = ref None in
    Array.iteri
      (fun k (i : item) ->
        if i.sys.name = name && i.mode = mode then
          match refs.(k) with Some (_, r) -> found := Some r | None -> ())
      items;
    !found
  in
  let bad = ref [] in
  Array.iteri
    (fun k (i : item) ->
      let fail why = bad := (k, Printf.sprintf "%s/%s: %s" i.sys.name (E.mode_name i.mode) why) :: !bad in
      match refs.(k) with
      | None -> fail "no reference result"
      | Some (_, r) ->
        if is_paper i then
          List.iter fail
            (check_expected ~worst_only:(i.sys.name = "paper_rtc") (paper_expected i.mode) r.outcomes);
        if i.mode <> E.Hierarchical then
          match result_of i.sys.name E.Hierarchical with
          | Some hem -> List.iter fail (check_hem_dominates ~hem:hem.outcomes ~flat:r.outcomes)
          | None -> ())
    items;
  !bad

(* Adds the finite upper bounds of [outcomes] to [sum] and their
   unbounded elements to [unb]. *)
let add_bounds (sum, unb) outcomes =
  List.fold_left
    (fun (sum, unb) o -> match hi o with Some h -> sum + h, unb | None -> sum, unb + 1)
    (sum, unb) outcomes

(* Totals over the fixed corpus [items_of Gen.corpus_seed], each item
   analysed once, off the clock.  An item that fails to analyse counts as
   a failed op. *)
let bound_totals tally items_of =
  List.fold_left
    (fun acc (i : item) ->
      match run_op ~phase:no_phase i with
      | Done { result; _ } -> add_bounds acc result.outcomes
      | Failed e ->
        Stats.record tally false ~why:(fun () -> Printf.sprintf "corpus %s: %s" i.sys.name e);
        acc)
    (0, 0) (items_of Gen.corpus_seed)

let run ~items_of ~seed ~seconds ~traced ~setups =
  let tally = Stats.tally () in
  (* set-up: generate the inputs and analyse every item once (first-touch
     code paths and the reference renderings the ops are checked against) *)
  let setup () =
    let t0 = Loop.now () in
    let items = Array.of_list (items_of seed) in
    let refs =
      Array.map
        (fun i ->
          match run_op ~phase:no_phase i with
          | Done { rendered; result; _ } -> Some (rendered, result)
          | Failed _ -> None)
        items
    in
    Loop.now () -. t0, (items, refs)
  in
  let setup_s, (items, refs) = Loop.repeat_setup setups setup in
  let n = Array.length items in
  (* the op sequence: seeded permutations of all items, one after another,
     so every run sees the whole corpus in the same proportions *)
  let order = Gen.split (Gen.rng seed) 7 in
  let perm = Array.init n Fun.id in
  let seq = ref (-1) in
  let next_item () =
    incr seq;
    if !seq mod n = 0 then Gen.shuffle order perm;
    perm.(!seq mod n)
  in
  let ops_per_item = Array.make n 0 in
  let failed_ops = Array.make n 0 in
  let tr = Loop.trace () in
  let es = Loop.engine_spans () in
  let op ~trace _ =
    let idx = next_item () in
    let k = !seq in
    let i = items.(idx) in
    if trace then Loop.reset_engine_spans es;
    let phases = ref [] in
    let phase name t0 t1 = if trace then phases := (name, t0, t1) :: !phases in
    let t0 = Loop.now () in
    let out = run_op ~phase i in
    let t1 = Loop.now () in
    (* checks and traced-run bookkeeping, after the op's clock stopped *)
    begin
      ops_per_item.(idx) <- ops_per_item.(idx) + 1;
      let ok, why =
        match out, refs.(idx) with
        | Failed e, _ -> false, e
        | Done _, None -> false, "no reference"
        | Done { rendered; _ }, Some (expected, _) ->
          if String.equal rendered expected then true, ""
          else false, "output differs from the reference"
      in
      if not ok then failed_ops.(idx) <- failed_ops.(idx) + 1;
      Stats.record tally ok ~why:(fun () -> Printf.sprintf "%s/%s: %s" i.sys.name (E.mode_name i.mode) why);
      if trace then begin
        tr.ops <- tr.ops + 1;
        Loop.span tr ~op:k "op" t0 t1;
        List.iter
          (fun (name, a, b) ->
            Loop.span tr ~op:k name a b;
            Loop.add tr name ((b -. a) *. 1e3))
          !phases;
        match out with
        | Failed _ -> ()
        | Done { spec; result; _ } ->
          add_stats tr result;
          List.iter
            (fun (res : Spec.resource) ->
              let ms = Option.value ~default:0. (Hashtbl.find_opt es.per_resource res.res_name) in
              Loop.add tr
                (match res.backend with Spec.Rtc -> "rtc.resource_ms" | Spec.Cpa -> "scheduling.resource_ms")
                ms)
            spec.resources;
          replay tr spec result
      end
    end;
    (t1 -. t0) *. 1e3
  in
  let untraced = Loop.closed_loop ~cycle:n ~seconds:(if traced then seconds /. 2. else seconds) (op ~trace:false) in
  let traced_run =
    if not traced then None
    else begin
      let before = Obs.Metrics.totals () in
      Loop.install_engine_sink es;
      let m =
        Fun.protect ~finally:Obs.Sink.uninstall (fun () ->
          Loop.closed_loop ~cycle:n ~seconds:(seconds /. 2.) (op ~trace:true))
      in
      Loop.add_counter_deltas tr ~before ~after:(Obs.Metrics.totals ()) Loop.registry_counters;
      Some (m, tr)
    end
  in
  (* checks of the references, off the clock: every op on an item whose
     reference fails counts as failed (ops already failed are not
     counted twice) *)
  List.iter
    (fun (k, why) ->
      Stats.fail_attempted tally (ops_per_item.(k) - failed_ops.(k)) ~why;
      failed_ops.(k) <- ops_per_item.(k))
    (verify items refs);
  let bound_sum, unbounded = bound_totals tally items_of in
  { Loop.tally; setup_s; measured = untraced; half = Loop.Slower; traced = traced_run;
    peak_rss_mb = Stats.peak_rss_mb None; bound_sum; unbounded }
