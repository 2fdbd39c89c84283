(* The [explore_sweep] workload: one caller alternating exploration
   driver runs over seeded variant chunks with pool-parallel sensitivity
   (headroom) queries, both on two worker domains. *)

module E = Cpa_system.Engine
module Spec_file = Cpa_system.Spec_file
module Driver = Explore.Driver

let jobs = 2

type job =
  | Chunk of Explore.Space.variant list
  | Headroom of string  (** the task whose CET headroom is searched *)

type output =
  | Report of { report : Driver.report; rendered : string }
  | Margin of int option

let build (sys : Gen.system) () = Spec_file.to_spec sys.desc

(* One op, its outside phases timed: the driver run and the rendering of
   its report, or the multisection search. *)
let run_job ~phase sys = function
  | Chunk variants ->
    let t0 = Loop.now () in
    let report = Driver.run ~jobs (Driver.items_of_variants ~base:(build sys) variants) in
    let t1 = Loop.now () in
    phase "explore.driver_ms" t0 t1;
    let rendered = Format.asprintf "%a" Explore.Render.csv report in
    phase "report.render_ms" t1 (Loop.now ());
    Report { report; rendered }
  | Headroom task ->
    let t0 = Loop.now () in
    let m = Explore.Sensitivity.max_cet_scale ~jobs ~build:(build sys) ~task () in
    phase "explore.sensitivity_ms" t0 (Loop.now ());
    Margin m

let same a b =
  match a, b with
  | Report a, Report b -> String.equal a.rendered b.rendered
  | Margin a, Margin b -> a = b
  | Report _, Margin _ | Margin _, Report _ -> false

(* Checks of a reference output, off the clock.  A chunk: no row failed,
   and the cache served exactly the rows whose digest repeats an earlier
   row.  A headroom query: the multisection answer equals the serial
   bisection of [Cpa_system.Sensitivity]. *)
let verify sys job out =
  match job, out with
  | Chunk _, Report { report; _ } ->
    let errors = List.filter (fun (r : Driver.row) -> Result.is_error r.summary) report.rows in
    let distinct = List.sort_uniq compare (List.map (fun (r : Driver.row) -> r.digest) report.rows) in
    let repeats = List.length report.rows - List.length distinct in
    if errors <> [] then Some (Printf.sprintf "%d variant(s) failed to analyse" (List.length errors))
    else if report.cache.hits <> repeats then
      Some (Printf.sprintf "cache hits %d, expected %d repeated digests" report.cache.hits repeats)
    else None
  | Headroom task, Margin m ->
    let serial = Cpa_system.Sensitivity.max_cet_scale (build sys ()) ~task in
    if m = serial then None
    else
      Some
        (Printf.sprintf "headroom of %s: multisection %s, serial %s" task
           (match m with Some v -> string_of_int v | None -> "none")
           (match serial with Some v -> string_of_int v | None -> "none"))
  | Chunk _, Margin _ | Headroom _, Report _ -> Some "wrong output kind"

(* The base system and the job list of a seed: 15 chunks of 14 variants,
   4 chunks of 22 and 2 headroom queries, 21 jobs.  The queries cost less
   than a chunk; the large chunks cost about 1.6 times a small one and hold
   the top 19% of the ops, so the 90th percentile falls in their middle,
   not in the tail of the small chunks, and the median falls among the
   small chunks. *)
let jobs_of seed =
  let sys = Gen.explore_base seed in
  ( sys,
    Array.of_list
      (List.map (fun c -> Chunk c) (Gen.explore_chunks seed sys.desc ~chunks:19 ~large:4)
      @ List.map (fun t -> Headroom t) (Gen.explore_queries seed sys.desc)) )

let no_phase _ _ _ = ()

(* Σ of finite upper bounds and count of unbounded ones over every row
   of every chunk of the fixed corpus, in every analysed mode, off the
   clock.  Repeated variants count each time.  A row that fails to
   analyse counts as a failed op. *)
let bound_totals tally =
  let sys, jobs = jobs_of Gen.corpus_seed in
  Array.fold_left
    (fun acc job ->
      match job with
      | Headroom _ -> acc
      | Chunk _ -> begin
        match run_job ~phase:no_phase sys job with
        | Margin _ -> acc
        | Report { report; _ } ->
          List.fold_left
            (fun acc (row : Driver.row) ->
              match row.summary with
              | Error _ ->
                Stats.record tally false ~why:(fun () -> "corpus variant " ^ row.label ^ " failed");
                acc
              | Ok s ->
                List.fold_left
                  (fun acc (m : Explore.Summary.mode_summary) ->
                    List.fold_left
                      (fun (sum, unb) (_, iv) ->
                        match iv with
                        | Some iv -> sum + Timebase.Interval.hi iv, unb
                        | None -> sum, unb + 1)
                      acc m.responses)
                  acc s.modes)
            acc report.rows
      end)
    (0, 0) jobs

let run ~seed ~seconds ~traced ~setups =
  let tally = Stats.tally () in
  (* set-up: generate the base system, chunks and queries, and run every
     job once (first-touch, and the reference outputs) *)
  let setup () =
    let t0 = Loop.now () in
    let sys, jobs = jobs_of seed in
    let refs = Array.map (run_job ~phase:no_phase sys) jobs in
    Loop.now () -. t0, (sys, jobs, refs)
  in
  let setup_s, (sys, jobs_, refs) = Loop.repeat_setup setups setup in
  let n = Array.length jobs_ in
  let order = Gen.split (Gen.rng seed) 8 in
  let perm = Array.init n Fun.id in
  let seq = ref (-1) in
  let next_job () =
    incr seq;
    if !seq mod n = 0 then Gen.shuffle order perm;
    perm.(!seq mod n)
  in
  let ops_per_job = Array.make n 0 in
  let failed_ops = Array.make n 0 in
  let tr = Loop.trace () in
  let op ~trace _ =
    let idx = next_job () in
    let phases = ref [] in
    let phase name t0 t1 = if trace then phases := (name, t0, t1) :: !phases in
    let before = if trace then Obs.Metrics.totals () else [] in
    let t0 = Loop.now () in
    let out = run_job ~phase sys jobs_.(idx) in
    let t1 = Loop.now () in
    (* checks and traced-run bookkeeping, after the op's clock stopped *)
    begin
      ops_per_job.(idx) <- ops_per_job.(idx) + 1;
      let ok = same out refs.(idx) in
      if not ok then failed_ops.(idx) <- failed_ops.(idx) + 1;
      Stats.record tally ok ~why:(fun () -> Printf.sprintf "job %d: output differs from the reference" idx);
      if trace then begin
        tr.ops <- tr.ops + 1;
        Loop.span tr ~op:!seq "op" t0 t1;
        List.iter
          (fun (name, a, b) ->
            Loop.span tr ~op:!seq name a b;
            Loop.add tr name ((b -. a) *. 1e3))
          !phases;
        (match out with
         | Report { report; _ } ->
           Loop.add tr "explore.cache.hits" (float_of_int report.cache.hits);
           Loop.add tr "explore.cache.lookups" (float_of_int report.cache.lookups)
         | Margin _ -> ());
        Loop.add_counter_deltas tr ~before ~after:(Obs.Metrics.totals ())
          ([ "explore.pool.tasks", "explore.pool.tasks";
             "explore.pool.steals", "explore.pool.steals" ]
          @ Loop.analysis_counters)
      end
    end;
    (t1 -. t0) *. 1e3
  in
  let untraced =
    Loop.closed_loop ~cycle:n ~seconds:(if traced then seconds /. 2. else seconds) (op ~trace:false)
  in
  let traced_run =
    if not traced then None
    else begin
      let before = Obs.Metrics.totals () in
      let m = Loop.closed_loop ~cycle:n ~seconds:(seconds /. 2.) (op ~trace:true) in
      Loop.add_counter_deltas tr ~before ~after:(Obs.Metrics.totals ()) Loop.registry_counters;
      Some (m, tr)
    end
  in
  Array.iteri
    (fun k job ->
      match verify sys job refs.(k) with
      | None -> ()
      | Some why -> Stats.fail_attempted tally (ops_per_job.(k) - failed_ops.(k)) ~why)
    jobs_;
  let bound_sum, unbounded = bound_totals tally in
  { Loop.tally; setup_s; measured = untraced; half = Loop.Faster; traced = traced_run;
    peak_rss_mb = Stats.peak_rss_mb None; bound_sum; unbounded }
