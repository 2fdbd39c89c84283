(** Differential oracles: independent implementations agreeing (or
    dominating) on the same question.

    Each oracle pairs a production code path with a reimplementation that
    shares no code with it, or with a relation the paper proves must
    hold:

    - {b backend agreement}: the compact periodic curve backend and its
      arithmetic pseudo-inversion vs naive closures over the defining
      formulas (and, for bursts, the concrete arrival pattern) with
      linear-scan inversions;
    - {b batch agreement}: batched curve sweeps ([Curve.eval_batch])
      vs the boxed scalar evaluator on unsorted, duplicate-bearing
      probe arrays, over both distance curves of every source;
    - {b engine agreement}: the incremental fixed-point engine vs a
      from-scratch recomputation — outcomes must be byte-identical,
      including iteration counts;
    - {b kernel agreement}: the analysis kernels — OR-combination
      (eqs 3-4), the Theta_tau output model, SPP and SPNP response times
      and the EDF busy period — re-run on the streams of a converged
      result and compared with naive references built on public
      interfaces only ({!reference_or}, {!reference_output},
      {!reference_spp}, {!reference_spnp}, {!reference_edf_busy_period});
    - {b hierarchy tightness}: hierarchical analysis response bounds
      never exceed the flat-SEM baseline's;
    - {b simulation dominance}: analytic response bounds and arrival
      curves dominate the discrete-event simulator's observations, in
      both hierarchical and flat mode;
    - {b propagation dominance}: every output-propagation mode yields
      bounds dominating the simulator, [Optimal] is pointwise at least
      as tight as every single mode, and all modes coincide
      byte-identically on jitter-free periodic point-interval systems;
    - {b hybrid soundness}: the RTC/CPA coupling boundary — every
      source stream round-trips through the curve conversion pointwise
      conservatively (exactly, for jitter-free periodic sources within
      the sampled horizon) under the {!Stream.wrap} sanitizer; pure-RTC
      and pure-CPA analyses agree on single-resource SPP point systems;
      and the all-RTC analysis' bounds dominate the simulator; the RTC
      deconvolution and delay kernels agree exactly with naive scan
      references ({!same_deconv}, {!same_delay});
    - {b cache agreement}: exploration results served through the
      content-addressed cache render byte-identically to direct,
      cache-free evaluation.

    {!verify_spec} bundles the per-system oracles with the
    {!Stream} sanitizer (plugged into the engine's [~selfcheck] hook and
    the pack-degradation warning hook) into one report. *)

type check = {
  name : string;
  ok : bool;
  detail : string;  (** witness of the first failure, or a probe count *)
}

val check : name:string -> bool -> string -> check

val pp_check : Format.formatter -> check -> unit

type report = {
  label : string;
  checks : check list;
  violations : Violation.t list;
      (** sanitizer findings collected during the run, deduplicated *)
}

val passed : report -> bool
(** All checks ok and no [Error]-severity violations ([Warning]s do not
    fail a report). *)

val pp_report : Format.formatter -> report -> unit

(** {1 Individual oracles} *)

val backend_agreement : unit -> check list
(** Compact vs naive curves for periodic, periodic-with-jitter,
    periodic-burst and sporadic models, on a dense index prefix plus
    deep probes, and eta inversions vs linear scans.  Deterministic. *)

val batch_agreement : Cpa_system.Spec.t -> check list
(** [Curve.eval_batch] vs the scalar evaluator on unsorted probe lists
    with duplicates, for the delta_min and delta_plus curves of every
    source stream of the spec (compact and closure backends alike). *)

val engine_agreement :
  ?mode:Cpa_system.Engine.mode -> Cpa_system.Spec.t -> check list
(** [analyse ~incremental:true] vs [analyse ~incremental:false] on the
    given system ([mode] defaults to [Hierarchical]). *)

val reference_or : Event_model.Stream.t list -> Event_model.Stream.t
(** OR-combination (eqs 3-4) as a left fold of pairwise convolutions,
    each a direct scan over all splits of boxed curve values.
    @raise Invalid_argument on the empty list. *)

val reference_output :
  response:Timebase.Interval.t -> Event_model.Stream.t -> Event_model.Stream.t
(** The Theta_tau output model, [delta_min'] evaluated front to back
    from [n = 2] for every probe and [delta_plus' = delta_plus + spread]. *)

val reference_spp :
  ?blocking:int ->
  task:Scheduling.Rt_task.t ->
  others:Scheduling.Rt_task.t list ->
  unit ->
  Scheduling.Busy_window.outcome
(** SPP response time with every activation's completion fixpoint
    started cold over [Busy_window.interference] (no warm start, no
    resumable demand kernel), default window limit. *)

val reference_spnp :
  task:Scheduling.Rt_task.t ->
  others:Scheduling.Rt_task.t list ->
  unit ->
  Scheduling.Busy_window.outcome
(** SPNP response time, start-time fixpoints started cold like
    {!reference_spp}. *)

val reference_edf_busy_period :
  Scheduling.Edf.task list -> (int, string) result
(** EDF processor busy period: least fixed point of
    [w = max 1 (interference w)] over [Busy_window.interference]. *)

(** The product kernels {!kernel_agreement} checks; a field can be
    replaced to seed a defect. *)
type kernels = {
  or_combine : Event_model.Stream.t list -> Event_model.Stream.t;
  output :
    response:Timebase.Interval.t -> Event_model.Stream.t -> Event_model.Stream.t;
  spp :
    task:Scheduling.Rt_task.t ->
    others:Scheduling.Rt_task.t list ->
    Scheduling.Busy_window.outcome;
  spnp :
    task:Scheduling.Rt_task.t ->
    others:Scheduling.Rt_task.t list ->
    Scheduling.Busy_window.outcome;
  edf_busy_period :
    Scheduling.Edf.task list -> (int, string) result;
}

val product_kernels : kernels
(** [Combine.or_combine], [Task_op.output], [Spp.response_time],
    [Spnp.response_time] and [Edf.busy_period]. *)

val kernel_agreement :
  ?kernels:kernels -> Cpa_system.Engine.result -> check list
(** Re-runs each kernel (default {!product_kernels}) on the streams of
    the result, resolved through [result.resolve], and compares it with
    its reference: the OR of every [Or_of] activation and of adjacent
    source pairs (distances on a dense prefix and deep probes), the
    output model of every bounded task, the SPP/SPNP response of every
    element of a static-priority resource, and the busy period of every
    SPP/SPNP/EDF task set.  One check per kernel, tagged
    ["kernel[<mode>]:or|theta_tau|spp|spnp|edf"]; a degraded result
    yields a single skipped check. *)

val hierarchy_tightness :
  Cpa_system.Engine.result -> Cpa_system.Engine.result -> check
(** [hierarchy_tightness hem flat]: every element bounded in both
    results satisfies [hi hem <= hi flat]; an element bounded only
    under [flat] is a failure. *)

val degradation_soundness :
  reference:Cpa_system.Engine.result ->
  Cpa_system.Engine.result ->
  check
(** [degradation_soundness ~reference degraded]: every element the
    degraded result still claims a bound for carries {e exactly} the
    fully converged reference's bound — degradation may widen bounds to
    unbounded but never invent or shift a finite one. *)

val simulation_dominance :
  ?seed:int ->
  ?horizon:int ->
  generators:(string * Des.Gen.t) list ->
  tag:string ->
  Cpa_system.Engine.result ->
  Cpa_system.Spec.t ->
  check list
(** Simulates the system and checks observed responses against the
    result's bounds and observed source arrival counts against the
    declared eta_plus. *)

val propagation_dominance :
  ?seed:int ->
  ?horizon:int ->
  ?generators:(string * Des.Gen.t) list ->
  Cpa_system.Spec.t ->
  check list
(** Analyses the system once per propagation mode (the mode forced
    spec-wide, per-task overrides cleared) and checks, per element:
    every mode analyses successfully; [Optimal]'s response bound is
    pointwise at least as tight as every single mode's; when
    [generators] are given, every mode's bounds dominate one shared
    simulation of the system (the trace is mode-independent); and on
    systems with jitter-free periodic sources and point execution /
    transmission intervals the rendered results of all modes are
    byte-identical.  Degraded runs are excluded from the tightness and
    invariance comparisons (their widened bounds carry no claim). *)

val hybrid_soundness :
  ?seed:int ->
  ?horizon:int ->
  ?generators:(string * Des.Gen.t) list ->
  Cpa_system.Spec.t ->
  check list
(** The curve-conversion soundness audit of the hybrid backend
    coupling.  Round-trips every source stream through
    {!Hybrid.Convert} ([stream -> workload curves -> stream], with
    [wcet = bcet] so the demand scaling cancels) and checks the result
    pointwise conservative — [delta_min' <= delta_min] and
    [delta_plus' >= delta_plus] — and exact on jitter-free periodic
    sources within the sampled horizon, evaluating the converted-back
    stream under the {!Stream.wrap} sanitizer; on single-resource SPP
    systems with jitter-free periodic point-interval elements, checks
    the pure-RTC and pure-CPA analyses agree on every worst-case
    response bound; checks the product RTC kernels against their
    naive references ({!same_deconv}, {!same_delay}) on every source's
    arrival curve, with full service and a 2/5 TDMA slot as the
    service curve (tag ["hybrid:kernels"]); and, when [generators] are
    given, checks the analysis with {e every} resource forced onto the
    RTC backend (EDF resources stay on CPA) yields bounds dominating
    the simulator (tag ["sim[hybrid]"]). *)

val same_deconv : Rtc.Curve.t -> Rtc.Curve.t -> bool
(** [Rtc.Curve.min_plus_deconv f g] equals the naive reference — every
    lag in [0 .. max horizon + lcm] scanned for every sample, built on
    the public curve interface only — in kind, samples, tail rate and
    tail offset, or both raise [Rtc.Curve.Unstable]. *)

val same_delay : upper:Rtc.Curve.t -> lower:Rtc.Curve.t -> bool
(** [Rtc.Curve.horizontal_deviation] equals the naive reference: a
    forward search from [tau = 0] for every window, capped at eight
    times the deviation range. *)

val cache_agreement :
  ?jobs:int ->
  base:(unit -> Cpa_system.Spec.t) ->
  Explore.Space.variant list ->
  check
(** Runs the variants through {!Explore.Driver} (cache on) and
    re-evaluates each directly with {!Explore.Summary.evaluate} (cache
    off); digests and rendered summaries must agree byte-for-byte. *)

(** {1 Whole-system entry point} *)

val verify_spec :
  ?label:string ->
  ?selfcheck:bool ->
  ?seed:int ->
  ?horizon:int ->
  ?generators:(string * Des.Gen.t) list ->
  Cpa_system.Spec.t ->
  report
(** Runs the hierarchical analysis (with the {!Stream} sanitizer wired
    into the engine's [~selfcheck] hook and pack-degradation warnings
    captured, unless [selfcheck:false]), audits every frame hierarchy,
    then runs the engine, batch and tightness oracles, the kernel
    oracle on the hierarchical and flat-SEM results, and — when
    [generators] are given — simulation oracles.  [seed] and [horizon]
    configure the simulation. *)

val verify_case :
  ?selfcheck:bool -> ?seed:int -> ?horizon:int -> Fuzz.case -> report
(** {!verify_spec} on a fuzz case, using its generators and label. *)
