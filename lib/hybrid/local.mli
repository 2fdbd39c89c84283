(** RTC local analysis of one resource.

    The RTC counterpart of the busy-window local analyses in
    {!Scheduling}: activations are converted to certified workload
    arrival curves ({!Convert}), the resource model to lower service
    curves ({!Rtc.Workload}), per-element bounds come from the greedy
    processing component ({!Rtc.Gpc}), and each element's processed
    output is converted back to an event stream for downstream
    resources.

    Conventions match the CPA analyses exactly so the two backends are
    interchangeable per resource: a numerically smaller priority is a
    higher priority, equal priorities interfere with each other, SPNP
    blocking is the longest lower-priority execution, and TDMA /
    round-robin use the per-element [service] parameter as slot length /
    quantum. *)

type policy =
  | Spp
  | Spnp
  | Tdma
  | Round_robin  (** analysed as TDMA with quantum-sized slots *)

type item = {
  name : string;
  cet : Timebase.Interval.t;
  priority : int;
  service : int option;  (** TDMA slot length / round-robin quantum *)
  activation : Event_model.Stream.t;
}

type outcome = {
  name : string;
  response : Scheduling.Busy_window.outcome;
      (** [Bounded [bcet : rtc delay]], or [Unbounded] when the
          element's arrival rate exceeds its guaranteed service rate (or
          its activations admit no finite arrival curve) *)
  output : Event_model.Stream.t option;
      (** the processed stream (named [name ^ ".out"]): upper bound from
          the GPC output curve, lower bound from the response-jitter
          shift of the input's lower curve; [None] for unbounded
          elements *)
}

val default_horizon : policy -> item list -> int
(** Sampling horizon heuristic: covers a multiple of the slowest
    element's 33-event span, the summed worst-case demand, and (for
    slot-based policies) several full cycles; clamped to
    [\[128, 4096\]]. *)

val analyse : ?horizon:int -> policy:policy -> item list -> outcome list
(** Analyse every item of one resource, in input order.  Never raises
    for unbounded arrivals or overload — those yield [Unbounded]
    outcomes with a reason.  When [horizon] is omitted the sampling
    range escalates geometrically from 256 up to {!default_horizon},
    stopping at the first round that bounds every item; any horizon is
    sound (a shorter one can only be looser), so well-dimensioned
    systems pay the small-range cost only.  The rounds are counted in
    the [hybrid.horizon_rounds] metric.

    Cost per round: the arrival curves, remaining service and delay
    search are linear in the horizon (plus the largest delay); the
    output deconvolution is linear times the number of arrival-curve
    rises in one lag window, so it is quadratic only for curves that
    rise at almost every sample. *)
