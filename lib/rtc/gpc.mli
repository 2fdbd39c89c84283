(** Greedy processing components and fixed-priority chains.

    The basic abstraction of modular performance analysis (Thiele et
    al.): a component greedily serves the workload bounded by an arrival
    curve from the service bounded by a service curve.  Delay and backlog
    are the horizontal and vertical deviations; the remaining (lower)
    service is what the next-lower priority level receives, which chains
    components into a fixed-priority resource model.

    Overload is reported honestly: a component whose arrival rate
    exceeds its service rate gets [None] for delay, backlog {e and}
    output curve — no bound is silently derived from a truncated
    search. *)

type result = {
  delay : int option;
      (** worst-case queueing+processing delay; [None] if unbounded *)
  backlog : int option;
      (** workload backlog bound; [None] if unbounded *)
  output_upper : Curve.t option;
      (** upper arrival curve of the processed workload downstream;
          [None] when the component is overloaded (unbounded output
          supremum) *)
  remaining_lower : Curve.t;
      (** lower service curve left for lower-priority components *)
}

val remaining_service :
  arrival_upper:Curve.t -> service_lower:Curve.t -> Curve.t
(** The lower service curve left after greedily serving [arrival_upper]
    from [service_lower] — exposed on its own so per-task service
    derivations (hybrid local analyses with shared priority levels) can
    skip the deviation computations of {!process}. *)

val output_upper :
  arrival_upper:Curve.t -> service_lower:Curve.t -> Curve.t option
(** [arrival (/) service], or [None] when the component is overloaded
    ({!Curve.Unstable}) — the output field of {!process} on its own, for
    callers that need only the delay and the output curve. *)

val process : arrival_upper:Curve.t -> service_lower:Curve.t -> result
(** Standard GPC bounds:
    [delay = h-deviation], [backlog = v-deviation],
    [output = arrival (/) service] (deconvolved against the lower
    service curve directly, keeping its floor-rounded tail), and
    [remaining dt = max over 0 <= s <= dt of (service s - arrival (s+1))]
    with an exact per-period tail rate and a certified anchor. *)

type fp_task = {
  name : string;
  arrival_upper : Curve.t;  (** workload-scaled arrival curve *)
}

val fixed_priority_chain :
  service:Curve.t -> fp_task list -> (string * result) list
(** [fixed_priority_chain ~service tasks] processes [tasks] from highest
    to lowest priority (list order), feeding each level the remaining
    service of the previous one — the RTC counterpart of the SPP
    busy-window analysis. *)
