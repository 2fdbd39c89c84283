(** Declarative system descriptions for the compositional analysis.

    A system is a set of event sources, scheduled resources (CPUs and
    buses), tasks mapped to resources, and communication-layer frames
    mapped to buses.  Activation inputs reference other elements by name;
    the engine resolves them each global iteration. *)

(** Where a task or signal gets its events from. *)
type activation =
  | From_source of string  (** an external event source *)
  | From_output of string  (** the output stream of a task *)
  | From_signal of {
      frame : string;
      signal : string;
    }
      (** the unpacked inner stream of a signal transported by a frame
          (hierarchical mode); in flat modes this degrades to the frame's
          outer output stream — the comparison the paper draws *)
  | From_frame of string  (** the outer (frame-arrival) stream of a frame *)
  | Or_of of activation list  (** OR-activation of several inputs *)
  | And_of of activation list
      (** AND-activation: the task fires when every input delivered an
          event (inputs are queued and consumed jointly) *)

(** Local scheduling policy of a resource. *)
type scheduler =
  | Spp  (** static-priority preemptive (CPUs) *)
  | Spnp  (** static-priority non-preemptive (CAN bus) *)
  | Tdma  (** TDMA; tasks must declare [service] as their slot length *)
  | Round_robin  (** round robin; [service] is the quantum *)
  | Edf  (** earliest deadline first; tasks must declare [deadline] *)

(** Analysis backend used for a resource's local analysis. *)
type backend =
  | Cpa  (** compositional busy-window analysis (the default) *)
  | Rtc
      (** real-time-calculus curves: activations are converted to
          workload arrival curves, the resource model to service curves,
          and outputs converted back to event streams for downstream
          resources.  Not available for [Edf] resources. *)

type resource = {
  res_name : string;
  scheduler : scheduler;
  backend : backend;
}

val resource : ?backend:backend -> name:string -> scheduler -> resource
(** Resource constructor; [backend] defaults to [Cpa]. *)

type task = {
  task_name : string;
  resource : string;
  cet : Timebase.Interval.t;
  priority : int;  (** smaller = higher *)
  service : int option;  (** TDMA slot length / round-robin quantum *)
  deadline : int option;  (** relative deadline, required on EDF resources *)
  activation : activation;
  propagation : Event_model.Propagation.mode option;
      (** per-task output-propagation override; [None] = spec default *)
}

(** A signal packed into a frame; the stream carrying the signal's write
    events is resolved from [origin]. *)
type signal_binding = {
  signal_name : string;
  property : Hem.Model.signal_kind;
  origin : activation;
}

type frame = {
  frame_name : string;
  bus : string;  (** resource the frame is transmitted on (Spnp) *)
  send_type : Comstack.Frame.send_type;
  tx_time : Timebase.Interval.t;
  frame_priority : int;
  signals : signal_binding list;
}

type t = {
  sources : (string * Event_model.Stream.t) list;
  resources : resource list;
  tasks : task list;
  frames : frame list;
  default_propagation : Event_model.Propagation.mode;
      (** output-propagation method for tasks without an override
          (default [Theta_tau], the paper's exact recursion) *)
}

val task :
  name:string ->
  resource:string ->
  cet:Timebase.Interval.t ->
  priority:int ->
  ?service:int ->
  ?deadline:int ->
  ?propagation:Event_model.Propagation.mode ->
  activation:activation ->
  unit ->
  task

val signal :
  name:string ->
  ?property:Hem.Model.signal_kind ->
  origin:activation ->
  unit ->
  signal_binding
(** [property] defaults to [Triggering]. *)

val frame :
  name:string ->
  bus:string ->
  send_type:Comstack.Frame.send_type ->
  tx_time:Timebase.Interval.t ->
  priority:int ->
  signals:signal_binding list ->
  unit ->
  frame

val make :
  sources:(string * Event_model.Stream.t) list ->
  resources:resource list ->
  tasks:task list ->
  ?frames:frame list ->
  ?default_propagation:Event_model.Propagation.mode ->
  unit ->
  t

val task_propagation : t -> task -> Event_model.Propagation.mode
(** Effective propagation mode of a task: its override if any, else the
    spec default. *)

val with_propagation :
  ?task:string -> Event_model.Propagation.mode -> t -> t
(** [with_propagation mode t] sets the spec-wide default propagation
    mode; [with_propagation ~task mode t] sets a per-task override
    (unknown task names are ignored — validation catches dangling
    references elsewhere). *)

val force_propagation : Event_model.Propagation.mode -> t -> t
(** [force_propagation mode t] analyses the whole system in one mode: it
    sets the spec-wide default and clears every per-task override (unlike
    {!with_propagation}, under which overrides keep precedence). *)

val force_backend : backend -> t -> t
(** [force_backend b t] puts every resource on local-analysis backend
    [b], except EDF resources, which stay on [Cpa]: the curve backend has
    no service model for dynamic deadlines and {!validate} rejects the
    combination. *)

val canonical : t -> string
(** A canonical textual rendering of the system: element lists (and the
    signals of each frame) are sorted by name, and the opaque source
    streams are replaced by a behavioural fingerprint — a prefix of both
    distance functions plus deep probes that expose periodic tails.  Two
    specifications that differ only in element order render identically;
    any parameter edit (period, jitter, execution time, priority, layout,
    signal property, activation wiring) changes the rendering.

    Evaluating the fingerprint forces a prefix of the source streams'
    memoized curves, so like any curve evaluation it must happen in the
    domain that owns the spec (see [Event_model.Curve]). *)

val digest : t -> string
(** [digest t] is the hex digest of {!canonical} — the content address
    used by the exploration result cache: identical variants produced by
    different sweep axes collide on it and are analysed once. *)

val digest_with : Buffer.t -> t -> string
(** [digest_with scratch t] is {!digest}[ t], rendering the canonical
    form into [scratch] (cleared first) instead of a fresh buffer.
    Batch callers — the exploration driver digests one spec per sweep
    item — keep a per-domain scratch buffer and amortise the buffer
    growth across the whole batch.  The digest value is identical to
    {!digest}'s. *)

val validate : t -> (unit, string) result
(** Structural checks: unique element names, resolvable references,
    resources of frames are buses with an SPNP scheduler, TDMA /
    round-robin tasks declare a service parameter, EDF tasks declare a
    deadline. *)
