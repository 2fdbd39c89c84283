(** Fixed-size domain pool with a chunked work queue, work stealing and
    a deterministic merge.

    [map ~jobs f n] evaluates [f 0 .. f (n - 1)] on a pool of domains
    pulling work from a shared queue and returns the results {e in index
    order}, so the output is independent of [jobs] and of how the
    scheduler interleaved the workers.

    {b Effective parallelism.}  [jobs] is a {e request}: the pool runs
    [min jobs (Domain.recommended_domain_count ())] worker domains
    (see {!effective_jobs}), because oversubscribing cores makes OCaml 5
    throughput collapse — every minor collection is a stop-the-world
    handshake across all domains.  Results are unaffected (the merge is
    index-ordered either way); only the schedule changes.  Pass
    [~oversubscribe:true] to force one domain per requested job (spawn-
    path tests, overhead measurements).  [effective_jobs _ = 1] runs
    everything in the calling domain (no spawn), which is the baseline
    the determinism guard compares against.

    {b Scheduling.}  Unguarded maps claim {e chunks} of indices off the
    shared queue (one atomic operation per chunk instead of one per
    item) into a per-worker deque; owners drain their deque from the
    front in small batches while idle workers steal the back half of a
    peer's remainder, so the tail stays balanced without per-item
    round-trips.  Maps with a real guard — or with fault injection
    armed — fall back to per-item claims in globally ascending order,
    which is what makes the interrupted prefix deterministic across
    jobs counts (see {!map_guarded}).

    {b Domain-locality contract.}  [f] runs on a worker domain.  Every
    mutable structure it touches must be created inside the call — in
    particular specs and their event streams, whose memoized curves are
    not synchronised (see [Event_model.Curve]).  This is why the
    exploration drivers take {e builders} ([unit -> Spec.t]) and apply
    edits worker-side instead of accepting pre-built specs: a [Spec.t]
    built once in the parent domain and probed from several workers would
    race on its curve memo tables.

    Telemetry: every worker runs under its own [Obs.Metrics] scope
    ([<label>.worker<i>]), whose snapshot is returned in
    {!worker_stat.counters}; the pool bumps the global counters
    [explore.pool.tasks], [explore.pool.maps], [explore.pool.interrupts]
    and [explore.pool.steals], and records the deepest per-worker deque
    remainder of the last chunked map in the gauge
    [explore.pool.deque_hwm].  When [Obs.Hist.enabled], each worker
    times its items into a private histogram and the pool merges them
    into the registered distribution [<label>.task_ns] after the join.
    When a tracing sink is installed, one [<label>.worker<i>] span per
    worker (with [tasks] / [steals] / [busy_us] / [idle_us] attributes)
    is emitted {e after} the join, with explicit timestamps, so worker
    domains never touch the sink concurrently. *)

type worker_stat = {
  worker : int;  (** worker index, [0 .. effective_jobs - 1] *)
  tasks : int;  (** queue items this worker executed *)
  steals : int;  (** deque back-halves this worker stole from peers *)
  busy_us : float;  (** wall time of the worker's drain loop *)
  idle_us : float;
      (** tail imbalance: how long this worker's peers kept running
          after it finished (0 for the last finisher) *)
  counters : (string * int) list;
      (** non-zero metrics charged to the worker's scope, sorted by name *)
}

(** Result of a guarded map.  [Interrupted] carries the {e contiguous
    completed prefix} [f 0 .. f (c - 1)]: items at or beyond [c] may
    also have completed on other workers before the stop propagated
    ([attempted] counts all completions), but only the prefix is
    deterministic, so only the prefix is returned. *)
type 'a outcome =
  | Complete of 'a list
  | Interrupted of {
      completed : 'a list;  (** the contiguous prefix, in index order *)
      reason : Guard.Error.t;
      attempted : int;  (** items that completed anywhere in the queue *)
    }

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism. *)

val effective_jobs : ?oversubscribe:bool -> int -> int
(** Number of worker domains a map with this [jobs] request will run:
    [max 1 (min jobs (default_jobs ()))], or [jobs] itself when
    [oversubscribe] is set. *)

val map :
  ?jobs:int -> ?oversubscribe:bool -> ?label:string -> (int -> 'a) -> int ->
  'a list
(** [map ~jobs f n] is [[f 0; ...; f (n - 1)]], evaluated on
    [effective_jobs jobs] domains.  [jobs] defaults to {!default_jobs};
    [label] (default ["explore.pool"]) names the metric scopes and
    spans.  If any [f i] raises, the exception of the {e smallest}
    failing index is re-raised after all workers have been joined
    (deterministic error too).
    @raise Invalid_argument when [jobs < 1] or [n < 0]. *)

val map_stats :
  ?jobs:int -> ?oversubscribe:bool -> ?label:string -> (int -> 'a) -> int ->
  'a list * worker_stat list
(** Like {!map}, also returning per-worker telemetry (in worker order;
    one entry per {e effective} worker). *)

val map_guarded :
  ?jobs:int ->
  ?oversubscribe:bool ->
  ?label:string ->
  ?guard:Guard.t ->
  (int -> 'a) ->
  int ->
  'a outcome * worker_stat list
(** Like {!map_stats}, but checks [guard] before every claim: when it
    trips (cancellation, deadline, budget), every worker stops at its
    next claim, all domains are joined, and the call returns
    [Interrupted] with the completed prefix instead of raising.  [f]
    itself runs unguarded — interruption granularity is one queue item.
    Guarded maps (and maps with fault injection armed) claim items
    one at a time in globally ascending order — chunking never changes
    interruption semantics.

    Error precedence after the join (all deterministic): the smallest
    index whose [f i] raised wins; then the lowest-numbered worker's
    crash (an exception escaping the claim path itself); then the
    interruption.  On all paths every spawned domain has been joined —
    including when [Domain.spawn] itself fails mid-way, in which case
    the already-running helpers are drained, joined, and the spawn
    failure re-raised.

    Fault-injection sites (see {!Guard.Inject}): ["<label>.item:<i>"]
    fired by the claiming worker before executing item [i] (a [Crash]
    there is a worker death, a [Trip] a forced stop), and
    ["<label>.spawn:<k>"] fired before spawning helper
    [k <= effective_jobs - 1] (combine with [~oversubscribe:true] to
    exercise spawns regardless of the machine's core count). *)

(** Persistent worker domains with pinned per-worker mailboxes — the
    long-running counterpart of {!map} for servers.  Where a map spawns
    domains per call and merges once, a service keeps [jobs] domains
    alive and lets callers submit jobs to a {e specific} worker: jobs
    pinned to the same worker run sequentially on the same domain, which
    is how a serving session honours the pool's domain-locality contract
    (its cached streams' curve memo tables are unsynchronised, so every
    request touching one session must run where the session lives).
    There is deliberately no stealing between mailboxes.

    Jobs are [unit -> unit] thunks; delivering results (and exceptions —
    a raising job is swallowed, the worker survives) is the submitter's
    wrapper's concern.  A worker keeps no state between jobs: whatever a
    pinned owner caches lives in the owner's own record (a serving
    session's warm context), so it goes when the owner does.  Metrics:
    [explore.pool.service.jobs] accepted, [explore.pool.service.rejected]
    refused after shutdown began. *)
module Service : sig
  type t

  val create : ?jobs:int -> unit -> t
  (** Spawns [effective_jobs jobs] worker domains ([jobs] defaults to
      {!default_jobs}).
      @raise Invalid_argument when [jobs < 1]. *)

  val jobs : t -> int
  (** Number of worker domains actually running. *)

  val submit : t -> worker:int -> (unit -> unit) -> bool
  (** Enqueue a job on worker [worker]'s mailbox; [false] when the
      service is shutting down (the job was not enqueued).
      @raise Invalid_argument when [worker] is outside [0 .. jobs-1]. *)

  val depth : t -> worker:int -> int
  (** Jobs currently queued (not yet started) on a worker — the
      admission-control signal.
      @raise Invalid_argument when [worker] is outside [0 .. jobs-1]. *)

  val shutdown : t -> unit
  (** Stop accepting jobs, let every worker drain its mailbox, and join
      all worker domains.  Idempotent in effect but must only be called
      once. *)
end
