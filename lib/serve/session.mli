(** Session table of the serving daemon.

    A session is one loaded system with its warm {!Cpa_system.Engine}
    resolution context, its count of applied edits, and a private
    {!Obs.Metrics} scope that every request executed on its behalf runs
    under.  Sessions are pinned to one {!Explore.Pool.Service} worker
    ([worker = hash id mod jobs]): the warm context's cached streams
    carry unsynchronised curve memo tables, so all analysis state of a
    session must only ever be touched from its worker's domain.  The
    table itself (registration, lookup, eviction) is mutex-protected
    and may be used from any thread.

    Analysis fields ([spec], [warm], [last_outcomes]) are written
    exclusively by worker jobs; the happens-before edge to later jobs of
    the same session is the worker mailbox.  A session holds no state
    outside its record, so dropping it from the table frees everything
    it owns. *)

module Engine = Cpa_system.Engine
module Spec = Cpa_system.Spec

type t = {
  id : string;
  worker : int;  (** pinned {!Explore.Pool.Service} worker index *)
  scope : Obs.Metrics.scope;  (** per-session accumulation cell set *)
  mutable edits : int;  (** edits applied since the upload *)
  mutable spec : Spec.t;  (** current system (worker-domain owned) *)
  mutable warm : Engine.warm option;  (** [None] until [load] finishes *)
  mutable last_outcomes : Engine.element_outcome list;
  mutable last_used : float;  (** [Unix.gettimeofday] of last dispatch *)
  mutable inflight : int;  (** dispatched, not yet completed requests *)
  mutable requests : int;  (** requests ever dispatched *)
}

type table

val table : max_sessions:int -> jobs:int -> unit -> table

val register : table -> spec:Spec.t -> (t, string) result
(** Creates a session (fresh id, worker pin, scope) and inserts it,
    evicting the least-recently-used idle session if the table is full;
    [Error] when every session is busy and nothing can be evicted.
    The caller dispatches the warming job afterwards. *)

val checkout : table -> string -> t option
(** Looks the session up, marking it busy ([inflight + 1]) and touching
    [last_used] — call when dispatching a request, and pair each
    checkout with exactly one {!checkin}. *)

val checkin : table -> t -> unit

val remove : table -> string -> bool
(** Drops the session from the table (its warm state is garbage).
    [false] when the id is unknown. *)

val count : table -> int

val evictions : table -> int
(** Sessions evicted by LRU pressure since the table was created. *)
