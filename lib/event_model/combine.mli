(** Event-stream combination operators.

    Stream constructors combine the input streams of a task with multiple
    inputs into a single activating stream (Jersak).  The OR-combination
    implements the paper's eqs. (3)-(4) exactly; both equations range over
    contribution vectors and are computed here as associative pairwise
    convolutions in the (min,max) resp. (max,min) structure.

    For non-decreasing inputs each pairwise convolution is an order
    statistic of the two input sequences merged: eq. (3) at [n] is the
    n-th smallest of [delta_min_a 1, delta_min_a 2, ...] and
    [delta_min_b 1, ...] together, eq. (4) at [n] the (n-1)-th smallest
    of [delta_plus_a 2, delta_plus_a 3, ...] and [delta_plus_b 2, ...].
    Each pair therefore keeps a two-pointer merge over packed prefix
    tables of its inputs, extended only as far as a probe asks: a probe
    at [n] evaluates the inputs up to [n] at most, and every index costs
    amortised O(1) instead of the O(n) split scan ([Verify.Oracle]
    keeps that scan as its reference).  The merge relies on monotone
    inputs, which {!Curve.make} requires and [Verify.Stream] audits;
    on a decreasing input the result is unspecified. *)

val or_combine : ?name:string -> Stream.t list -> Stream.t
(** [or_combine streams] is the OR-activation stream: every input event
    produces one output event.

    - [delta_min n = min over contribution vectors K (sum = n) of
      max_i delta_min_i k_i]  (eq. 3)
    - [delta_plus n = max over contribution vectors K (sum = n - 2) of
      min_i delta_plus_i (k_i + 2)]  (eq. 4)

    @raise Invalid_argument on the empty list. *)

val and_combine : ?name:string -> Stream.t list -> Stream.t
(** [and_combine streams] is a conservative AND-activation stream: the j-th
    output event occurs when the j-th event of every input has arrived.
    Sound bounds: [delta_min n = min_i delta_min_i n] and
    [delta_plus n = max_i delta_plus_i n] (the j-th output follows the
    latest input, so spacing can neither shrink below the tightest input
    spacing nor stretch beyond the widest).

    @raise Invalid_argument on the empty list. *)
