(** Output-model propagation (pyCPA-inspired): one operation, a table
    of terms.

    The analysis engine turns an analysed element's input stream and
    response-time interval into an output stream.  Every mode does it
    the same way: the output minimum-distance curve is the pointwise
    max of a few sound lower bounds, and a mode is one row of a table
    saying which of them it takes (pyCPA's layout).  With
    [J = r+ - r-] the terms are

    - the jitter term [max 0 (d n - J)], taken by every row (Richter's
      output jitter equation);
    - floors [(n-1) * rate] for rates drawn from [0], [r-] (best-case
      serialization) and [bmin] (minimum service);
    - the busy-window term [min_q (d (n+q-1) - finish q) + r-]
      (Schliecker-style), from the per-activation completion times of
      the maximal busy window; skipped when no profile is available;
    - the paper's Theta_tau recursion
      [d' n = max (d n - J) (d' (n-1) + r-)] ({!Task_op.output}).

    The rows:

    {v
    mode           floors       busy window   Theta_tau
    theta_tau      -            no            yes   (the repo default)
    jitter         0            no            no    (pyCPA 'jitter')
    jitter_offset  r-           no            no    (pyCPA 'jitter_offset')
    jitter_bmin    bmin         no            no    (pyCPA 'jitter_bmin')
    busy_window    r-           yes           no
    optimal        r-, bmin     yes           yes   (tightest sound output)
    v}

    Stream curves carry no phases, so pyCPA's offset shift itself is
    invisible in [jitter_offset].  All rows share the output
    maximum-distance curve [delta_plus' n = delta_plus n + J]. *)

type mode =
  | Theta_tau
  | Jitter
  | Jitter_offset
  | Jitter_bmin
  | Busy_window
  | Optimal

val all_modes : mode list

val mode_name : mode -> string

val mode_of_name : string -> mode option

val uses_profile : mode -> bool
(** Whether the mode's row takes the busy-window term, i.e. whether
    {!derive} reads its [profile] argument.  For every other mode the
    profile is ignored. *)

(** Per-activation completion data of one maximal busy window: for
    [q = 1 .. Array.length finishes], [arrivals.(q-1)] is the earliest
    arrival of the q-th activation and [finishes.(q-1)] its worst-case
    completion, both relative to the window start. *)
type profile = {
  arrivals : int array;
  finishes : int array;
}

val profile : arrivals:int array -> finishes:int array -> profile
(** Validating constructor (copies its inputs).
    @raise Invalid_argument on length mismatch, empty data, a completion
    before its arrival, or non-monotone columns. *)

val profile_equal : profile -> profile -> bool

val derive :
  ?name:string ->
  mode:mode ->
  response:Timebase.Interval.t ->
  bmin:int ->
  ?profile:profile ->
  Stream.t ->
  Stream.t
(** [derive ~mode ~response ~bmin stream] is the output stream of an
    element with response interval [response] processing [stream], under
    the given propagation mode.  [bmin] is the element's minimum service
    time (floor of the execution / transmission interval); [profile] is
    the busy-window completion data, read only when {!uses_profile}
    holds.  A row whose only term is Theta_tau delegates to
    {!Task_op.output} (including its compact kernel path).

    Every other row goes one way.  When the input's minimum-distance
    curve carries a compact periodic tail, the max over the row's terms
    is built as a compact periodic output curve, certified by a verified
    attainment window (see the implementation comment).  Downstream
    consumers that branch on exact periodic tails — notably
    {!Shaper.delay_bound} — then take their exact path instead of
    heuristic wide-window fallbacks.  When no tail is available (or the
    certificate search hits its cap), the result is the closure over the
    same terms; values are identical either way.  Rows that take
    Theta_tau keep its maximum-distance curve; the others build the
    [+ J] shift, compact when the input's is.
    @raise Invalid_argument when [bmin < 0]. *)
