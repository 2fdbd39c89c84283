module Time = Timebase.Time

let delay_bound ?(horizon = 4096) ~d stream =
  if d < 1 then invalid_arg "Shaper.delay_bound: d < 1";
  (* Backlog deficit after q events arriving as fast as possible: the q-th
     event leaves the shaper no earlier than (q-1)*d after the first, but
     may arrive as early as delta_min q after it.  The delay is unbounded
     exactly when the input's long-run rate exceeds the shaper rate 1/d. *)
  let scan_max_scalar q_max =
    let rec scan q worst =
      if q > q_max then worst
      else
        match Stream.delta_min stream q with
        | Time.Inf -> worst
        | Time.Fin dist -> scan (q + 1) (Stdlib.max worst (((q - 1) * d) - dist))
    in
    scan 2 0
  in
  (* Compact path: one range sweep fills a packed scratch array, the
     deficit scan then runs allocation-free on ints.
     Only used where every value is finite (compact curves are finite
     everywhere), so no per-probe Inf check is needed. *)
  let scan_max_batched q_max =
    if q_max < 2 then 0
    else begin
      let curve = Stream.delta_min_curve stream in
      let len = q_max - 1 in
      let vals = Array.make len 0 in
      Curve.eval_range_into curve ~n0:2 ~len ~dst:vals ~pos:0;
      let worst = ref 0 in
      for q = 2 to q_max do
        let deficit = ((q - 1) * d) - vals.(q - 2) in
        if deficit > !worst then worst := deficit
      done;
      !worst
    end
  in
  match Curve.periodic_tail (Stream.delta_min_curve stream) with
  | Some (prefix_len, period_events, period_time) ->
    (* Exact long-run rate from the compact tail: [period_events] events
       every [period_time].  The backlog diverges iff the input admits
       more than one event per [d] in the long run. *)
    if period_time < period_events * d then Time.Inf
    else
      (* Once past the prefix, each tail period adds [period_events * d]
         to the drain and [period_time >= period_events * d] to the
         distance, so the deficit is non-increasing from period to
         period; its maximum is attained within the prefix plus one tail
         period (scan a second period to be safe at the boundary). *)
      Time.of_int (scan_max_batched (prefix_len + (2 * period_events) + 1))
  | None ->
    (* Closure-backed curve: estimate the long-run rate from the distance
       growth over the second half of the horizon.  A transient (jitter
       burst) is confined to the first half for any jitter below
       [d * horizon / 2]; sustained over-rate input keeps the average
       step below [d] forever and is classified unbounded. *)
    let rate_exceeded =
      let half = horizon / 2 in
      match
        (Stream.delta_min stream horizon, Stream.delta_min stream (horizon - half))
      with
      | Time.Inf, _ | _, Time.Inf -> false
      | Time.Fin hi, Time.Fin lo -> hi - lo < half * d
    in
    if rate_exceeded then Time.Inf
    else
      (* closure values can be Inf (e.g. sporadic-derived): keep the
         early-stopping scalar scan *)
      Time.of_int (scan_max_scalar horizon)

let enforce_min_distance ?name ?horizon ~d stream =
  if d < 1 then invalid_arg "Shaper.enforce_min_distance: d < 1";
  let delay = delay_bound ?horizon ~d stream in
  let delta_min n =
    Time.max (Stream.delta_min stream n) (Time.of_int ((n - 1) * d))
  in
  let delta_plus n = Time.add (Stream.delta_plus stream n) delay in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "shaped(%s,d=%d)" (Stream.name stream) d
  in
  Stream.make ~name ~delta_min ~delta_plus
