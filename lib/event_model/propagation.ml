module Time = Timebase.Time
module Interval = Timebase.Interval

type mode =
  | Theta_tau
  | Jitter
  | Jitter_offset
  | Jitter_bmin
  | Busy_window
  | Optimal

(* ------------------------------------------------------------------ *)
(* The term table.

   Throughout, [J = r+ - r-] is the response-time spread (output jitter
   amplification).  Every mode's output minimum-distance curve is the
   pointwise max of a few sound lower bounds on the distance of [n]
   consecutive output events:

   - the {e jitter} term [max 0 (delta_min n - J)], taken by every row:
     the first of the n outputs leaves at the latest [r+] after its
     arrival, the last at the earliest [r-] after its own, and the
     arrivals are at least [delta_min n] apart (Richter's output jitter
     equation);
   - {e floors} [(n-1) * rate] for rates drawn from [0], [r-] (the
     serialization floor: successive completions of the same element are
     at least a best-case response apart) and [bmin] (the execution
     floor: each of the n-1 jobs between the two boundary outputs costs
     at least its minimum service time after its predecessor's
     completion, preemption only widens it);
   - the {e busy-window} term [min_q (delta_min (n + q - 1) - finish q)
     + r-] (Schliecker-style): if the first of the n outputs is the q-th
     activation of its busy window, it completes no later than
     [window start + finish q], while the last of the n arrives no
     earlier than [window start + delta_min (n + q - 1)] and completes at
     least [r-] after that.  Taking the minimum over every in-window
     position [q] covers all cases; the per-activation completions
     refine the single worst-case jitter [J] whenever the worst response
     is not attained by the window's first activation.  The term needs
     the busy-window completion profile and is skipped without one;
   - the paper's {e Theta_tau} recursion ({!Task_op.output}), which
     dominates the jitter term.

   Each term is monotone in [n], so any pointwise [max] of them is a
   well-formed distance curve, and the [max] of sound lower bounds is
   itself sound.  A mode is one row of this table and nothing else. *)

type rate =
  | Zero
  | R_minus
  | Bmin

type row = {
  mode : mode;
  name : string;
  floors : rate list;
  busy_window : bool;
  theta : bool;
}

let table =
  [
    { mode = Theta_tau; name = "theta_tau"; floors = [];
      busy_window = false; theta = true };
    { mode = Jitter; name = "jitter"; floors = [ Zero ];
      busy_window = false; theta = false };
    { mode = Jitter_offset; name = "jitter_offset"; floors = [ R_minus ];
      busy_window = false; theta = false };
    { mode = Jitter_bmin; name = "jitter_bmin"; floors = [ Bmin ];
      busy_window = false; theta = false };
    { mode = Busy_window; name = "busy_window"; floors = [ R_minus ];
      busy_window = true; theta = false };
    { mode = Optimal; name = "optimal"; floors = [ R_minus; Bmin ];
      busy_window = true; theta = true };
  ]

let row mode = List.find (fun r -> r.mode = mode) table

let all_modes = List.map (fun r -> r.mode) table

let mode_name m = (row m).name

let mode_of_name s =
  List.find_map (fun r -> if String.equal r.name s then Some r.mode else None)
    table

let uses_profile m = (row m).busy_window

type profile = {
  arrivals : int array;
  finishes : int array;
}

let profile ~arrivals ~finishes =
  if Array.length arrivals <> Array.length finishes then
    invalid_arg "Propagation.profile: length mismatch";
  if Array.length arrivals = 0 then
    invalid_arg "Propagation.profile: empty profile";
  let ok = ref true in
  for q = 0 to Array.length arrivals - 1 do
    if finishes.(q) < arrivals.(q) then ok := false;
    if q > 0 && (arrivals.(q) < arrivals.(q - 1) || finishes.(q) < finishes.(q - 1))
    then ok := false
  done;
  if not !ok then invalid_arg "Propagation.profile: non-monotone completion data";
  { arrivals = Array.copy arrivals; finishes = Array.copy finishes }

let profile_equal a b =
  a.arrivals = b.arrivals && a.finishes = b.finishes

(* ------------------------------------------------------------------ *)
(* Closure evaluation of the terms *)

let jitter_term stream ~spread n =
  Time.sub_clamped (Stream.delta_min stream n) (Time.of_int spread)

(* Unclamped busy-window candidate over the finish times [fin] (non-empty).
   The subtraction must stay raw: the candidate can legitimately be
   negative and clamping it before the outer [max] would raise the
   minimum unsoundly. *)
let busy_window_term stream ~r_minus ~fin n =
  let best = ref Time.Inf in
  for q = 1 to Array.length fin do
    let candidate =
      match Stream.delta_min stream (n + q - 1) with
      | Time.Inf -> Time.Inf
      | Time.Fin d -> Time.of_int (d - fin.(q - 1))
    in
    best := Time.min !best candidate
  done;
  Time.add !best (Time.of_int r_minus)

(* ------------------------------------------------------------------ *)
(* Compact construction.

   When the input's minimum-distance curve carries a compact periodic
   tail (plen, pe, pt), every term is eventually exactly pe-block
   periodic:

   - the jitter term inherits the input tail: for [n >= plen + 2],
     [term (n + pe) = term n + pt] (curve extension semantics);
   - a floor term with rate [r] satisfies
     [term (n + pe) = term n + pe * r] everywhere;
   - each busy-window candidate is the input curve shifted by [q - 1]
     events minus a constant, so it inherits the input tail, and so does
     the min of the finitely many of them;
   - the Theta_tau curve exposes its own compact tail whose pe-block
     increment is one of the same rates.

   Let [ptc] be the largest pe-block increment among the terms.  If at
   some index [n] the max is attained by a term with increment [ptc],
   then at [n + pe] that term gained [ptc] while every other term gained
   at most [ptc], so it still attains the max and
   [M (n + pe) = M n + ptc].  Verifying attainment on one full period
   [p+1 .. p+pe] past every term's analytic periodicity start therefore
   certifies [M (n + pe) = M n + ptc] for all [n > p], and the values up
   to [p + pe] are the prefix of an exact compact periodic curve.  If no
   attainment window is found below a cap (the crossover between a slow
   floor and a faster tail sits arbitrarily far out for extreme jitter),
   [derive] falls back to the closure over the same terms — never
   unsound, only less compact.  Compactness is what downstream consumers
   key on: [Shaper.delay_bound] takes its exact periodic-tail branch
   instead of the wide-window slope-estimate fallback, which
   misclassifies large-jitter inputs as unbounded. *)

let compact_delta_min_curve ~floors ~r_minus ~spread ~fin ?theta stream =
  let din = Stream.delta_min_curve stream in
  match Curve.periodic_tail din with
  | None -> None
  | Some (plen, pe, pt) -> begin
    let inf = Curve.packed_inf in
    let q_max = Array.length fin in
    let theta_tail =
      match theta with
      | None -> Some None
      | Some t -> begin
        match Curve.periodic_tail t with
        | Some (plen_t, pe_t, pt_t) when pe mod pe_t = 0 ->
          Some (Some (plen_t, (pe / pe_t) * pt_t))
        | Some _ | None -> None  (* incompatible block period: bail *)
      end
    in
    match theta_tail with
    | None -> None
    | Some theta_tail ->
      let rmax = List.fold_left Stdlib.max 0 floors in
      let ptc =
        Stdlib.max pt
          (Stdlib.max (pe * rmax)
             (match theta_tail with Some (_, inc) -> inc | None -> 0))
      in
      (* analytic periodicity start of every term *)
      let start =
        Stdlib.max (plen + 2)
          (match theta_tail with Some (p_t, _) -> p_t + 2 | None -> 2)
      in
      let cap = start + (16 * pe) + 8192 in
      (* packed input values for n = 2 .. cap + q_max - 1 *)
      let din_len = cap + q_max in
      let din_v = Array.make din_len 0 in
      Curve.eval_range_into din ~n0:2 ~len:din_len ~dst:din_v ~pos:0;
      let theta_v =
        match theta with
        | None -> [||]
        | Some t ->
          let v = Array.make (cap - 1) 0 in
          Curve.eval_range_into t ~n0:2 ~len:(cap - 1) ~dst:v ~pos:0;
          v
      in
      let exception Bail in
      (* value and dominant-term value (max over increment-ptc terms) *)
      let term_values n =
        let d = din_v.(n - 2) in
        if d = inf then raise Bail;
        let jit = Stdlib.max 0 (d - spread) in
        let m = ref jit in
        (* the clamp breaks exact pe-block periodicity while [d < spread],
           so the jitter term is only dominant once unclamped *)
        let dom = ref (if pt = ptc && d >= spread then jit else min_int) in
        List.iter
          (fun r ->
            let v = (n - 1) * r in
            if v > !m then m := v;
            if pe * r = ptc && v > !dom then dom := v)
          floors;
        if q_max > 0 then begin
          let best = ref max_int in
          for q = 1 to q_max do
            let d = din_v.(n + q - 3) in
            if d = inf then raise Bail;
            let c = d - fin.(q - 1) in
            if c < !best then best := c
          done;
          let bw = !best + r_minus in
          if bw > !m then m := bw;
          if pt = ptc && bw > !dom then dom := bw
        end;
        (match theta_tail with
         | Some (_, inc) ->
           let v = theta_v.(n - 2) in
           if v = inf then raise Bail;
           if v > !m then m := v;
           if inc = ptc && v > !dom then dom := v
         | None -> ());
        !m, !dom
      in
      match
        let values = Array.make (cap - 1) 0 in
        let run = ref 0 in
        let found = ref 0 in
        (try
           let n = ref 2 in
           while !found = 0 && !n <= cap do
             let m, dom = term_values !n in
             values.(!n - 2) <- m;
             if !n >= start && dom = m then begin
               incr run;
               if !run >= pe then found := !n
             end
             else run := 0;
             incr n
           done
         with Bail -> found := -1);
        !found, values
      with
      | 0, _ | -1, _ -> None
      | n, values ->
        (* prefix covers 2 .. n, tail (pe, ptc) certified for all
           indices past p = n - pe *)
        Some (Curve.periodic
                ~prefix:(Array.sub values 0 (n - 1))
                ~period_events:pe ~period_time:ptc)
  end

let compact_delta_plus_curve ~spread stream =
  let dp = Stream.delta_plus_curve stream in
  match Curve.periodic_tail dp with
  | None -> None
  | Some (plen, pe, pt) ->
    let vals = Array.make plen 0 in
    Curve.eval_range_into dp ~n0:2 ~len:plen ~dst:vals ~pos:0;
    if Array.exists (fun v -> v = Curve.packed_inf) vals then None
    else
      Some
        (Curve.periodic
           ~prefix:(Array.map (fun v -> v + spread) vals)
           ~period_events:pe ~period_time:pt)

(* ------------------------------------------------------------------ *)
(* One derive path for every row *)

let derive ?name ~mode ~response ~bmin ?profile stream =
  if bmin < 0 then invalid_arg "Propagation.derive: negative bmin";
  let row = row mode in
  if row.theta && row.floors = [] && not row.busy_window then
    (* Theta_tau alone (it dominates the jitter term): the exact
       recursion, including its compact kernel path *)
    Task_op.output ?name ~response stream
  else begin
    let r_minus = Interval.lo response in
    let spread = Interval.width response in
    let floors =
      List.map
        (function Zero -> 0 | R_minus -> r_minus | Bmin -> bmin)
        row.floors
    in
    let fin =
      match row.busy_window, profile with
      | true, Some p -> p.finishes
      | _ -> [||]
    in
    let theta =
      if row.theta then Some (Task_op.output ~response stream) else None
    in
    let name =
      match name with
      | Some n -> n
      | None -> Printf.sprintf "out(%s)" (Stream.name stream)
    in
    (* every row shares the [+ J] maximum-distance shift; Theta_tau's
       own curve is that shift too, and keeps its representation *)
    let delta_plus n =
      match theta with
      | Some t -> Stream.delta_plus t n
      | None -> Time.add (Stream.delta_plus stream n) (Time.of_int spread)
    in
    match
      compact_delta_min_curve ~floors ~r_minus ~spread ~fin
        ?theta:(Option.map Stream.delta_min_curve theta) stream
    with
    | Some delta_min ->
      let delta_plus =
        match theta with
        | Some t -> Stream.delta_plus_curve t
        | None -> begin
          match compact_delta_plus_curve ~spread stream with
          | Some c -> c
          | None -> Curve.make delta_plus
        end
      in
      Stream.of_curves ~name ~delta_min ~delta_plus
    | None ->
      let delta_min n =
        let m =
          List.fold_left
            (fun acc r -> Time.max acc (Time.of_int ((n - 1) * r)))
            (jitter_term stream ~spread n) floors
        in
        let m =
          if Array.length fin = 0 then m
          else Time.max m (busy_window_term stream ~r_minus ~fin n)
        in
        match theta with
        | Some t -> Time.max m (Stream.delta_min t n)
        | None -> m
      in
      Stream.make ~name ~delta_min ~delta_plus
  end
