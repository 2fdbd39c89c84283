module Time = Timebase.Time
module Interval = Timebase.Interval

(* Memoized recurrence: the construction for closure-backed inputs,
   whose curves have no periodic tail to build a compact output from. *)
let output_curves_scalar ~r_minus ~spread stream =
  let delta_min =
    Curve.make_rec (fun self n ->
      if n <= 1 then Time.zero
      else
        Time.max
          (Time.sub_clamped (Stream.delta_min stream n) (Time.of_int spread))
          (Time.add (self (n - 1)) (Time.of_int r_minus)))
  in
  let delta_plus =
    Curve.make (fun n ->
      if n <= 1 then Time.zero
      else Time.add (Stream.delta_plus stream n) (Time.of_int spread))
  in
  (delta_min, delta_plus)

(* ------------------------------------------------------------------ *)
(* Compact construction.

   When the input delta_min is compact periodic (prefix length [plen],
   tail [(pe, pt)]), the output recurrence

     out n = max (max (in n - spread) 0) (out (n-1) + r)

   is itself eventually periodic: unrolling gives
   [out n = n*r + max (-r) (G n)] with
   [G n = max over 2 <= k <= n of (in k - spread - k*r)], and
   [in (n + pe) = in n + pt] holds for every [n >= max 2 (plen+2-pe)]
   (inside the prefix the representation maps tail indices back onto the
   last [pe] prefix entries).  With [delta = pt - pe*r]:

   - [delta <= 0]: the chain term wins: [G] is constant from
     [p0 = plen+1+pe] on, so [out (n+1) = out n + r] — tail [(1, r)].
   - [delta > 0]: the arrival term wins eventually — tail [(pe, pt)].

   Rather than trusting the closed form, the constructor computes the
   exact recurrence up to a candidate prefix end [p] and {e verifies} one
   full period beyond it ([out n = out (n - pe') + pt'] for
   [p < n <= p + pe]).  That check is a sound certificate: both the
   candidate curve and the true recurrence then shift additively
   ([X (n+pe) = X n + pt'*(pe/pe')], [c (n+pe) <= c n + pt] with equality
   beyond the clamp point), so agreement on one period propagates to all
   larger [n] by induction.  For the [(pe, pt)] tail the clamp
   [max (in n - spread) 0] must already be inactive throughout the tail
   ([in n >= spread] from [n_c] on), hence the [n_c + pe] floor on [p];
   for the [(1, r)] tail the inequality direction suffices.  If the
   window check fails the prefix is extended; past a cap the constructor
   falls back to the scalar closure, so compactness is an optimisation,
   never a change in semantics. *)

let rec grow_to arr n =
  let len = Array.length !arr in
  if n >= len then begin
    let grown = Array.make (Stdlib.max 64 (grow_len len n)) 0 in
    Array.blit !arr 0 grown 0 len;
    arr := grown
  end

and grow_len len n =
  let rec go k = if k > n then k else go (k * 2) in
  go (Stdlib.max 64 len)

let compact_delta_min ~r ~spread in_curve =
  match Curve.periodic_tail in_curve with
  | None -> None
  | Some (plen, pe, pt) ->
    if r < 0 || spread < 0 then None
    else begin
      let delta = pt - (pe * r) in
      let pe', pt' = if delta > 0 then (pe, pt) else (1, r) in
      let cap = plen + (8 * pe) + 4096 in
      let n_c =
        if delta <= 0 || spread = 0 then 2
        else
          (* first n with in n >= spread; in grows without bound here
             (pt > pe*r >= 0) so the search terminates *)
          1 + Curve.count_lt_packed in_curve ~lo:1 ~limit:spread
      in
      if n_c > cap then None
      else begin
        let p0 = plen + 1 + pe in
        let start =
          Stdlib.max
            (Stdlib.max p0 (pe + 1))
            (if delta > 0 then n_c + pe else 2)
        in
        let inv = ref [||] and out = ref [||] in
        let filled = ref 0 in
        (* make indices 0 .. n of both tables valid *)
        let ensure n =
          if n >= !filled then begin
            grow_to inv n;
            grow_to out n;
            let n0 = !filled in
            Curve.eval_range_into in_curve ~n0 ~len:(n + 1 - n0) ~dst:!inv
              ~pos:n0;
            let iv = !inv and ov = !out in
            for k = n0 to n do
              if k <= 1 then ov.(k) <- 0
              else begin
                let arrival = iv.(k) - spread in
                let arrival = if arrival < 0 then 0 else arrival in
                let chain = ov.(k - 1) + r in
                ov.(k) <- (if arrival >= chain then arrival else chain)
              end
            done;
            filled := n + 1
          end
        in
        let rec attempt p =
          if p > cap then None
          else begin
            ensure (p + pe);
            let ov = !out in
            let ok = ref true in
            for n = p + 1 to p + pe do
              if ov.(n) <> ov.(n - pe') + pt' then ok := false
            done;
            if not !ok then attempt (p + pe)
            else begin
              let prefix = Array.sub ov 2 (p - 1) in
              match
                Curve.periodic ~prefix ~period_events:pe' ~period_time:pt'
              with
              | curve -> Some curve
              | exception Invalid_argument _ -> None
            end
          end
        in
        attempt start
      end
    end

let compact_delta_plus ~spread in_plus =
  match Curve.periodic_tail in_plus with
  | None -> None
  | Some (plen, pe, pt) ->
    if spread < 0 then None
    else begin
      (* out n = in n + spread for n >= 2 inherits the tail verbatim *)
      let prefix = Array.make plen 0 in
      Curve.eval_range_into in_plus ~n0:2 ~len:plen ~dst:prefix ~pos:0;
      for i = 0 to plen - 1 do
        prefix.(i) <- prefix.(i) + spread
      done;
      match Curve.periodic ~prefix ~period_events:pe ~period_time:pt with
      | curve -> Some curve
      | exception Invalid_argument _ -> None
    end

let output ?name ~response stream =
  let r_minus = Interval.lo response in
  let spread = Interval.width response in
  let scalar () = output_curves_scalar ~r_minus ~spread stream in
  let delta_min, delta_plus =
    let dmin =
      compact_delta_min ~r:r_minus ~spread (Stream.delta_min_curve stream)
    in
    let dplus = compact_delta_plus ~spread (Stream.delta_plus_curve stream) in
    match (dmin, dplus) with
    | Some dm, Some dp -> (dm, dp)
    | Some dm, None ->
      let _, dp = scalar () in
      (dm, dp)
    | None, Some dp ->
      let dm, _ = scalar () in
      (dm, dp)
    | None, None -> scalar ()
  in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "out(%s)" (Stream.name stream)
  in
  Stream.of_curves ~name ~delta_min ~delta_plus
