type result = {
  delay : int option;
  backlog : int option;
  output_upper : Curve.t option;
  remaining_lower : Curve.t;
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let lcm a b = a / gcd a b * b

let remaining_service ~arrival_upper ~service_lower =
  (* beta' dt = max over 0 <= s <= dt of (beta s - alpha (s + 1)), clamped
     at 0 and computed with a running maximum; the [s + 1] closes the
     half-open arrival window (see {!Curve.horizontal_deviation}) *)
  let beta, alpha = Curve.harmonise service_lower arrival_upper in
  let h = Stdlib.max (Curve.horizon beta) (Curve.horizon alpha) in
  let witness dt = Curve.eval beta dt - Curve.eval alpha (dt + 1) in
  let samples = Array.make (h + 1) 0 in
  let best = ref 0 in
  for dt = 0 to h do
    best := Stdlib.max !best (witness dt);
    samples.(dt) <- Stdlib.max 0 !best
  done;
  (* tail rate: service rate minus arrival rate over one common period
     (exact, not a window-difference estimate).  When positive, the
     witness beta - alpha advances by exactly that integral amount per
     period beyond the sampled range, so probing one period certifies
     the anchor slack; when zero the monotone running maximum makes the
     flat anchor sound as is. *)
  let nb, db = Curve.tail_rate beta and na, da = Curve.tail_rate alpha in
  let l = lcm db da in
  let num = (nb * (l / db)) - (na * (l / da)) in
  if num <= 0 then
    Curve.of_samples ~kind:Curve.Lower ~tail_rate:(0, 1) ~tail_offset:0 samples
  else begin
    let anchor = samples.(h) in
    let slack = ref 0 in
    for x = 1 to l do
      let d = anchor + (x * num / l) - witness (h + x) in
      if d > !slack then slack := d
    done;
    Curve.of_samples ~kind:Curve.Lower ~tail_rate:(num, l)
      ~tail_offset:(- !slack) samples
  end

(* alpha (/) beta directly against the lower service curve; an
   overloaded component (arrival rate > service rate) has no finite-rate
   output bound, which deconvolution reports as Unstable rather than
   silently truncating the supremum *)
let output_upper ~arrival_upper ~service_lower =
  match Curve.min_plus_deconv arrival_upper service_lower with
  | c -> Some c
  | exception Curve.Unstable _ -> None

let process ~arrival_upper ~service_lower =
  {
    delay = Curve.horizontal_deviation ~upper:arrival_upper ~lower:service_lower;
    backlog = Curve.vertical_deviation ~upper:arrival_upper ~lower:service_lower;
    output_upper = output_upper ~arrival_upper ~service_lower;
    remaining_lower = remaining_service ~arrival_upper ~service_lower;
  }

type fp_task = {
  name : string;
  arrival_upper : Curve.t;
}

let fixed_priority_chain ~service tasks =
  let rec chain beta acc = function
    | [] -> List.rev acc
    | task :: rest ->
      let result = process ~arrival_upper:task.arrival_upper ~service_lower:beta in
      chain result.remaining_lower ((task.name, result) :: acc) rest
  in
  chain service [] tasks
