module Time = Timebase.Time

(* Pairwise OR-combination.  Equation (3) is a (min over decompositions,
   max over parts) convolution of the delta_min curves; equation (4),
   rewritten over g_i(k) = delta_plus_i (k + 2), is a (max, min)
   convolution of the g curves.  Both are associative, so the n-ary
   combination is a left fold over pairs. *)

(* The convolution at index [n] scans every split [k + (n - k)], so
   evaluating the combined curve up to a horizon [N] through per-probe
   memo lookups would cost O(N^2) underlying curve probes.  Instead each
   input curve is swept once into a growable packed value table
   (SoA, one [Curve.eval_range_into] per extension) and the scan runs on
   int arrays: O(N) underlying probes total, no allocation per split. *)

let rec next_pow2 k n = if k >= n then k else next_pow2 (k * 2) n

type table = {
  curve : Curve.t;
  offset : int;  (* table index i holds the value at curve index i + offset *)
  mutable buf : int array;
  mutable filled : int;  (* indices 0 .. filled - 1 are valid *)
}

let table curve ~offset = { curve; offset; buf = [||]; filled = 0 }

(* make indices 0 .. n valid *)
let ensure t n =
  if n >= t.filled then begin
    let need = n + 1 in
    if need > Array.length t.buf then begin
      let grown = Array.make (next_pow2 64 need) 0 in
      Array.blit t.buf 0 grown 0 t.filled;
      t.buf <- grown
    end;
    Curve.eval_range_into t.curve ~n0:(t.filled + t.offset)
      ~len:(need - t.filled) ~dst:t.buf ~pos:t.filled;
    t.filled <- need
  end

let or_pair a b =
  let ta = table (Stream.delta_min_curve a) ~offset:0
  and tb = table (Stream.delta_min_curve b) ~offset:0 in
  let delta_min n =
    if n <= 1 then Time.zero
    else begin
      ensure ta n;
      ensure tb n;
      let va = ta.buf and vb = tb.buf in
      (* min over k = 0..n of max (va k) (vb (n - k)); packed comparisons
         agree with Time comparisons (Inf = max_int dominates) *)
      let best = ref (Stdlib.max va.(0) vb.(n)) in
      for k = 1 to n do
        let x = va.(k) and y = vb.(n - k) in
        let v = if x >= y then x else y in
        if v < !best then best := v
      done;
      if !best = Curve.packed_inf then Time.Inf else Time.of_int !best
    end
  in
  (* g_i(k) = delta_plus_i (k + 2): table index k maps to curve index k + 2 *)
  let ga = table (Stream.delta_plus_curve a) ~offset:2
  and gb = table (Stream.delta_plus_curve b) ~offset:2 in
  let delta_plus n =
    if n <= 1 then Time.zero
    else begin
      let budget = n - 2 in
      ensure ga budget;
      ensure gb budget;
      let va = ga.buf and vb = gb.buf in
      (* max over k = 0..budget of min (ga k) (gb (budget - k)) *)
      let best = ref (Stdlib.min va.(0) vb.(budget)) in
      for k = 1 to budget do
        let x = va.(k) and y = vb.(budget - k) in
        let v = if x <= y then x else y in
        if v > !best then best := v
      done;
      if !best = Curve.packed_inf then Time.Inf else Time.of_int !best
    end
  in
  Stream.make ~name:"or-pair" ~delta_min ~delta_plus

let or_combine ?name streams =
  match streams with
  | [] -> invalid_arg "Combine.or_combine: empty stream list"
  | first :: rest ->
    let combined = List.fold_left or_pair first rest in
    let name =
      match name with
      | Some n -> n
      | None ->
        Printf.sprintf "or(%s)"
          (String.concat "," (List.map Stream.name streams))
    in
    Stream.with_name name combined

let and_combine ?name streams =
  match streams with
  | [] -> invalid_arg "Combine.and_combine: empty stream list"
  | _ :: _ ->
    let name =
      match name with
      | Some n -> n
      | None ->
        Printf.sprintf "and(%s)"
          (String.concat "," (List.map Stream.name streams))
    in
    let fold pick f n =
      match List.map (fun s -> f s n) streams with
      | [] -> assert false
      | v :: vs -> List.fold_left pick v vs
    in
    Stream.make ~name
      ~delta_min:(fold Time.min Stream.delta_min)
      ~delta_plus:(fold Time.max Stream.delta_plus)
