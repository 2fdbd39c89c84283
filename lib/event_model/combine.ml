module Time = Timebase.Time

(* Pairwise OR-combination.  Equation (3) is a (min over decompositions,
   max over parts) convolution of the delta_min curves; equation (4),
   rewritten over g_i(k) = delta_plus_i (k + 2), is a (max, min)
   convolution of the g curves.  Both are associative, so the n-ary
   combination is a left fold over pairs.

   For non-decreasing inputs both are order statistics of the two input
   sequences merged: eq. (3) at [n] is the n-th smallest of
   delta_min_a (1..) and delta_min_b (1..) together (the n smallest form
   a prefix pair a(1..k), b(1..n-k) whose maximum the split k attains),
   and eq. (4) at [n] is the (n-1)-th smallest of g_a (0..) and g_b (0..)
   by the same argument.  So each pair keeps a two-pointer merge over
   grow-on-demand packed prefix tables (one [Curve.eval_range_into] per
   extension), extended only as far as a probe asks: amortised O(1) per
   index, with the inputs probed no deeper than [n]. *)

let rec next_pow2 k n = if k >= n then k else next_pow2 (k * 2) n

let grow buf filled need =
  if need <= Array.length buf then buf
  else begin
    let grown = Array.make (next_pow2 64 need) 0 in
    Array.blit buf 0 grown 0 filled;
    grown
  end

type merge = {
  ca : Curve.t;
  cb : Curve.t;
  offset : int;  (* table index i holds the value at curve index i + offset *)
  mutable va : int array;
  mutable vb : int array;
  mutable filled : int;  (* va, vb indices 0 .. filled - 1 are valid *)
  mutable out : int array;  (* merged values in ascending order *)
  mutable len : int;  (* out indices 0 .. len - 1 are valid *)
  mutable ia : int;  (* va.(0 .. ia - 1) are merged, vb.(0 .. len - ia - 1) *)
}

let merge ca cb ~offset =
  { ca; cb; offset; va = [||]; vb = [||]; filled = 0; out = [||]; len = 0;
    ia = 0 }

(* The [p]-th smallest merged value (0-based).  Both heads stay <= p
   while the merge fills out.(len .. p).  Packed comparisons agree with
   Time comparisons (Inf = max_int dominates). *)
let nth m p =
  if p >= m.len then begin
    if p >= m.filled then begin
      let n0 = m.filled + m.offset and len = p + 1 - m.filled in
      m.va <- grow m.va m.filled (p + 1);
      m.vb <- grow m.vb m.filled (p + 1);
      Curve.eval_range_into m.ca ~n0 ~len ~dst:m.va ~pos:m.filled;
      Curve.eval_range_into m.cb ~n0 ~len ~dst:m.vb ~pos:m.filled;
      m.filled <- p + 1
    end;
    m.out <- grow m.out m.len (p + 1);
    let va = m.va and vb = m.vb and out = m.out and ia = ref m.ia in
    for q = m.len to p do
      let x = va.(!ia) and y = vb.(q - !ia) in
      if x <= y then begin
        out.(q) <- x;
        incr ia
      end
      else out.(q) <- y
    done;
    m.ia <- !ia;
    m.len <- p + 1
  end;
  let v = m.out.(p) in
  if v = Curve.packed_inf then Time.Inf else Time.of_int v

let or_pair a b =
  let curves f = merge (f a) (f b) in
  let dmin = curves Stream.delta_min_curve ~offset:1
  and g = curves Stream.delta_plus_curve ~offset:2 in
  Stream.make ~name:"or-pair"
    ~delta_min:(fun n -> if n <= 1 then Time.zero else nth dmin (n - 1))
    ~delta_plus:(fun n -> if n <= 1 then Time.zero else nth g (n - 2))

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
