(* Tests for stream combination: OR-activation against brute-force
   enumeration of contribution vectors (paper, eqs. 3-4), algebraic
   properties, and the conservative AND-activation bounds. *)

module Time = Timebase.Time
module Count = Timebase.Count
module Stream = Event_model.Stream
module Combine = Event_model.Combine

let time = Alcotest.testable Time.pp Time.equal

(* Enumerate contribution vectors (k_1..k_m) with sum = total, k_i >= 0. *)
let rec contribution_vectors m total =
  if m = 1 then [ [ total ] ]
  else
    List.concat_map
      (fun k ->
        List.map (fun rest -> k :: rest) (contribution_vectors (m - 1) (total - k)))
      (List.init (total + 1) Fun.id)

(* eq. (3) verbatim: min over K (sum = n) of max_i delta_min_i k_i *)
let brute_or_delta_min streams n =
  if n <= 1 then Time.zero
  else
    contribution_vectors (List.length streams) n
    |> List.map (fun ks ->
         List.fold_left2
           (fun acc s k -> Time.max acc (Stream.delta_min s k))
           Time.zero streams ks)
    |> List.fold_left Time.min Time.Inf

(* eq. (4) verbatim: max over K (sum = n - 2) of min_i delta_plus_i (k_i + 2) *)
let brute_or_delta_plus streams n =
  if n <= 1 then Time.zero
  else
    contribution_vectors (List.length streams) (n - 2)
    |> List.map (fun ks ->
         match
           List.map2 (fun s k -> Stream.delta_plus s (k + 2)) streams ks
         with
         | [] -> Time.zero
         | v :: vs -> List.fold_left Time.min v vs)
    |> List.fold_left Time.max Time.zero

let paper_sources =
  [
    Stream.periodic ~name:"S1" ~period:250;
    Stream.periodic ~name:"S2" ~period:450;
  ]

let test_or_pair_vs_brute () =
  let combined = Combine.or_combine paper_sources in
  for n = 0 to 12 do
    Alcotest.check time
      (Printf.sprintf "delta_min %d" n)
      (brute_or_delta_min paper_sources n)
      (Stream.delta_min combined n);
    Alcotest.check time
      (Printf.sprintf "delta_plus %d" n)
      (brute_or_delta_plus paper_sources n)
      (Stream.delta_plus combined n)
  done

let test_or_triple_vs_brute () =
  let streams =
    [
      Stream.periodic ~name:"a" ~period:100;
      Stream.periodic_jitter ~name:"b" ~period:170 ~jitter:40 ();
      Stream.sporadic ~name:"c" ~d_min:60;
    ]
  in
  let combined = Combine.or_combine streams in
  for n = 0 to 9 do
    Alcotest.check time
      (Printf.sprintf "delta_min %d" n)
      (brute_or_delta_min streams n)
      (Stream.delta_min combined n);
    Alcotest.check time
      (Printf.sprintf "delta_plus %d" n)
      (brute_or_delta_plus streams n)
      (Stream.delta_plus combined n)
  done

let test_or_known_values () =
  (* hand-computed for the paper's sources: two simultaneous arrivals are
     possible, the third event is at least 250 away *)
  let combined = Combine.or_combine paper_sources in
  Alcotest.check time "delta_min 2" Time.zero (Stream.delta_min combined 2);
  Alcotest.check time "delta_min 3" (Time.of_int 250) (Stream.delta_min combined 3);
  Alcotest.check time "delta_plus 2" (Time.of_int 250) (Stream.delta_plus combined 2)

let test_or_single_stream () =
  let s = Stream.periodic ~name:"p" ~period:42 in
  let combined = Combine.or_combine ~name:"same" [ s ] in
  for n = 2 to 8 do
    Alcotest.check time
      (Printf.sprintf "identity %d" n)
      (Stream.delta_min s n)
      (Stream.delta_min combined n)
  done

let test_or_empty_rejected () =
  Alcotest.(check bool) "raises" true
    (match Combine.or_combine [] with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_or_default_name () =
  let combined = Combine.or_combine paper_sources in
  Alcotest.(check string) "name" "or(S1,S2)" (Stream.name combined)

let test_and_bounds () =
  let a = Stream.periodic ~name:"a" ~period:100
  and b = Stream.periodic_jitter ~name:"b" ~period:100 ~jitter:30 () in
  let combined = Combine.and_combine [ a; b ] in
  (* delta_min = min of inputs, delta_plus = max of inputs *)
  for n = 2 to 8 do
    Alcotest.check time
      (Printf.sprintf "delta_min %d" n)
      (Time.min (Stream.delta_min a n) (Stream.delta_min b n))
      (Stream.delta_min combined n);
    Alcotest.check time
      (Printf.sprintf "delta_plus %d" n)
      (Time.max (Stream.delta_plus a n) (Stream.delta_plus b n))
      (Stream.delta_plus combined n)
  done;
  Alcotest.(check string) "name" "and(a,b)" (Stream.name combined);
  Alcotest.(check bool) "empty raises" true
    (match Combine.and_combine [] with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* properties *)

let arb_stream =
  let open QCheck in
  map
    (fun (p, j) ->
      Stream.periodic_jitter ~name:"s" ~period:(Stdlib.max 1 p)
        ~jitter:(Stdlib.max 0 j) ())
    (pair (int_range 1 200) (int_range 0 150))

let prop_or_matches_brute =
  QCheck.Test.make ~name:"or_combine matches contribution vectors" ~count:60
    (QCheck.pair (QCheck.pair arb_stream arb_stream) (QCheck.int_range 2 8))
    (fun ((a, b), n) ->
      let n = 2 + (abs n mod 8) in
      let streams = [ a; b ] in
      let combined = Combine.or_combine streams in
      Time.equal (Stream.delta_min combined n) (brute_or_delta_min streams n)
      && Time.equal (Stream.delta_plus combined n)
           (brute_or_delta_plus streams n))

(* The packed-table convolution behind [or_combine] against the
   verification layer's split-scan reference, over compact, sporadic
   (infinite delta_plus) and closure-backed (an OR result) inputs, on a
   dense prefix plus deep probes. *)
let arb_or_input =
  let open QCheck in
  let bursty =
    map
      (fun (p, b, d) ->
        let burst = 1 + (b mod 4) in
        Stream.periodic_burst ~name:"b" ~period:(Stdlib.max p (burst * d))
          ~burst ~d_min:d)
      (triple (int_range 10 300) (int_range 0 10) (int_range 1 15))
  in
  let sporadic =
    map (fun d -> Stream.sporadic ~name:"sp" ~d_min:d) (int_range 1 200)
  in
  let closure =
    map (fun (a, b) -> Combine.or_combine [ a; b ]) (pair arb_stream arb_stream)
  in
  oneof [ arb_stream; bursty; sporadic; closure ]

let or_reference_ns = List.init 65 Fun.id @ [ 100; 257; 1000 ]

let prop_or_pair_matches_reference =
  QCheck.Test.make ~name:"or_pair equals the split-scan reference" ~count:100
    (QCheck.pair arb_or_input arb_or_input) (fun (a, b) ->
      let kernel = Combine.or_combine [ a; b ] in
      let reference = Verify.Oracle.reference_or [ a; b ] in
      List.for_all
        (fun n ->
          Time.equal (Stream.delta_min kernel n) (Stream.delta_min reference n)
          && Time.equal (Stream.delta_plus kernel n)
               (Stream.delta_plus reference n))
        or_reference_ns)

let prop_or_commutative =
  QCheck.Test.make ~name:"or_combine commutative" ~count:60
    (QCheck.pair (QCheck.pair arb_stream arb_stream) (QCheck.int_range 2 10))
    (fun ((a, b), n) ->
      let ab = Combine.or_combine [ a; b ]
      and ba = Combine.or_combine [ b; a ] in
      Time.equal (Stream.delta_min ab n) (Stream.delta_min ba n)
      && Time.equal (Stream.delta_plus ab n) (Stream.delta_plus ba n))

let prop_or_associative =
  QCheck.Test.make ~name:"or_combine associative" ~count:40
    (QCheck.pair
       (QCheck.triple arb_stream arb_stream arb_stream)
       (QCheck.int_range 2 8)) (fun ((a, b, c), n) ->
      let left = Combine.or_combine [ Combine.or_combine [ a; b ]; c ]
      and flat = Combine.or_combine [ a; b; c ] in
      Time.equal (Stream.delta_min left n) (Stream.delta_min flat n)
      && Time.equal (Stream.delta_plus left n) (Stream.delta_plus flat n))

let prop_or_eta_additive =
  (* the OR stream admits exactly the union of events: its maximum arrival
     count is the sum of the inputs' maximum arrival counts *)
  QCheck.Test.make ~name:"eta_plus of OR = sum of eta_plus" ~count:60
    (QCheck.pair (QCheck.pair arb_stream arb_stream) (QCheck.int_range 1 600))
    (fun ((a, b), dt) ->
      let combined = Combine.or_combine [ a; b ] in
      Count.equal
        (Stream.eta_plus combined dt)
        (Count.add (Stream.eta_plus a dt) (Stream.eta_plus b dt)))

let prop_or_delta_min_dominated =
  (* combining can only tighten minimum distances *)
  QCheck.Test.make ~name:"or delta_min <= each input" ~count:60
    (QCheck.pair (QCheck.pair arb_stream arb_stream) (QCheck.int_range 2 10))
    (fun ((a, b), n) ->
      let combined = Combine.or_combine [ a; b ] in
      Time.(Stream.delta_min combined n <= Stream.delta_min a n)
      && Time.(Stream.delta_min combined n <= Stream.delta_min b n))

let prop_or_delta_plus_monotone =
  (* the n <= 1 -> 0 convention and monotonicity of eq. (4): the budget
     n - 2 goes negative at small n, which must never surface as a
     non-monotone or non-zero value *)
  QCheck.Test.make ~name:"or delta_plus monotone, zero at n <= 1" ~count:60
    (QCheck.pair arb_stream arb_stream) (fun (a, b) ->
      let c = Combine.or_combine [ a; b ] in
      Time.equal (Stream.delta_plus c 0) Time.zero
      && Time.equal (Stream.delta_plus c 1) Time.zero
      && List.for_all
           (fun n -> Time.(Stream.delta_plus c n <= Stream.delta_plus c (n + 1)))
           (List.init 11 (fun i -> i + 1)))

(* Concrete merged trace of two phased periodic sources; the OR bounds
   must be conservative for every phasing. *)
let merged_trace ~p1 ~f1 ~p2 ~f2 ~horizon =
  let times p f =
    let rec go t acc = if t > horizon then List.rev acc else go (t + p) (t :: acc) in
    go f []
  in
  List.sort Stdlib.compare (times p1 f1 @ times p2 f2)

let observed_spans n times =
  let arr = Array.of_list times in
  let len = Array.length arr in
  if len < n then None
  else begin
    let mn = ref max_int and mx = ref 0 in
    for i = 0 to len - n do
      let s = arr.(i + n - 1) - arr.(i) in
      if s < !mn then mn := s;
      if s > !mx then mx := s
    done;
    Some (!mn, !mx)
  end

let prop_or_conservative_vs_merged_trace =
  QCheck.Test.make ~name:"or bounds dominate merged concrete trace" ~count:60
    (QCheck.pair
       (QCheck.pair (QCheck.int_range 50 300) (QCheck.int_range 50 300))
       (QCheck.pair (QCheck.int_range 0 299) (QCheck.int_range 0 299)))
    (fun ((p1, p2), (f1, f2)) ->
      let f1 = f1 mod p1 and f2 = f2 mod p2 in
      let a = Stream.periodic ~name:"a" ~period:p1
      and b = Stream.periodic ~name:"b" ~period:p2 in
      let combined = Combine.or_combine [ a; b ] in
      let trace = merged_trace ~p1 ~f1 ~p2 ~f2 ~horizon:20_000 in
      List.for_all
        (fun n ->
          match observed_spans n trace with
          | None -> true
          | Some (mn, mx) ->
            Time.(Stream.delta_min combined n <= Time.of_int mn)
            && Time.(Time.of_int mx <= Stream.delta_plus combined n))
        [ 2; 3; 4; 6; 10 ])

let () =
  Alcotest.run "combine"
    [
      ( "or",
        [
          Alcotest.test_case "pair vs brute force" `Quick test_or_pair_vs_brute;
          Alcotest.test_case "triple vs brute force" `Quick
            test_or_triple_vs_brute;
          Alcotest.test_case "known values" `Quick test_or_known_values;
          Alcotest.test_case "single stream" `Quick test_or_single_stream;
          Alcotest.test_case "empty rejected" `Quick test_or_empty_rejected;
          Alcotest.test_case "default name" `Quick test_or_default_name;
        ] );
      "and", [ Alcotest.test_case "bounds" `Quick test_and_bounds ];
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_or_matches_brute;
            prop_or_pair_matches_reference;
            prop_or_commutative;
            prop_or_associative;
            prop_or_eta_additive;
            prop_or_delta_min_dominated;
            prop_or_delta_plus_monotone;
            prop_or_conservative_vs_merged_trace;
          ] );
    ]
