(* Sample statistics, metric records, the failure tally and the result
   line the benchmark prints last. *)

(* Nearest-rank percentile of unsorted [samples].  It is refused unless
   at least [min_beyond] samples lie beyond it, so a p90 needs at least
   100 samples. *)
let percentile ?(min_beyond = 10) samples p =
  let n = Array.length samples in
  let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
  if n = 0 then Error "no samples"
  else if n - rank < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it, got %d of %d" p min_beyond
         (n - rank) n)
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    Ok sorted.(min (n - 1) (rank - 1))
  end

(* The median of a handful of values (set-up repetitions, seeds). *)
let median samples =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    if n mod 2 = 1 then sorted.(n / 2) else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.
  end

let valid_name name =
  name <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

(* ------------------------------------------------------------------ *)
(* Failures *)

(* Attempted and failed operations.  A failure is an error, a non-zero
   serve status, or an output that fails a correctness check; [notes]
   keeps the first few reasons for the report. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let tally () = { attempted = 0; failed = 0; notes = [] }

let record t ok ~why =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 8 then t.notes <- why () :: t.notes
  end

(* Counts [n] already-attempted operations as failed (a check that runs
   after the loop invalidates the ops whose output it covers). *)
let fail_attempted t n ~why =
  if n > 0 then begin
    t.failed <- t.failed + n;
    if List.length t.notes < 8 then t.notes <- why :: t.notes
  end

let error_rate t =
  if t.attempted = 0 then 1. else float_of_int t.failed /. float_of_int t.attempted

(* ------------------------------------------------------------------ *)
(* Metrics and the result line *)

type metric = {
  name : string;
  value : float;
  unit : string;
  samples : int;
}

let metric ?(samples = 1) name unit value = { name; value; unit; samples }

(* The last line of the benchmark's output.  A value that is not finite
   is printed as [null]. *)
let result_line ~correct ~attempted ~failed metrics =
  let module Json = Explore.Wire.Json in
  let value v = if Float.is_finite v then Json.Float v else Json.Null in
  Json.to_string
    (Json.Obj
       [ "correct", Json.Bool correct;
         "attempted", Json.Int attempted;
         "failed", Json.Int failed;
         "metrics",
         Json.Obj
           (List.map
              (fun m -> m.name, Json.Obj [ "value", value m.value; "unit", Json.Str m.unit ])
              metrics) ])

(* ------------------------------------------------------------------ *)
(* Machine *)

(* [VmHWM] (peak resident set) of a process, in MiB, from procfs. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (match pid with None -> "self" | Some p -> string_of_int p) in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let machine () =
  Printf.sprintf "nproc=%d ocaml=%s os=%s word=%d"
    (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.os_type Sys.word_size
