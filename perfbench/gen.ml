(* Seeded input generator: system descriptions printed in the Spec_file
   grammar, warm-session edit knobs and exploration variant chunks.

   Everything here is a pure function of the seed, so the same seed gives
   byte-identical inputs.  The generator uses its own SplitMix64 stream
   rather than [Stdlib.Random], whose algorithm is not part of the
   language's stability guarantees. *)

module Spec = Cpa_system.Spec
module Spec_file = Cpa_system.Spec_file
module Space = Explore.Space
module Interval = Timebase.Interval

(* ------------------------------------------------------------------ *)
(* Random numbers *)

type rng = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rng seed = { state = mix (Int64.of_int seed) }

let next r =
  r.state <- Int64.add r.state golden;
  mix r.state

(* An independent stream per purpose, so adding draws to one generator
   never shifts the inputs of another.  Draws are sequenced with [let]
   throughout: OCaml leaves the evaluation order of arguments and list
   elements unspecified. *)
let split r tag = { state = mix (Int64.logxor (next r) (Int64.of_int tag)) }

let int r lo hi =
  if hi < lo then invalid_arg "Gen.int: empty range";
  lo + Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int (hi - lo + 1)))

let pick r arr = arr.(int r 0 (Array.length arr - 1))

(* An execution interval [lo:hi] with [lo] drawn from [lo_range] and [hi]
   from [hi_range]. *)
let interval r (l0, l1) (h0, h1) =
  let lo = int r l0 l1 in
  let hi = int r h0 h1 in
  Interval.make ~lo ~hi

let shuffle r arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int r 0 i in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

(* ------------------------------------------------------------------ *)
(* Systems *)

type backends =
  | All_rtc  (** every non-EDF resource on the curve backend *)
  | Alternating  (** every second non-EDF resource on the curve backend *)

type system = {
  name : string;
  desc : Spec_file.t;
  text : string;
      (** what the program receives: [Spec_file.print desc], or a library
          spec file as read *)
}

let with_backends choice (d : Spec_file.t) =
  let k = ref 0 in
  let resources =
    List.map
      (fun (r : Spec.resource) ->
        match r.scheduler, choice with
        | Spec.Edf, _ -> { r with backend = Spec.Cpa }
        | _, All_rtc -> { r with backend = Spec.Rtc }
        | _, Alternating ->
          incr k;
          { r with backend = (if !k mod 2 = 0 then Spec.Rtc else Spec.Cpa) })
      d.resources
  in
  { d with resources }

let system name desc = { name; desc; text = Spec_file.print desc }

let iv lo hi = Interval.make ~lo ~hi

let resource name scheduler = Spec.resource ~name scheduler

let task ?service ?deadline ~resource ~cet ~priority name activation =
  Spec.task ~name ~resource ~cet ~priority ?service ?deadline ~activation ()

let describe ~sources ~resources ~tasks ~frames =
  { Spec_file.sources; resources; tasks; frames;
    default_propagation = Event_model.Propagation.Theta_tau }

let source ?(jitter = 0) name period =
  let desc =
    if jitter = 0 then Spec_file.Periodic period
    else Spec_file.Periodic_jitter { period; jitter; d_min = 1 }
  in
  { Spec_file.source_name = name; desc }

(* [n] periodic sources whose triggering signals are packed four per
   frame onto one CAN bus (even frames direct, odd frames mixed with a
   timer) and received by [n] tasks on one SPP CPU.  Periods scale with
   [n] so the CPU stays schedulable in the flat modes, where every
   receiver of a frame sees all of that frame's signals. *)
let fan_in ?(jitter = true) r ~signals:n =
  let base = 300 * n in
  let sources =
    List.init n (fun i ->
      let period = base + (50 * i) + int r 0 10 in
      let jitter = if jitter && i mod 3 = 2 then int r (period / 50) (period / 40) else 0 in
      source ~jitter (Printf.sprintf "s%d" (i + 1)) period)
  in
  let frame_count = max 1 (n / 4) in
  let frames =
    List.init frame_count (fun k ->
      let members = List.filter (fun i -> i mod frame_count = k) (List.init n Fun.id) in
      let send_type =
        if k mod 2 = 0 then Comstack.Frame.Direct
        else Comstack.Frame.Mixed (2 * base)
      in
      Spec.frame ~name:(Printf.sprintf "f%d" (k + 1)) ~bus:"can" ~send_type
        ~tx_time:(iv 2 (int r 3 4)) ~priority:(k + 1)
        ~signals:
          (List.map
             (fun i ->
               (* a pending signal rides along in mixed frames only: a
                  direct frame needs a triggering signal to be sent *)
               let property =
                 if k mod 2 = 1 && i = List.nth members 0 then Hem.Model.Pending
                 else Hem.Model.Triggering
               in
               Spec.signal ~name:(Printf.sprintf "sig%d" (i + 1)) ~property
                 ~origin:(Spec.From_source (Printf.sprintf "s%d" (i + 1))) ())
             members)
        ())
  in
  let tasks =
    List.init n (fun i ->
      let c = int r 19 21 in
      task ~resource:"cpu" ~cet:(iv (c - 5) c) ~priority:(i + 1)
        (Printf.sprintf "t%d" (i + 1))
        (Spec.From_signal
           { frame = Printf.sprintf "f%d" ((i mod frame_count) + 1);
             signal = Printf.sprintf "sig%d" (i + 1) }))
  in
  describe ~sources
    ~resources:[ resource "can" Spec.Spnp; resource "cpu" Spec.Spp ]
    ~tasks ~frames

(* A pipeline of [k] stages rotating over SPP, EDF, TDMA and round-robin
   CPUs, connected by task outputs (no frames: the three modes agree). *)
let chain r ~stages:k =
  let period = 1000 + int r 0 50 in
  let kinds = [| Spec.Spp; Spec.Edf; Spec.Tdma; Spec.Round_robin |] in
  let resources =
    List.init 4 (fun i -> resource (Printf.sprintf "c%d" i) kinds.(i))
  in
  let tasks =
    List.init k (fun i ->
      let res = i mod 4 in
      let c = int r 8 10 in
      let service, deadline =
        match kinds.(res) with
        | Spec.Tdma -> Some (int r 16 18), None
        | Spec.Round_robin -> Some (int r 9 11), None
        | Spec.Edf -> None, Some (period / 2)
        | Spec.Spp | Spec.Spnp -> None, None
      in
      task ?service ?deadline ~resource:(Printf.sprintf "c%d" res)
        ~cet:(iv (c - 4) c) ~priority:(i + 1)
        (Printf.sprintf "stage%d" (i + 1))
        (if i = 0 then Spec.From_source "src"
         else Spec.From_output (Printf.sprintf "stage%d" i)))
  in
  describe
    ~sources:[ source ~jitter:(int r (period / 25) (period / 20)) "src" period ]
    ~resources ~tasks ~frames:[]

(* A many-ECU network: per ECU a sense -> proc chain, proc outputs packed
   two signals per frame onto the ECU's CAN segment (one segment per
   eight ECUs), receivers on the neighbouring ECU unpacking each signal,
   and a gateway frame per extra segment repacking the previous
   segment's gateway signal, so repacking goes one hop deeper per
   segment.  ECU schedulers rotate over SPP, SPNP, round-robin, TDMA and
   EDF; periods are large against execution times, which keeps every
   mode convergent. *)
let network ?(jitter = true) r ~ecus =
  let kinds = [| Spec.Spp; Spec.Spnp; Spec.Round_robin; Spec.Tdma; Spec.Edf |] in
  let segments = max 1 (ecus / 8) in
  let segment e = e * segments / ecus in
  let cpu e = Printf.sprintf "ecu%d" e in
  let bus s = Printf.sprintf "bus%d" s in
  let resources =
    List.init ecus (fun e -> resource (cpu e) kinds.(e mod 5))
    @ List.init segments (fun s -> resource (bus s) Spec.Spnp)
  in
  let slot = Array.init ecus (fun _ -> int r 45 55) in
  let on_ecu e ~cet ~priority name activation =
    let service, deadline =
      match kinds.(e mod 5) with
      | Spec.Tdma | Spec.Round_robin -> Some slot.(e), None
      | Spec.Edf -> None, Some (1500 + (10 * priority))
      | Spec.Spp | Spec.Spnp -> None, None
    in
    task ?service ?deadline ~resource:(cpu e) ~cet ~priority name activation
  in
  let sources =
    List.init ecus (fun e ->
      let period = 10 * int r 300 360 in
      let jitter = if jitter then 10 * int r 0 (period / 400) else 0 in
      source ~jitter (Printf.sprintf "S%d" e) period)
  in
  let tasks = ref [] in
  let add t = tasks := t :: !tasks in
  for e = 0 to ecus - 1 do
    add (on_ecu e ~cet:(interval r (7, 8) (14, 16)) ~priority:1
           (Printf.sprintf "sense%d" e) (Spec.From_source (Printf.sprintf "S%d" e)));
    add (on_ecu e ~cet:(interval r (7, 8) (16, 19)) ~priority:2
           (Printf.sprintf "proc%d" e) (Spec.From_output (Printf.sprintf "sense%d" e)))
  done;
  let frames = ref [] in
  let frame_count = (ecus + 1) / 2 in
  for f = 0 to frame_count - 1 do
    let members = List.filter (fun e -> e < ecus) [ 2 * f; (2 * f) + 1 ] in
    let fname = Printf.sprintf "F%d" f in
    let mixed = f mod 2 = 1 in
    frames :=
      Spec.frame ~name:fname ~bus:(bus (segment (2 * f)))
        ~send_type:(if mixed then Comstack.Frame.Mixed 5000 else Comstack.Frame.Direct)
        ~tx_time:(iv 2 (int r 4 5)) ~priority:(f + 1)
        ~signals:
          (List.mapi
             (fun j e ->
               Spec.signal ~name:(Printf.sprintf "sig%d" e)
                 ~property:(if mixed && j = 1 then Hem.Model.Pending else Hem.Model.Triggering)
                 ~origin:(Spec.From_output (Printf.sprintf "proc%d" e)) ())
             members)
        ()
      :: !frames;
    List.iter
      (fun e ->
        let rx = (e + 1) mod ecus in
        add (on_ecu rx ~cet:(interval r (7, 8) (14, 16)) ~priority:(3 + (e / 2))
               (Printf.sprintf "recv%d" e)
               (Spec.From_signal { frame = fname; signal = Printf.sprintf "sig%d" e })))
      members
  done;
  for s = 1 to segments - 1 do
    let origin =
      if s = 1 then Spec.From_signal { frame = "F0"; signal = "sig0" }
      else
        Spec.From_signal
          { frame = Printf.sprintf "GW%d" (s - 1); signal = Printf.sprintf "gw_sig%d" (s - 1) }
    in
    let gw = Printf.sprintf "GW%d" s in
    frames :=
      Spec.frame ~name:gw ~bus:(bus s) ~send_type:Comstack.Frame.Direct
        ~tx_time:(iv 2 4) ~priority:(frame_count + s)
        ~signals:[ Spec.signal ~name:(Printf.sprintf "gw_sig%d" s) ~origin () ]
        ()
      :: !frames;
    let rx = min (ecus - 1) (((s + 1) * ecus / segments) - 1) in
    add (on_ecu rx ~cet:(interval r (6, 7) (11, 13)) ~priority:(90 + s)
           (Printf.sprintf "gw_recv%d" s)
           (Spec.From_signal { frame = gw; signal = Printf.sprintf "gw_sig%d" s }))
  done;
  describe ~sources ~resources ~tasks:(List.rev !tasks) ~frames:(List.rev !frames)

(* A system with a structurally overloaded island: [hot] alone on its
   CPU needs more time than its period, so it is unbounded in every mode,
   while a healthy frame path and the higher-priority [ok_first] stay
   bounded.  The unbounded count (one per analysis) does not depend on
   the drawn values. *)
let overload r =
  let period = 1000 + int r 0 200 in
  describe
    ~sources:[ source "hot_src" period; source "ok_src" (2 * period) ]
    ~resources:
      [ resource "hot_cpu" Spec.Spp; resource "cpu" Spec.Spp; resource "can" Spec.Spnp ]
    ~frames:
      [ Spec.frame ~name:"ok_f" ~bus:"can" ~send_type:Comstack.Frame.Direct
          ~tx_time:(iv 2 4) ~priority:1
          ~signals:[ Spec.signal ~name:"ok_sig" ~origin:(Spec.From_source "ok_src") () ]
          () ]
    ~tasks:
      [ task ~resource:"hot_cpu" ~cet:(iv period ((3 * period) / 2)) ~priority:1 "hot"
          (Spec.From_source "hot_src");
        task ~resource:"cpu" ~cet:(iv 10 20) ~priority:1 "next" (Spec.From_output "hot");
        task ~resource:"cpu" ~cet:(iv 10 20) ~priority:2 "victim"
          (Spec.From_signal { frame = "ok_f"; signal = "ok_sig" });
        task ~resource:"hot_cpu" ~cet:(iv 5 5) ~priority:0 "ok_first"
          (Spec.From_source "ok_src") ]

(* ------------------------------------------------------------------ *)
(* Workload corpora *)

(* The seed of the fixed corpus [bound_sum] and [unbounded_elements] are
   taken over.  The run's own seed does not enter those totals, so they
   read the same on every run and move only when the analysis does. *)
let corpus_seed = 0

let modes = [| Cpa_system.Engine.Hierarchical; Flat_stream; Flat_sem |]

(* [cpa_corpus] generated part: fan-in, chain and network systems of ~5
   to ~300 elements, plus an overloaded one so [Unbounded] outcomes are
   part of the corpus.  With the two library specs that makes 15 systems
   and 45 (system, mode) items: an odd count whose median and 90th
   percentile fall inside one item's share of the ops, not on the border
   between two items of different cost. *)
let cpa_systems seed =
  let r = split (rng seed) 1 in
  let fan_ins =
    List.map (fun n -> system (Printf.sprintf "fan_in_%d" n) (fan_in r ~signals:n)) [ 2; 4; 8; 16 ]
  in
  let chains = List.map (fun k -> system (Printf.sprintf "chain_%d" k) (chain r ~stages:k)) [ 8; 16; 32 ] in
  let networks =
    List.map (fun e -> system (Printf.sprintf "network_%d" e) (network r ~ecus:e)) [ 4; 8; 16; 32; 80 ]
  in
  let overloaded = system "overload" (overload r) in
  fan_ins @ chains @ networks @ [ overloaded ]

(* [rtc_mixed]: small systems on the curve backend, wholly or on
   alternating resources, plus [hybrid] as given; eleven items.  [paper],
   [gateway] and [hybrid] are parsed library descriptions.

   The latency percentiles of a small mix are only as steady as the items
   that hold their ranks.  Curve-backend costs of neighbouring items lie
   within 10-20% of each other and swap places from run to run on a
   noisy machine, so the ranks are held by blocks of one system: the
   median by three copies of the fixed [paper_rtc], with at most two
   items on either side that may swap with it, and the 90th percentile
   by the two costliest items, both eight-signal fan-ins.  Which items
   surround a block then moves a percentile by at most one item share,
   still inside the block. *)
let rtc_systems seed ~paper ~gateway ~hybrid =
  let r = split (rng seed) 2 in
  let rtc name d = system (name ^ "_rtc") (with_backends All_rtc d) in
  let alt name d = system (name ^ "_alt") (with_backends Alternating d) in
  let fan2 = fan_in r ~signals:2 in
  let fan4 = fan_in r ~signals:4 in
  let fan8 = fan_in ~jitter:false r ~signals:8 in
  let overloaded = overload r in
  let fan8b = fan_in ~jitter:false r ~signals:8 in
  let paper_rtc = rtc "paper" paper in
  [ (* alternating keeps the overloaded CPU on the busy-window backend:
       curve analysis of an overloaded resource escalates its horizon to
       the cap and costs ~0.6 s *)
    alt "overload" overloaded;
    rtc "fan_in_2" fan2;
    system "hybrid" hybrid;
    rtc "gateway" gateway;
    paper_rtc;
    paper_rtc;
    paper_rtc;
    alt "fan_in_4" fan4;
    rtc "fan_in_4" fan4;
    alt "fan_in_8" fan8;
    system "fan_in_8b_alt" (with_backends Alternating fan8b) ]

(* ------------------------------------------------------------------ *)
(* Warm-session edits *)

(* A reversible knob: [flip] moves a parameter away from its base value,
   [restore] puts it back exactly. *)
type knob = {
  flip : Space.edit;
  restore : Space.edit;
}

(* The reversible knobs of [d], one array per kind: source periods, CET
   scalings, task priorities and frame priorities. *)
let knob_kinds r (d : Spec_file.t) =
  let periods =
    List.filter_map
      (fun (s : Spec_file.source) ->
        match s.desc with
        | Spec_file.Periodic p ->
          Some
            { flip = Space.Source_period { source = s.source_name; period = p - (p / 5) };
              restore = Space.Source_period { source = s.source_name; period = p } }
        | Spec_file.Periodic_jitter _ | Spec_file.Sporadic _ | Spec_file.Burst _ -> None)
      d.sources
  in
  (* scaling by 200 % then 50 % restores the interval exactly *)
  let cets =
    List.map
      (fun (k : Spec.task) ->
        { flip = Space.Cet_scale { task = k.task_name; percent = 200 };
          restore = Space.Cet_scale { task = k.task_name; percent = 50 } })
      d.tasks
  in
  let prios =
    List.map
      (fun (k : Spec.task) ->
        { flip = Space.Task_priority { task = k.task_name; priority = k.priority + 1 + int r 0 3 };
          restore = Space.Task_priority { task = k.task_name; priority = k.priority } })
      d.tasks
  in
  let frame_prios =
    List.map
      (fun (f : Spec.frame) ->
        { flip = Space.Frame_priority { frame = f.frame_name; priority = f.frame_priority + 10 };
          restore = Space.Frame_priority { frame = f.frame_name; priority = f.frame_priority } })
      d.frames
  in
  List.map Array.of_list (List.filter (fun l -> l <> []) [ periods; cets; prios; frame_prios ])

(* The serve workload: three warm sessions on periodic-source systems (so
   every period knob restores exactly), and a pool of cold-upload texts,
   one of them overloaded. *)
let serve_sessions seed =
  let r = split (rng seed) 10 in
  let fan4 = fan_in ~jitter:false r ~signals:4 in
  let fan8 = fan_in ~jitter:false r ~signals:8 in
  let net8 = network ~jitter:false r ~ecus:8 in
  [ system "fan_in_4" fan4; system "fan_in_8" fan8; system "network_8" net8 ]

let serve_cold seed =
  let r = split (rng seed) 20 in
  let fan4 = fan_in r ~signals:4 in
  let chain8 = chain r ~stages:8 in
  let net16 = network r ~ecus:16 in
  let overloaded = overload r in
  [ system "cold_fan_in_4" fan4; system "cold_chain_8" chain8; system "cold_network_16" net16;
    system "cold_overload" overloaded ]

(* ------------------------------------------------------------------ *)
(* Exploration variants *)

(* The explore base: an eight-ECU network plus the overload island's
   [hot] task at half load; the [island] variant triples its execution
   time and is the only overloaded point of the space. *)
let explore_base seed =
  let r = split (rng seed) 30 in
  let net = network r ~ecus:8 in
  let period = 1000 + int r 0 200 in
  let d =
    { net with
      sources = net.sources @ [ source "hot_src" period ];
      resources = net.resources @ [ resource "hot_cpu" Spec.Spp ];
      tasks =
        net.tasks
        @ [ task ~resource:"hot_cpu" ~cet:(iv (period / 4) (period / 2)) ~priority:1 "hot"
              (Spec.From_source "hot_src") ] }
  in
  system "explore_base" d

let proc_tasks (d : Spec_file.t) =
  List.filter_map
    (fun (k : Spec.task) ->
      if String.starts_with ~prefix:"proc" k.task_name then Some k.task_name else None)
    d.tasks

let island = { Space.label = "island"; edits = [ Space.Cet_scale { task = "hot"; percent = 300 } ] }

(* [chunks] variant lists: the island, the base itself, CET scalings of
   the proc tasks, a double scaling, a task and a frame priority change,
   and a repeat of an earlier variant, so the driver's cache always has
   work to deduplicate.  The first [large] chunks scale every proc task
   both by 150% and by 200% (22 variants); the others scale every proc
   task once, half by 150% and half by 200%, alternating from a seeded
   start (14 variants).  Every chunk touches every proc task, so chunks of
   one size cost nearly the same whatever the seed draws; only which
   procs get which percent, the pair, the priority targets and the
   repeated variant vary. *)
let explore_chunks seed (d : Spec_file.t) ~chunks ~large =
  let r = split (rng seed) 31 in
  let procs = Array.of_list (proc_tasks d) in
  let frames = Array.of_list (List.map (fun (f : Spec.frame) -> f.frame_name) d.frames) in
  List.init chunks (fun c ->
    let v label edits = { Space.label = Printf.sprintf "c%d %s" c label; edits } in
    let scale task percent = Space.Cet_scale { task; percent } in
    let single t percent = v (Printf.sprintf "%s.cet=%d" t percent) [ scale t percent ] in
    let first = int r 0 1 in
    let singles =
      if c < large then List.concat_map (fun t -> [ single t 150; single t 200 ]) (Array.to_list procs)
      else
        Array.to_list
          (Array.mapi (fun i t -> single t (if (i + first) mod 2 = 0 then 150 else 200)) procs)
    in
    let p = pick r procs in
    let x = pick r procs in
    let y = pick r procs in
    let f = pick r frames in
    let again = List.nth singles (int r 0 (List.length singles - 1)) in
    [ island; v "base" [] ]
    @ singles
    @ [ v (p ^ ".prio=9") [ Space.Task_priority { task = p; priority = 9 } ];
        v (f ^ ".prio=50") [ Space.Frame_priority { frame = f; priority = 50 } ];
        v (x ^ "," ^ y ^ ".cet=150") [ scale x 150; scale y 150 ];
        { again with label = again.label ^ " again" } ])

(* Sensitivity queries: the CET headroom of [hot], the island task at half
   load, whose search always runs the full multisection, and of one proc
   task drawn by the seed.  Proc headrooms differ widely in search cost
   (0.6 to 25 ms), so one drawn proc keeps that spread to a few percent of
   a round. *)
let explore_queries seed (d : Spec_file.t) =
  let r = split (rng seed) 32 in
  [ "hot"; pick r (Array.of_list (proc_tasks d)) ]
