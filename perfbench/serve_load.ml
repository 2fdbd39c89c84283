(* The [serve_session] workload: a daemon child process and one client
   connection, a closed loop over a fixed round of requests on three warm
   sessions.  One connection keeps the load on the two-core machine the
   bounds were set on to one busy process at a time: the client waits
   while the daemon works. *)

module P = Serve.Protocol
module Json = P.Json
module E = Cpa_system.Engine
module Spec_file = Cpa_system.Spec_file
module BW = Scheduling.Busy_window
module Interval = Timebase.Interval

(* ------------------------------------------------------------------ *)
(* Connection *)

(* A connection speaking the protocol's framing directly, so the client
   side of a round trip splits into encode, wire round trip and decode. *)
type conn = {
  fd : Unix.file_descr;
  reader : P.reader;
  mutable next_id : int;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; reader = P.reader fd; next_id = 1 }
  | exception e ->
    Unix.close fd;
    raise e

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Bounds of one request's client phases: encode [t0, t1], wire round
   trip [t1, t2], decode [t2, t3]. *)
type phases = { t0 : float; t1 : float; t2 : float; t3 : float }

let call c op =
  let id = c.next_id in
  c.next_id <- id + 1;
  let t0 = Loop.now () in
  let payload = Json.to_string (P.request_to_json (P.request ~id op)) in
  let t1 = Loop.now () in
  let frame =
    match P.write_frame c.fd payload with
    | () -> P.read_frame c.reader
    | exception Unix.Unix_error (e, _, _) -> Error (P.Malformed (Unix.error_message e))
  in
  let t2 = Loop.now () in
  let reply =
    match frame with
    | Error e -> Error (P.frame_error_to_string e)
    | Ok s -> begin
      match Json.of_string s with
      | Error e -> Error e
      | Ok j -> begin
        match P.reply_of_json j with
        | Ok r when r.rep_id <> id -> Error "reply id mismatch"
        | Ok r when r.status <> P.Success ->
          Error
            (Printf.sprintf "status %d%s" (P.status_code r.status)
               (match r.error with Some (_, m) -> ": " ^ m | None -> ""))
        | Ok r -> Ok r
        | Error e -> Error e
      end
    end
  in
  let t3 = Loop.now () in
  reply, { t0; t1; t2; t3 }

let member path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let int_at path j = Option.value ~default:0 (Option.bind (member path j) Json.to_int)

(* ------------------------------------------------------------------ *)
(* Daemon process *)

type daemon = { pid : int; sock : string }

let scratch_dir = ".perfbench_tmp"

let start_daemon ~exe ~args ~sock =
  if not (Sys.file_exists exe) then failwith (exe ^ " is not built");
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close devnull) (fun () ->
      Unix.create_process exe (Array.of_list (exe :: args)) devnull devnull Unix.stderr)
  in
  let d = { pid; sock } in
  (* ready once it answers a ping *)
  let rec wait n =
    match connect sock with
    | c ->
      let r, _ = call c P.Ping in
      disconnect c;
      if Result.is_error r then failwith "daemon ping failed"
    | exception Unix.Unix_error _ ->
      if n = 0 then failwith "daemon did not come up";
      Unix.sleepf 0.002;
      wait (n - 1)
  in
  wait 5000;
  d

(* Shutdown request, then wait for the exit; a daemon that does not exit
   within five seconds is killed.  Either way the child is reaped. *)
let stop_daemon d =
  (match connect d.sock with
   | c ->
     ignore (call c P.Shutdown);
     disconnect c
   | exception Unix.Unix_error _ -> ());
  let deadline = Loop.now () +. 5. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Loop.now () < deadline ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  try Sys.remove d.sock with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Client state *)

(* Edits a warm session takes before the client retires it (closes it
   and loads its system afresh), about 50 rounds.  The daemon keeps
   each session's edit history and appends to it with [@], so an edit
   costs more the longer its session has lived; with sessions that lived
   for the whole run, throughput fell by half over 20 s, and by more on a
   faster machine, which did more edits.  A fixed lifetime keeps that
   cost in every op, at the same level in every round. *)
let lifetime = 1200

type session = {
  sys : Gen.system;
  script : Explore.Space.edit array;
      (** one round's edits: flip/restore pairs of seeded knobs, the
          same number of each kind, so the system is back at its base
          after every round *)
  mutable id : string;
  mutable next : int;  (** position in [script] *)
  mutable history : Explore.Space.edit list;  (** since the load, newest first *)
  mutable edits : int;  (** [List.length history] *)
}

(* One slot of the round script. *)
type slot =
  | Edit of int
  | Analyse of int
  | Cold of int
  | Metrics

type client = {
  conn : conn;
  sessions : session array;
  cold : Gen.system array;
  slots : slot array;  (** one round, in seeded order *)
  mutable slot : int;
  tally : Stats.tally;
  tr : Loop.trace;
}

let load c (sys : Gen.system) =
  match call c (P.Load { spec_text = sys.text; mode = None }) with
  | Ok r, _ -> begin
    match Option.bind (Json.member "session" r.body) Json.to_str with
    | Some id -> id
    | None -> failwith "load reply without a session id"
  end
  | Error e, _ -> failwith ("load " ^ sys.name ^ ": " ^ e)

let expect_ok what = function
  | Ok _, _ -> ()
  | Error e, _ -> failwith (what ^ ": " ^ e)

(* Flip/restore pairs per round of each warm session, in the order of
   [Gen.serve_sessions]: the two fan-ins, then the network. *)
let pairs_per_round = [ 4; 4; 24 ]
let analyses_per_round = 8

(* A round: 8 edits on each fan-in session and 48 on the network one, 8
   analyse reads per session, one upload of each cold system and one
   metrics call, 93 ops in all (69% edits, 26% reads, 4% cold uploads, 1%
   metrics).  The ops fall into cost clusters: fan-in edits and reads and
   metrics calls (~0.1-0.3 ms, 33 ops), network edits (~0.5 ms, 48 ops),
   network reads and cold uploads (~1 ms and more, 12 ops).  The median
   then falls well inside the network edits and the 90th percentile
   inside the costliest cluster, not on a border between two clusters,
   where the machine's speed would move them from one cluster to the
   other.  Every round runs the same script, so rounds differ only in the
   machine's speed and in how long the sessions have lived. *)
let round_slots r sessions ~cold =
  let slots =
    Array.of_list
      (List.concat
         (List.mapi
            (fun j s ->
              List.init (Array.length s.script) (fun _ -> Edit j)
              @ List.init analyses_per_round (fun _ -> Analyse j))
            (Array.to_list sessions))
      @ List.init cold (fun c -> Cold c)
      @ [ Metrics ])
  in
  Gen.shuffle r slots;
  slots

(* Opens the warm sessions, spreads their ages over a lifetime (session
   [j] of [n] starts with [j * lifetime / n] edits already applied, sent
   as one bulk edit of whole flip/restore rounds, so the system is at its
   base), and touches every request kind once. *)
let open_client ~sock ~seed =
  let conn = connect sock in
  let r = Gen.split (Gen.rng seed) 40 in
  let systems = Gen.serve_sessions seed in
  let n = List.length systems in
  let sessions =
    Array.of_list
      (List.mapi
         (fun j ((sys : Gen.system), pairs) ->
           let kinds = Gen.knob_kinds r sys.desc in
           let per_kind = pairs / List.length kinds in
           let pairs =
             Array.of_list
               (List.concat_map (fun knobs -> List.init per_kind (fun _ -> Gen.pick r knobs)) kinds)
           in
           Gen.shuffle r pairs;
           let script =
             Array.concat (Array.to_list (Array.map (fun (k : Gen.knob) -> [| k.flip; k.restore |]) pairs))
           in
           let id = load conn sys in
           let s = { sys; script; id; next = 0; history = []; edits = 0 } in
           let rounds = j * lifetime / n / Array.length script in
           if rounds > 0 then begin
             let bulk = List.concat (List.init rounds (fun _ -> Array.to_list script)) in
             expect_ok "bulk edit" (call conn (P.Edit { session = id; edits = bulk }));
             s.history <- List.rev bulk;
             s.edits <- List.length bulk
           end;
           expect_ok "analyse" (call conn (P.Analyse { session = id }));
           s)
         (List.combine systems pairs_per_round))
  in
  let cold = Array.of_list (Gen.serve_cold seed) in
  Array.iter
    (fun sys -> expect_ok "close" (call conn (P.Close { session = load conn sys })))
    cold;
  expect_ok "metrics" (call conn (P.Metrics { session = sessions.(0).id }));
  { conn; sessions; cold;
    slots = round_slots (Gen.split r 1) sessions ~cold:(Array.length cold);
    slot = 0; tally = Stats.tally (); tr = Loop.trace () }

(* ------------------------------------------------------------------ *)
(* Correctness: warm sessions against offline cold analyses *)

(* The daemon's rendering of one outcome, rebuilt here so the offline
   result can be compared byte for byte. *)
let outcome_json (o : E.element_outcome) =
  let common = [ "element", Json.Str o.element; "resource", Json.Str o.resource ] in
  match o.outcome with
  | BW.Bounded iv ->
    Json.Obj
      (common @ [ "outcome", Json.Str "bounded"; "lo", Json.Int (Interval.lo iv);
                  "hi", Json.Int (Interval.hi iv) ])
  | BW.Unbounded reason ->
    Json.Obj (common @ [ "outcome", Json.Str "unbounded"; "reason", Json.Str reason ])

let offline (sys : Gen.system) edits =
  match Spec_file.parse sys.text with
  | Error e -> Error e
  | Ok d -> begin
    let spec = Explore.Space.apply_all (Spec_file.to_spec d) edits in
    match E.analyse spec with
    | Error e -> Error (Guard.Error.to_string e)
    | Ok r -> Ok r
  end

let check_session cl s =
  let why = ref "" in
  let ok =
    match call cl.conn (P.Analyse { session = s.id }) with
    | Error e, _ -> why := e; false
    | Ok r, _ -> begin
      match Json.member "outcomes" r.body, offline s.sys (List.rev s.history) with
      | None, _ -> why := "analyse reply without outcomes"; false
      | _, Error e -> why := "offline analysis: " ^ e; false
      | Some got, Ok cold ->
        let want = Json.to_string (Json.Arr (List.map outcome_json cold.outcomes)) in
        if String.equal (Json.to_string got) want then true
        else begin
          why := Printf.sprintf "session %s (%s): warm outcomes differ from a cold analysis" s.id s.sys.name;
          false
        end
    end
  in
  Stats.record cl.tally ok ~why:(fun () -> !why)

(* Totals over the warm-session and cold-upload systems of the fixed
   corpus, analysed offline.  A system that fails to analyse counts as a
   failed op. *)
let bound_totals tally =
  List.fold_left
    (fun acc (sys : Gen.system) ->
      match offline sys [] with
      | Error e ->
        Stats.record tally false ~why:(fun () -> Printf.sprintf "corpus %s: %s" sys.name e);
        acc
      | Ok r -> Corpus.add_bounds acc r.outcomes)
    (0, 0)
    (Gen.serve_sessions Gen.corpus_seed @ Gen.serve_cold Gen.corpus_seed)

(* ------------------------------------------------------------------ *)
(* Ops *)

(* One op: the next slot of the round script.  A session at the start of
   its script whose lifetime is over is first retired, as an op of its
   own (load its system afresh, close the old session), after an off-the-
   clock check of the old session; the slot then waits for the next
   op. *)
let op ~trace cl =
  let rtts = ref [] in
  let go op =
    let reply, ph = call cl.conn op in
    rtts := ph :: !rtts;
    reply
  in
  let slot = cl.slots.(cl.slot) in
  let retiring =
    match slot with
    | Edit j ->
      let s = cl.sessions.(j) in
      if s.next = 0 && s.edits >= lifetime then Some s else None
    | Analyse _ | Cold _ | Metrics -> None
  in
  (match retiring with
   | Some s -> check_session cl s
   | None -> cl.slot <- (cl.slot + 1) mod Array.length cl.slots);
  let load_close (sys : Gen.system) ~on_load =
    match go (P.Load { spec_text = sys.text; mode = None }) with
    | Error _ as e -> e, ignore
    | Ok r -> begin
      match Option.bind (Json.member "session" r.body) Json.to_str with
      | None -> Error "load reply without a session id", ignore
      | Some id -> on_load id
    end
  in
  let t0 = Loop.now () in
  let result, on_ok =
    match retiring, slot with
    | Some s, _ ->
      load_close s.sys ~on_load:(fun id ->
        ( go (P.Close { session = s.id }),
          fun _ ->
            s.id <- id;
            s.history <- [];
            s.edits <- 0 ))
    | None, Edit j ->
      let s = cl.sessions.(j) in
      let edit = s.script.(s.next) in
      ( go (P.Edit { session = s.id; edits = [ edit ] }),
        fun (r : P.reply) ->
          s.next <- (s.next + 1) mod Array.length s.script;
          s.history <- edit :: s.history;
          s.edits <- s.edits + 1;
          if trace then begin
            let add k v = Loop.add cl.tr k (float_of_int v) in
            add "engine.iterations" (int_at [ "iterations" ] r.body);
            add "engine.resources_analysed" (int_at [ "stats"; "resources-analysed" ] r.body);
            add "engine.resources_reused" (int_at [ "stats"; "resources-reused" ] r.body);
            add "engine.streams_invalidated" (int_at [ "stats"; "streams-invalidated" ] r.body)
          end )
    | None, Analyse j ->
      ( go (P.Analyse { session = cl.sessions.(j).id }),
        fun r ->
          if trace then begin
            Loop.add cl.tr "explore.cache.lookups" 1.;
            if Json.member "cache-hit" r.body = Some (Json.Bool true) then
              Loop.add cl.tr "explore.cache.hits" 1.
          end )
    | None, Cold c -> load_close cl.cold.(c) ~on_load:(fun id -> go (P.Close { session = id }), ignore)
    | None, Metrics -> go (P.Metrics { session = cl.sessions.(0).id }), ignore
  in
  let t1 = Loop.now () in
  (match result with Ok r -> on_ok r | Error _ -> ());
  Stats.record cl.tally (Result.is_ok result) ~why:(fun () ->
    match result with Error e -> e | Ok _ -> "");
  if trace then begin
    cl.tr.ops <- cl.tr.ops + 1;
    let op_id = cl.tr.ops in
    Loop.span cl.tr ~op:op_id "op" t0 t1;
    (match retiring, slot with
     | Some _, _ | None, Cold _ ->
       Loop.add cl.tr "serve.cold_loads" 1.;
       Loop.add cl.tr "serve.cold_load_ms" ((t1 -. t0) *. 1e3)
     | None, (Edit _ | Analyse _ | Metrics) -> ());
    List.iter
      (fun ph ->
        Loop.add cl.tr "serve.requests" 1.;
        List.iter
          (fun (name, a, b) ->
            Loop.span cl.tr ~op:op_id name a b;
            Loop.add cl.tr name ((b -. a) *. 1e3))
          [ "serve.encode_ms", ph.t0, ph.t1; "serve.rtt_ms", ph.t1, ph.t2;
            "serve.decode_ms", ph.t2, ph.t3 ])
      !rtts
  end;
  (t1 -. t0) *. 1e3

(* ------------------------------------------------------------------ *)
(* The workload *)

(* Counters of the daemon's telemetry snapshot that the traced run
   reports, as (layer key, registry name). *)
let daemon_counters =
  Loop.registry_counters
  @ [ "serve.rejected", "serve.rejected";
      "serve.protocol_errors", "serve.protocol_errors";
      "explore.pool.service.jobs", "explore.pool.service.jobs" ]
  @ Loop.analysis_counters

(* Counter totals and the [serve.request_ns] histogram of the daemon. *)
let daemon_snapshot cl =
  match call cl.conn (P.Metrics { session = cl.sessions.(0).id }) with
  | Error e, _ -> failwith ("metrics: " ^ e)
  | Ok r, _ ->
    let counters =
      match member [ "process"; "counters" ] r.body with
      | Some (Json.Obj kv) -> List.filter_map (fun (k, v) -> Option.map (fun i -> k, i) (Json.to_int v)) kv
      | Some _ | None -> []
    in
    let hist field = int_at [ "process"; "histograms"; "serve.request_ns"; field ] r.body in
    counters, hist "count", hist "sum"

let run ~bin ~seed ~seconds ~traced ~setups =
  let exe, args =
    if traced then Filename.concat bin "perfbench/daemon.exe", fun sock -> [ "--socket"; sock ]
    else
      Filename.concat bin "bin/hem_tool.exe", fun sock -> [ "serve"; "--socket"; sock; "--jobs"; "2" ]
  in
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
  let sock k = Filename.concat scratch_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) k) in
  let daemons = ref [] in
  let shutdown () =
    List.iter stop_daemon !daemons;
    daemons := []
  in
  Fun.protect ~finally:(fun () ->
    shutdown ();
    try Sys.rmdir scratch_dir with Sys_error _ -> ())
  @@ fun () ->
  (* set-up: daemon start, warm sessions of spread ages, first-touch of
     every request kind; repeated, keeping the last daemon *)
  let setup k =
    let t0 = Loop.now () in
    let d = start_daemon ~exe ~args:(args (sock k)) ~sock:(sock k) in
    daemons := d :: !daemons;
    let cl = open_client ~sock:(sock k) ~seed in
    let dt = Loop.now () -. t0 in
    if k < setups - 1 then begin
      disconnect cl.conn;
      shutdown ()
    end;
    dt, (d, cl)
  in
  let k = ref (-1) in
  let setup_s, (daemon, cl) = Loop.repeat_setup setups (fun () -> incr k; setup !k) in
  let cycle = Array.length cl.slots in
  let untraced =
    Loop.closed_loop ~cycle ~seconds:(if traced then seconds /. 2. else seconds) (fun _ ->
      op ~trace:false cl)
  in
  let traced_run =
    if not traced then None
    else begin
      let c0, n0, s0 = daemon_snapshot cl in
      let m = Loop.closed_loop ~cycle ~seconds:(seconds /. 2.) (fun _ -> op ~trace:true cl) in
      let c1, n1, s1 = daemon_snapshot cl in
      let tr = cl.tr in
      Loop.add_counter_deltas tr ~before:c0 ~after:c1 daemon_counters;
      let count = float_of_int (n1 - n0) and service = float_of_int (s1 - s0) /. 1e6 in
      Loop.add tr "serve.service_count" count;
      Loop.add tr "serve.service_ms" service;
      (* mean round trip minus mean handler time, per request *)
      let requests = Loop.sum tr "serve.requests" in
      if requests > 0. && count > 0. then
        Loop.add tr "serve.outside_handler_ms"
          (count *. ((Loop.sum tr "serve.rtt_ms" /. requests) -. (service /. count)));
      Some (m, tr)
    end
  in
  Array.iter (check_session cl) cl.sessions;
  let peak_rss_mb = Stats.peak_rss_mb (Some daemon.pid) in
  disconnect cl.conn;
  let tally = cl.tally in
  let bound_sum, unbounded = bound_totals tally in
  { Loop.tally; setup_s; measured = untraced; half = Loop.Slower; traced = traced_run; peak_rss_mb;
    bound_sum; unbounded }
