type activation =
  | From_source of string
  | From_output of string
  | From_signal of {
      frame : string;
      signal : string;
    }
  | From_frame of string
  | Or_of of activation list
  | And_of of activation list

type scheduler =
  | Spp
  | Spnp
  | Tdma
  | Round_robin
  | Edf

type backend = Cpa | Rtc

type resource = {
  res_name : string;
  scheduler : scheduler;
  backend : backend;
}

let resource ?(backend = Cpa) ~name scheduler =
  { res_name = name; scheduler; backend }

type task = {
  task_name : string;
  resource : string;
  cet : Timebase.Interval.t;
  priority : int;
  service : int option;
  deadline : int option;
  activation : activation;
  propagation : Event_model.Propagation.mode option;
}

type signal_binding = {
  signal_name : string;
  property : Hem.Model.signal_kind;
  origin : activation;
}

type frame = {
  frame_name : string;
  bus : string;
  send_type : Comstack.Frame.send_type;
  tx_time : Timebase.Interval.t;
  frame_priority : int;
  signals : signal_binding list;
}

type t = {
  sources : (string * Event_model.Stream.t) list;
  resources : resource list;
  tasks : task list;
  frames : frame list;
  default_propagation : Event_model.Propagation.mode;
}

let task ~name ~resource ~cet ~priority ?service ?deadline ?propagation
    ~activation () =
  { task_name = name; resource; cet; priority; service; deadline; activation;
    propagation }

let signal ~name ?(property = Hem.Model.Triggering) ~origin () =
  { signal_name = name; property; origin }

let frame ~name ~bus ~send_type ~tx_time ~priority ~signals () =
  { frame_name = name; bus; send_type; tx_time; frame_priority = priority;
    signals }

let make ~sources ~resources ~tasks ?(frames = [])
    ?(default_propagation = Event_model.Propagation.Theta_tau) () =
  { sources; resources; tasks; frames; default_propagation }

let task_propagation t k =
  match k.propagation with
  | Some m -> m
  | None -> t.default_propagation

let with_propagation ?task:task_name mode t =
  match task_name with
  | None -> { t with default_propagation = mode }
  | Some name ->
    {
      t with
      tasks =
        List.map
          (fun k ->
            if String.equal k.task_name name then
              { k with propagation = Some mode }
            else k)
          t.tasks;
    }

let force_propagation mode t =
  with_propagation mode
    { t with tasks = List.map (fun k -> { k with propagation = None }) t.tasks }

let force_backend backend t =
  {
    t with
    resources =
      List.map
        (fun r ->
          { r with backend = (if r.scheduler = Edf then Cpa else backend) })
        t.resources;
  }

(* ------------------------------------------------------------------ *)
(* Canonical digest *)

(* Streams are opaque pairs of memoized curves, so they are fingerprinted
   behaviourally: a prefix of both distance functions plus two deep
   probes that expose the periodic tail.  Any parameter edit to a
   standard constructor (period, jitter, d_min, burst) changes one of the
   sampled values. *)
let fingerprint_stream buffer s =
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  let probe f n = add " %s" (Timebase.Time.to_string (f s n)) in
  add "dmin";
  for n = 2 to 34 do
    probe Event_model.Stream.delta_min n
  done;
  probe Event_model.Stream.delta_min 64;
  probe Event_model.Stream.delta_min 101;
  add " dplus";
  for n = 2 to 34 do
    probe Event_model.Stream.delta_plus n
  done;
  probe Event_model.Stream.delta_plus 64;
  probe Event_model.Stream.delta_plus 101

let canonical_into buffer t =
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  let by_name name_of = List.sort (fun a b -> String.compare (name_of a) (name_of b)) in
  let rec add_activation = function
    | From_source s -> add "(source %s)" s
    | From_output o -> add "(output %s)" o
    | From_signal { frame; signal } -> add "(signal %s %s)" frame signal
    | From_frame f -> add "(frame %s)" f
    | Or_of acts ->
      add "(or";
      List.iter add_activation acts;
      add ")"
    | And_of acts ->
      add "(and";
      List.iter add_activation acts;
      add ")"
  in
  let add_interval i =
    add "[%d:%d]" (Timebase.Interval.lo i) (Timebase.Interval.hi i)
  in
  (* Emitted only when non-default so pre-existing digests stay stable:
     a spec that never mentions propagation renders exactly as before. *)
  (match t.default_propagation with
   | Event_model.Propagation.Theta_tau -> ()
   | m -> add "propagation %s;" (Event_model.Propagation.mode_name m));
  List.iter
    (fun (name, stream) ->
      add "source %s " name;
      fingerprint_stream buffer stream;
      add ";")
    (by_name fst t.sources);
  List.iter
    (fun r ->
      let scheduler =
        match r.scheduler with
        | Spp -> "spp"
        | Spnp -> "spnp"
        | Tdma -> "tdma"
        | Round_robin -> "rr"
        | Edf -> "edf"
      in
      (* backend emitted only when non-default so pre-existing digests
         stay stable: a pure-CPA spec renders exactly as before. *)
      let backend = match r.backend with Cpa -> "" | Rtc -> " backend=rtc" in
      add "resource %s %s%s;" r.res_name scheduler backend)
    (by_name (fun r -> r.res_name) t.resources);
  List.iter
    (fun k ->
      add "task %s res=%s cet=" k.task_name k.resource;
      add_interval k.cet;
      add " prio=%d" k.priority;
      (match k.service with Some s -> add " service=%d" s | None -> ());
      (match k.deadline with Some d -> add " deadline=%d" d | None -> ());
      (match k.propagation with
       | Some m -> add " prop=%s" (Event_model.Propagation.mode_name m)
       | None -> ());
      add " act=";
      add_activation k.activation;
      add ";")
    (by_name (fun k -> k.task_name) t.tasks);
  List.iter
    (fun f ->
      add "frame %s bus=%s send=" f.frame_name f.bus;
      (match f.send_type with
       | Comstack.Frame.Direct -> add "direct"
       | Comstack.Frame.Periodic p -> add "periodic:%d" p
       | Comstack.Frame.Mixed p -> add "mixed:%d" p);
      add " tx=";
      add_interval f.tx_time;
      add " prio=%d" f.frame_priority;
      List.iter
        (fun s ->
          add " (signal %s %s "
            s.signal_name
            (match s.property with
             | Hem.Model.Triggering -> "triggering"
             | Hem.Model.Pending -> "pending");
          add_activation s.origin;
          add ")")
        (by_name (fun s -> s.signal_name) f.signals);
      add ";")
    (by_name (fun f -> f.frame_name) t.frames)

let canonical t =
  let buffer = Buffer.create 1024 in
  canonical_into buffer t;
  Buffer.contents buffer

(* [digest_with] renders into a caller-owned scratch buffer so a batch
   of digests (an exploration sweep digesting hundreds of specs per
   worker) reuses one grown buffer instead of re-allocating and
   re-growing a fresh one per spec.  The digest itself is unchanged:
   same canonical bytes, same hex. *)
let digest_with buffer t =
  Buffer.clear buffer;
  canonical_into buffer t;
  Digest.to_hex (Digest.string (Buffer.contents buffer))

let digest t = Digest.to_hex (Digest.string (canonical t))

let find_duplicate names =
  let sorted = List.sort String.compare names in
  let rec scan = function
    | a :: (b :: _ as rest) -> if String.equal a b then Some a else scan rest
    | [ _ ] | [] -> None
  in
  scan sorted

let validate t =
  let source_names = List.map fst t.sources in
  let task_names = List.map (fun k -> k.task_name) t.tasks in
  let frame_names = List.map (fun f -> f.frame_name) t.frames in
  let resource_names = List.map (fun r -> r.res_name) t.resources in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec check_activation ctx = function
    | From_source s ->
      if List.mem s source_names then Ok ()
      else fail "%s references unknown source %s" ctx s
    | From_output name ->
      if List.mem name task_names then Ok ()
      else fail "%s references unknown task output %s" ctx name
    | From_signal { frame; signal } -> begin
      match List.find_opt (fun f -> String.equal f.frame_name frame) t.frames with
      | None -> fail "%s references unknown frame %s" ctx frame
      | Some f ->
        if List.exists (fun s -> String.equal s.signal_name signal) f.signals
        then Ok ()
        else fail "%s references unknown signal %s of frame %s" ctx signal frame
    end
    | From_frame frame ->
      if List.mem frame frame_names then Ok ()
      else fail "%s references unknown frame %s" ctx frame
    | Or_of [] -> fail "%s has an empty OR activation" ctx
    | And_of [] -> fail "%s has an empty AND activation" ctx
    | Or_of acts | And_of acts ->
      List.fold_left
        (fun acc a -> match acc with Ok () -> check_activation ctx a | e -> e)
        (Ok ()) acts
  in
  let check_task k =
    if not (List.mem k.resource resource_names) then
      fail "task %s mapped to unknown resource %s" k.task_name k.resource
    else begin
      let scheduler =
        (List.find (fun r -> String.equal r.res_name k.resource) t.resources)
          .scheduler
      in
      match scheduler, k.service, k.deadline with
      | (Tdma | Round_robin), None, _ ->
        fail "task %s needs a service parameter on a %s resource" k.task_name
          k.resource
      | (Tdma | Round_robin), Some s, _ when s < 1 ->
        fail "task %s has a service parameter < 1" k.task_name
      | Edf, _, None ->
        fail "task %s needs a deadline on the EDF resource %s" k.task_name
          k.resource
      | Edf, _, Some d when d < 1 ->
        fail "task %s has a deadline < 1" k.task_name
      | (Spp | Spnp | Tdma | Round_robin | Edf), _, _ ->
        check_activation (Printf.sprintf "task %s" k.task_name) k.activation
    end
  in
  let check_frame f =
    match List.find_opt (fun r -> String.equal r.res_name f.bus) t.resources with
    | None -> fail "frame %s mapped to unknown bus %s" f.frame_name f.bus
    | Some { scheduler = Spnp; _ } ->
      if f.signals = [] then fail "frame %s has no signals" f.frame_name
      else begin
        match find_duplicate (List.map (fun s -> s.signal_name) f.signals) with
        | Some d -> fail "frame %s has duplicate signal %s" f.frame_name d
        | None ->
          List.fold_left
            (fun acc s ->
              match acc with
              | Ok () ->
                check_activation
                  (Printf.sprintf "signal %s of frame %s" s.signal_name
                     f.frame_name)
                  s.origin
              | e -> e)
            (Ok ()) f.signals
      end
    | Some { scheduler = Spp | Tdma | Round_robin | Edf; _ } ->
      fail "frame %s must be mapped to an SPNP bus" f.frame_name
  in
  let all_checks =
    [
      (fun () ->
        match find_duplicate (source_names @ task_names @ frame_names) with
        | Some d -> fail "duplicate element name %s" d
        | None -> Ok ());
      (fun () ->
        match find_duplicate resource_names with
        | Some d -> fail "duplicate resource name %s" d
        | None -> Ok ());
      (fun () ->
        match
          List.find_opt
            (fun r -> r.backend = Rtc && r.scheduler = Edf)
            t.resources
        with
        | Some r ->
          fail
            "resource %s: EDF resources require the cpa backend (no RTC \
             service-curve model for dynamic deadlines)"
            r.res_name
        | None -> Ok ());
    ]
    @ List.map (fun k () -> check_task k) t.tasks
    @ List.map (fun f () -> check_frame f) t.frames
  in
  List.fold_left
    (fun acc check -> match acc with Ok () -> check () | e -> e)
    (Ok ()) all_checks
