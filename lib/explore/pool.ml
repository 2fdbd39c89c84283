type worker_stat = {
  worker : int;
  tasks : int;
  steals : int;
  busy_us : float;
  idle_us : float;
  counters : (string * int) list;
}

type 'a outcome =
  | Complete of 'a list
  | Interrupted of {
      completed : 'a list;
      reason : Guard.Error.t;
      attempted : int;
    }

let c_tasks = Obs.Metrics.counter "explore.pool.tasks"
let c_maps = Obs.Metrics.counter "explore.pool.maps"
let c_interrupts = Obs.Metrics.counter "explore.pool.interrupts"
let c_steals = Obs.Metrics.counter "explore.pool.steals"
let g_deque_hwm = Obs.Metrics.gauge "explore.pool.deque_hwm"

let default_jobs () = Domain.recommended_domain_count ()

(* Spawning more domains than the machine has cores makes OCaml 5
   throughput collapse (every minor collection is a stop-the-world
   handshake across all domains): a 4-domain sweep on a 1-core machine
   ran about twice as slow as a serial one.  [jobs] is therefore a
   request; the pool runs [min jobs cores] domains unless the caller
   explicitly oversubscribes (tests exercising spawn paths). *)
let effective_jobs ?(oversubscribe = false) jobs =
  if oversubscribe then jobs
  else Stdlib.max 1 (Stdlib.min jobs (Domain.recommended_domain_count ()))

let now_us () = Unix.gettimeofday () *. 1e6

(* ------------------------------------------------------------------ *)
(* Legacy claiming: one atomic round-trip per item, guard checked and
   injection site fired before every claim.  This is the only schedule
   whose interruption behaviour is deterministic across jobs counts
   (claims are globally ascending, so when the guard trips at item [k]
   every item below [k] has already been claimed and therefore completes
   before the join), so it is kept for every guarded or fault-injected
   map.  Unguarded maps — the throughput path — use the chunked
   work-stealing scheduler below instead. *)
let worker_loop_items ~label ~queue ~n ~f ~results ~errors ~guard ~stop ~tasks
    ~hist () =
  let rec drain () =
    match Atomic.get stop with
    | Some _ -> ()
    | None ->
      let i = Atomic.fetch_and_add queue 1 in
      if i < n then begin
        match
          if Guard.Inject.armed () then
            Guard.Inject.fire (Printf.sprintf "%s.item:%d" label i);
          Guard.check guard
        with
        | () ->
          Obs.Metrics.incr c_tasks;
          Stdlib.incr tasks;
          (match
             match hist with
             | None -> f i
             | Some h ->
               let t0 = now_us () in
               let v = f i in
               Obs.Hist.record h (int_of_float ((now_us () -. t0) *. 1e3));
               v
           with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some e);
          drain ()
        | exception Guard.Error.Error r when Guard.Error.is_interrupt r ->
          ignore (Atomic.compare_and_set stop None (Some r))
      end
  in
  drain ()

(* ------------------------------------------------------------------ *)
(* Chunked scheduler: workers claim contiguous chunks off the shared
   counter (one atomic op per chunk, not per item) into a per-worker
   deque; the owner drains its deque from the front in small private
   batches, and when both the shared counter and its own deque run dry
   it steals the back half of a peer's remainder — classic bounded
   work-stealing, which fixes the tail imbalance block-splitting would
   otherwise reintroduce.  Only reachable when no guard can trip, so
   workers never abandon claimed items and the merge is a total,
   schedule-independent function of [f]. *)

type deque = {
  mutable d_lo : int;  (* next index the owner will take *)
  mutable d_hi : int;  (* exclusive upper bound of the remainder *)
  mutable d_hwm : int;  (* deepest remainder this deque ever held *)
  d_lock : Mutex.t;
}

let chunk_size ~n ~workers =
  Stdlib.max 1 (Stdlib.min 64 (n / (4 * workers)))

let mini_batch = 8

let worker_loop_chunked ~queue ~n ~chunk ~f ~results ~errors ~deques ~tasks
    ~hist w =
  let workers = Array.length deques in
  let mine = deques.(w) in
  let run_range lo hi =
    for i = lo to hi - 1 do
      Obs.Metrics.incr c_tasks;
      Stdlib.incr tasks;
      match
        match hist with
        | None -> f i
        | Some h ->
          let t0 = now_us () in
          let v = f i in
          Obs.Hist.record h (int_of_float ((now_us () -. t0) *. 1e3));
          v
      with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e
    done
  in
  (* take up to [mini_batch] items from the front of [dq] *)
  let take_front dq =
    Mutex.lock dq.d_lock;
    let lo = dq.d_lo in
    let take = Stdlib.min mini_batch (dq.d_hi - lo) in
    if take > 0 then dq.d_lo <- lo + take;
    Mutex.unlock dq.d_lock;
    if take > 0 then Some (lo, lo + take) else None
  in
  (* steal the back half of a peer's remainder into [mine] *)
  let steal () =
    let rec try_victim k =
      if k >= workers then false
      else begin
        let v = (w + 1 + k) mod workers in
        if v = w then try_victim (k + 1)
        else begin
          let dq = deques.(v) in
          Mutex.lock dq.d_lock;
          let len = dq.d_hi - dq.d_lo in
          let got =
            if len <= 0 then None
            else begin
              let take = (len + 1) / 2 in
              let lo = dq.d_hi - take in
              dq.d_hi <- lo;
              Some (lo, lo + take)
            end
          in
          Mutex.unlock dq.d_lock;
          match got with
          | Some (lo, hi) ->
            Obs.Metrics.incr c_steals;
            Mutex.lock mine.d_lock;
            mine.d_lo <- lo;
            mine.d_hi <- hi;
            if hi - lo > mine.d_hwm then mine.d_hwm <- hi - lo;
            Mutex.unlock mine.d_lock;
            true
          | None -> try_victim (k + 1)
        end
      end
    in
    try_victim 0
  in
  let rec drain () =
    match take_front mine with
    | Some (lo, hi) ->
      run_range lo hi;
      drain ()
    | None ->
      let i = Atomic.fetch_and_add queue chunk in
      if i < n then begin
        let hi = Stdlib.min n (i + chunk) in
        Mutex.lock mine.d_lock;
        mine.d_lo <- i;
        mine.d_hi <- hi;
        if hi - i > mine.d_hwm then mine.d_hwm <- hi - i;
        Mutex.unlock mine.d_lock;
        drain ()
      end
      else if steal () then drain ()
  in
  drain ()

(* One worker: telemetry wrapper around whichever drain loop the map
   selected; results (and the first exception per item) are recorded by
   index so the merge is schedule-independent.  An exception escaping
   the claim path itself — e.g. an injected worker crash — is captured
   per worker, never lost. *)
let worker ~label ~drain w =
  let scope = Obs.Metrics.scope (Printf.sprintf "%s.worker%d" label w) in
  let tasks = ref 0 in
  let crash = ref None in
  (* One local histogram per worker (plain cells, single writer); the
     caller merges them into the registered distribution after the
     join.  [idle_us] is filled in post-join too — a worker cannot
     know how long it out-waited its peers. *)
  let hist = if Obs.Hist.enabled () then Some (Obs.Hist.make ()) else None in
  let t_begin = now_us () in
  Obs.Metrics.in_scope scope (fun () ->
    match drain ~tasks ~hist w with () -> () | exception e -> crash := Some e);
  let t_end = now_us () in
  ( { worker = w; tasks = !tasks; steals = Obs.Metrics.read scope c_steals;
      busy_us = t_end -. t_begin; idle_us = 0.0;
      counters = Obs.Metrics.snapshot scope },
    t_begin,
    t_end,
    !crash,
    hist )

(* Worker spans are emitted from the calling domain after the join, with
   the timestamps recorded by the workers: sinks never see concurrent
   emissions (see Obs.Sink). *)
let emit_worker_spans label stats =
  match Obs.Sink.installed () with
  | None -> ()
  | Some sink ->
    List.iter
      (fun (stat, t_begin, t_end) ->
        let name = Printf.sprintf "%s.worker%d" label stat.worker in
        sink.Obs.Sink.emit
          (Obs.Event.Span_begin { name; ts = t_begin; attrs = [] });
        sink.Obs.Sink.emit
          (Obs.Event.Span_end
             {
               name;
               ts = t_end;
               attrs =
                 [
                   "tasks", Obs.Event.Int stat.tasks;
                   "steals", Obs.Event.Int stat.steals;
                   "busy_us", Obs.Event.Int (int_of_float stat.busy_us);
                   "idle_us", Obs.Event.Int (int_of_float stat.idle_us);
                 ];
             }))
      stats

let map_guarded ?jobs ?oversubscribe ?(label = "explore.pool")
    ?(guard = Guard.none) f n =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map: jobs < 1";
  if n < 0 then invalid_arg "Pool.map: negative size";
  Obs.Metrics.incr c_maps;
  let workers = effective_jobs ?oversubscribe jobs in
  let results = Array.make n None in
  let errors = Array.make n None in
  let queue = Atomic.make 0 in
  let stop : Guard.Error.t option Atomic.t = Atomic.make None in
  (* Guarded or fault-injected maps need the deterministic per-item
     claim order; unguarded maps take the chunked scheduler. *)
  let use_items = guard != Guard.none || Guard.Inject.armed () in
  let deques =
    if use_items then [||]
    else
      Array.init workers (fun _ ->
        { d_lo = 0; d_hi = 0; d_hwm = 0; d_lock = Mutex.create () })
  in
  let drain =
    if use_items then fun ~tasks ~hist _w ->
      worker_loop_items ~label ~queue ~n ~f ~results ~errors ~guard ~stop
        ~tasks ~hist ()
    else begin
      let chunk = chunk_size ~n ~workers in
      fun ~tasks ~hist w ->
        worker_loop_chunked ~queue ~n ~chunk ~f ~results ~errors ~deques
          ~tasks ~hist w
    end
  in
  let run = worker ~label ~drain in
  let stats =
    Obs.Trace.with_span
      ~attrs:
        [
          "jobs", Obs.Event.Int jobs;
          "workers", Obs.Event.Int workers;
          "items", Obs.Event.Int n;
        ]
      (label ^ ".map")
    @@ fun () ->
    if workers = 1 then [ run 0 ]
    else begin
      (* The calling domain is worker 0; workers - 1 helpers are spawned
         one at a time so that a spawn failing mid-way can still join
         every domain already running: the queue is starved first, so
         the live helpers drain out promptly, then all are joined and
         the spawn failure is re-raised — no domain is ever leaked. *)
      let spawned = ref [] in
      match
        for k = 1 to workers - 1 do
          if Guard.Inject.armed () then
            Guard.Inject.fire (Printf.sprintf "%s.spawn:%d" label k);
          let d = Domain.spawn (fun () -> run k) in
          spawned := d :: !spawned
        done
      with
      | () ->
        let mine = run 0 in
        mine :: List.map Domain.join (List.rev !spawned)
      | exception e ->
        Atomic.set queue n;
        List.iter (fun d -> ignore (Domain.join d)) !spawned;
        raise e
    end
  in
  let stats =
    List.sort
      (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a.worker b.worker)
      stats
  in
  (* Tail imbalance: a worker idles from its own finish until the last
     worker finishes — computable only here, after every t_end is in. *)
  let t_last =
    List.fold_left
      (fun acc (_, _, t_end, _, _) -> Stdlib.max acc t_end)
      neg_infinity stats
  in
  let stats =
    List.map
      (fun (stat, t_b, t_e, crash, hist) ->
        { stat with idle_us = Stdlib.max 0.0 (t_last -. t_e) },
        t_b, t_e, crash, hist)
      stats
  in
  if Array.length deques > 0 then
    Obs.Metrics.set g_deque_hwm
      (Array.fold_left (fun acc d -> Stdlib.max acc d.d_hwm) 0 deques);
  (* Per-worker task-duration histograms fold into one registered
     distribution; the join above is the happens-before edge Hist
     requires. *)
  List.iter
    (fun (_, _, _, _, hist) ->
      match hist with
      | Some h ->
        Obs.Hist.merge_into ~into:(Obs.Hist.hist (label ^ ".task_ns")) h
      | None -> ())
    stats;
  emit_worker_spans label (List.map (fun (s, b, e, _, _) -> s, b, e) stats);
  let worker_stats = List.map (fun (stat, _, _, _, _) -> stat) stats in
  (* Worker-level crashes, in worker order, so the surfaced one is
     deterministic. *)
  let crashes =
    List.filter_map
      (fun (stat, _, _, crash, _) ->
        Option.map (fun e -> (stat.worker, e)) crash)
      stats
  in
  (* [c] is the length of the contiguous completed prefix.  Everything
     before it succeeded; what stopped item [c] decides the outcome:
     its own error (smallest-index error wins, deterministically), a
     worker crash, or the recorded interruption reason. *)
  let c = ref n in
  (try
     for i = 0 to n - 1 do
       match results.(i) with
       | None ->
         c := i;
         raise Exit
       | Some _ -> ()
     done
   with Exit -> ());
  let c = !c in
  if c = n then begin
    (match crashes with (_, e) :: _ -> raise e | [] -> ());
    ( Complete (List.init n (fun i -> Option.get results.(i))),
      worker_stats )
  end
  else
    match errors.(c) with
    | Some e -> raise e
    | None -> begin
      match crashes with
      | (_, e) :: _ -> raise e
      | [] -> begin
        match Atomic.get stop with
        | Some reason ->
          Obs.Metrics.incr c_interrupts;
          let attempted =
            Array.fold_left
              (fun acc -> function Some _ -> acc + 1 | None -> acc)
              0 results
          in
          ( Interrupted
              {
                completed = List.init c (fun i -> Option.get results.(i));
                reason;
                attempted;
              },
            worker_stats )
        | None -> assert false
      end
    end

let map_stats ?jobs ?oversubscribe ?label f n =
  match map_guarded ?jobs ?oversubscribe ?label f n with
  | Complete vs, stats -> vs, stats
  | Interrupted { reason; _ }, _ ->
    (* without a caller-supplied guard an interruption can only come
       from an injected trip; surface it as the error it is *)
    raise (Guard.Error.Error reason)

let map ?jobs ?oversubscribe ?label f n =
  fst (map_stats ?jobs ?oversubscribe ?label f n)

(* ------------------------------------------------------------------ *)
(* Persistent worker service *)

module Service = struct
  let c_jobs = Obs.Metrics.counter "explore.pool.service.jobs"
  let c_rejected = Obs.Metrics.counter "explore.pool.service.rejected"

  (* One mailbox per worker: jobs are pinned, never stolen.  The pin is
     the point — a serving session's cached streams carry unsynchronised
     memo tables, so every job touching one session must run on the same
     domain.  Stealing would break that; tail imbalance is acceptable
     for a server (sessions are long-lived, load balancing happens at
     session-placement time). *)
  type mailbox = {
    m_lock : Mutex.t;
    m_cond : Condition.t;
    m_queue : (unit -> unit) Queue.t;
    mutable m_stopping : bool;
  }

  type t = {
    boxes : mailbox array;
    domains : unit Domain.t array;
  }

  let worker_loop box =
    let rec loop () =
      Mutex.lock box.m_lock;
      while Queue.is_empty box.m_queue && not box.m_stopping do
        Condition.wait box.m_cond box.m_lock
      done;
      if Queue.is_empty box.m_queue then begin
        (* stopping and drained *)
        Mutex.unlock box.m_lock;
        ()
      end
      else begin
        let job = Queue.pop box.m_queue in
        Mutex.unlock box.m_lock;
        (* a job must not kill its worker; result/error delivery is the
           submitter's wrapper's business *)
        (try job () with _ -> ());
        loop ()
      end
    in
    loop ()

  let create ?jobs () =
    let jobs = match jobs with Some j -> j | None -> default_jobs () in
    if jobs < 1 then invalid_arg "Pool.Service.create: jobs < 1";
    let jobs = effective_jobs jobs in
    let boxes =
      Array.init jobs (fun _ ->
        {
          m_lock = Mutex.create ();
          m_cond = Condition.create ();
          m_queue = Queue.create ();
          m_stopping = false;
        })
    in
    let domains =
      Array.map (fun box -> Domain.spawn (fun () -> worker_loop box)) boxes
    in
    { boxes; domains }

  let jobs t = Array.length t.boxes

  let submit t ~worker job =
    if worker < 0 || worker >= Array.length t.boxes then
      invalid_arg "Pool.Service.submit: worker out of range";
    let box = t.boxes.(worker) in
    Mutex.lock box.m_lock;
    let accepted = not box.m_stopping in
    if accepted then begin
      Queue.push job box.m_queue;
      Condition.signal box.m_cond
    end;
    Mutex.unlock box.m_lock;
    Obs.Metrics.incr (if accepted then c_jobs else c_rejected);
    accepted

  let depth t ~worker =
    if worker < 0 || worker >= Array.length t.boxes then
      invalid_arg "Pool.Service.depth: worker out of range";
    let box = t.boxes.(worker) in
    Mutex.lock box.m_lock;
    let d = Queue.length box.m_queue in
    Mutex.unlock box.m_lock;
    d

  let shutdown t =
    Array.iter
      (fun box ->
        Mutex.lock box.m_lock;
        box.m_stopping <- true;
        Condition.broadcast box.m_cond;
        Mutex.unlock box.m_lock)
      t.boxes;
    Array.iter Domain.join t.domains
end
