module Count = Timebase.Count
module Interval = Timebase.Interval
module Stream = Event_model.Stream

(* Completion time of the q-th activation within the level-i busy
   period: least fixed point of w = B + q C+ + interference(w), where B
   is an optional blocking term for shared resources (priority-inversion
   bound of the locking protocol in use).  The higher-priority set is
   snapshot once per analysed task (not once per q), the interference
   queries go through the resumable [Busy_window.Demand] kernel, and the
   fixpoint for the q-th activation warm-starts at the (q-1)-th
   completion [w'].  Warm start is sound: the window equation [f_q] is
   monotone with [f_q w' = own_q - own_(q-1) + w' >= w'] (since [w'] is
   the previous fixpoint of the same demand term and [own] grows by [C+]
   per q), so iterating from [w'] still reaches the least fixed point of
   [f_q] — every iterate stays [<= lfp] — while skipping the ramp-up
   from [own_q].  Query windows therefore never decrease across the
   whole busy period, which is exactly the hint contract of [Demand].
   [Verify.Oracle] keeps the cold-started fixpoint as its reference. *)
let make_finish ~window_limit ~blocking ~task ~others =
  let hp = Busy_window.higher_priority ~than:task others in
  let demand = Busy_window.Demand.make hp in
  let c_plus = Interval.hi task.Rt_task.cet in
  let prev = ref 0 in
  fun q ->
    let own = blocking + (q * c_plus) in
    let diverged = ref false in
    let step w =
      match Busy_window.Demand.eval demand ~window:w with
      | Ok d -> own + d
      | Error _ ->
        diverged := true;
        w
    in
    match
      Busy_window.fixpoint ~limit:window_limit ~init:(Stdlib.max own !prev)
        step
    with
    | Some w when not !diverged ->
      prev := w;
      Some w
    | Some _ | None -> None

let response_time ?(window_limit = Busy_window.default_window_limit) ?q_limit
    ?record ?(blocking = 0) ~task ~others () =
  if blocking < 0 then
    raise
      (Guard.Error.Error
         (Guard.Error.Invalid_spec
            {
              reason =
                Printf.sprintf "Spp: negative blocking for %s"
                  task.Rt_task.name;
            }));
  Busy_window.max_response ~label:task.Rt_task.name ?q_limit ?record
    ~best_case:(Interval.lo task.Rt_task.cet)
    ~arrival:(Stream.delta_min task.Rt_task.activation)
    ~finish:(make_finish ~window_limit ~blocking ~task ~others)
    ()

let backlog_bound ?(window_limit = Busy_window.default_window_limit) ?q_limit
    ?(blocking = 0) ~task ~others () =
  let activation = task.Rt_task.activation in
  let arrivals_in w =
    match Stream.eta_plus activation w with
    | Count.Fin n -> Ok n
    | Count.Inf ->
      Error
        (Printf.sprintf "unbounded arrivals of %s in window %d"
           task.Rt_task.name w)
  in
  Busy_window.max_backlog ~label:task.Rt_task.name ?q_limit
    ~arrival:(Stream.delta_min activation)
    ~arrivals_in
    ~finish:(make_finish ~window_limit ~blocking ~task ~others)
    ()

let analyse ?window_limit ?q_limit tasks =
  List.map
    (fun task ->
      let others = List.filter (fun t -> t != task) tasks in
      task, response_time ?window_limit ?q_limit ~task ~others ())
    tasks

let analyse_profiled ?window_limit ?q_limit tasks =
  List.map
    (fun task ->
      let others = List.filter (fun t -> t != task) tasks in
      let record, profile = Busy_window.profile_collector () in
      let outcome =
        response_time ?window_limit ?q_limit ~record ~task ~others ()
      in
      let profile =
        match outcome with
        | Busy_window.Bounded _ -> profile ()
        | Busy_window.Unbounded _ -> None
      in
      task, outcome, profile)
    tasks
