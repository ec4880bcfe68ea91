type choice = Take of int | Postpone of Time.Span.t

(* The event queue's two payload lanes hold [(fn, arg)] directly, typed
   [Obj.t -> unit] / [Obj.t].  [schedule_call t d fn arg] parks the pair
   with both types erased; [schedule t d f] parks [(f, ())] — calling a
   [unit -> unit] closure with the unit immediate is exactly [f ()], so
   the closure case needs no wrapper.  The erasure is sound because the
   only reader of an [arg] is the matching [fn] stored by the same push.
   This replaces the PR 3 pooled record cells: the queue's payload slots
   (recycled via its free-slot stack) are the pool now, so steady-state
   scheduling still allocates nothing on the minor heap, without the
   cell / free-list / per-engine-sentinel machinery. *)

type t = {
  queue : (Obj.t -> unit, Obj.t) Event_queue.t;
  mutable now : Time.t;
  rng : Rng.t;
  mutable stopped : bool;
  mutable scheduler : (ready:int -> choice) option;
  mutable obs : Obs.Sink.t;
  mutable steps : int;
      (* events executed since creation: one plain increment per event,
         so event-rate accounting needs no obs sink *)
}

let unit_arg = Obj.repr ()

let erase_thunk (f : unit -> unit) : Obj.t -> unit = Obj.magic f
let erase_fn (type a) (fn : a -> unit) : Obj.t -> unit = Obj.magic fn

let create ?(seed = 1L) () =
  {
    queue = Event_queue.create ();
    now = Time.epoch;
    rng = Rng.create seed;
    stopped = false;
    scheduler = None;
    obs = Obs.Sink.create ();
    steps = 0;
  }

let now t = t.now
let rng t = t.rng
let obs t = t.obs
let set_obs t s = t.obs <- s
let set_scheduler t s = t.scheduler <- s

(* Per-callback probe.  The common (disabled) case is one field load and
   one predictable branch.  Behind the gate, a [k_step] record when
   [steps] is set (off by default: per-callback records would spend a
   recorder window on steps), else just the [Engine_events] count when
   a registry is attached — the record's metrics effect, without the
   record.  Out of line, so the inlined disabled path adds nothing else
   to the call sites; all ints, so the enabled path allocates nothing
   (OBS2 benches it). *)
let probe_step_on s at =
  if s.Obs.Sink.steps then
    let us = Time.to_ns at / 1000 in
    Obs.Sink.emit s ~kind:Obs.Recorder.k_step ~ts_us:us ~node:0 ~a:us ~b:0
  else
    match s.Obs.Sink.metrics with
    | Some m -> Obs.Metrics.incr m Obs.Metrics.Engine_events
    | None -> ()
[@@inline never]

let probe_step t at =
  let s = t.obs in
  if s.Obs.Sink.on then probe_step_on s at
[@@inline]

let schedule_at t at f =
  if Time.(at < t.now) then
    invalid_arg
      (Format.asprintf "Engine.schedule_at: %a is before now (%a)" Time.pp at
         Time.pp t.now);
  Event_queue.push t.queue at (erase_thunk f) unit_arg

let schedule t d f =
  let d = if Time.Span.is_negative d then Time.Span.zero else d in
  Event_queue.push t.queue (Time.add t.now d) (erase_thunk f) unit_arg

let schedule_call (type a) t d (fn : a -> unit) (arg : a) =
  let d = if Time.Span.is_negative d then Time.Span.zero else d in
  Event_queue.push t.queue (Time.add t.now d) (erase_fn fn) (Obj.repr arg)

let schedule_call_at (type a) t at (fn : a -> unit) (arg : a) =
  if Time.(at < t.now) then
    invalid_arg
      (Format.asprintf "Engine.schedule_call_at: %a is before now (%a)" Time.pp
         at Time.pp t.now);
  Event_queue.push t.queue at (erase_fn fn) (Obj.repr arg)

let run_event t = function
  | None -> false
  | Some (at, fn, arg) ->
      t.now <- at;
      t.steps <- t.steps + 1;
      probe_step t at;
      fn arg;
      true

(* Advance the clock / counters and fire the head event.  Caller
   guarantees the queue is non-empty.  One emptiness test, one root read,
   no option or tuple: the per-event fast path everywhere below. *)
let fire_head t =
  let at = Event_queue.min_time_exn t.queue in
  t.now <- at;
  t.steps <- t.steps + 1;
  probe_step t at;
  Event_queue.fire_min_exn t.queue
[@@inline] [@@ctslint.hotpath]

let step t =
  match t.scheduler with
  | None ->
      if Event_queue.is_empty t.queue then false
      else begin
        fire_head t;
        true
      end
  | Some hook -> (
      match Event_queue.ready_count t.queue with
      | 0 -> false
      | ready -> (
          match hook ~ready with
          | Take 0 ->
              (* [Take 0] is the default schedule: identical to the plain
                 pop, so it gets the same allocation-free fast path. *)
              fire_head t;
              true
          | Take i -> run_event t (Event_queue.pop_nth t.queue i)
          | Postpone d -> (
              match Event_queue.pop t.queue with
              | None -> false
              | Some (at, fn, arg) ->
                  (* Deferring re-enqueues the head strictly later; virtual
                     time stays monotone because [at >= t.now] already. *)
                  let d =
                    if Time.Span.(d <= Time.Span.zero) then Time.Span.of_ns 1
                    else d
                  in
                  Event_queue.push t.queue (Time.add at d) fn arg;
                  true)))

(* Hook-free inner loop: one emptiness test and one [min_time_exn] per
   event, shared between the horizon check and the pop.  The horizon test
   is hoisted out of the loop: the unbounded case — every [Engine.run]
   and the whole explorer hot path — pays no per-event option match. *)
let run_plain t ~horizon budget =
  match horizon with
  | None ->
      let n = ref !budget in
      while
        (not t.stopped) && !n > 0 && not (Event_queue.is_empty t.queue)
      do
        fire_head t;
        decr n
      done;
      budget := !n
  | Some h ->
      let continue = ref true in
      while !continue do
        if t.stopped || !budget <= 0 || Event_queue.is_empty t.queue then
          continue := false
        else if Time.(Event_queue.min_time_exn t.queue > h) then
          continue := false
        else begin
          fire_head t;
          decr budget
        end
      done

(* Hook path (model checking): the hook decides what runs, so we only peek
   at the head for the horizon test and delegate to [step]. *)
let run_hooked t ~horizon budget =
  let continue = ref true in
  while !continue do
    if t.stopped || !budget <= 0 || Event_queue.is_empty t.queue then
      continue := false
    else
      match horizon with
      | Some h when Time.(Event_queue.min_time_exn t.queue > h) ->
          continue := false
      | _ ->
          ignore (step t : bool);
          decr budget
  done

let run ?until ?max_events t =
  t.stopped <- false;
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  (match t.scheduler with
  | None -> run_plain t ~horizon:until budget
  | Some _ -> run_hooked t ~horizon:until budget);
  match until with Some h when Time.(h > t.now) -> t.now <- h | _ -> ()

let with_gc_tuning ?(minor_heap_words = 1024 * 1024)
    ?(space_overhead = 800) f =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = minor_heap_words; space_overhead };
  Fun.protect ~finally:(fun () -> Gc.set saved) f

let steps t = t.steps
let pending t = Event_queue.length t.queue
let queue_high_water t = Event_queue.high_water t.queue
let reset_queue_high_water t = Event_queue.reset_high_water t.queue
let stop t = t.stopped <- true
