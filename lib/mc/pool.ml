module Span = Dsim.Time.Span

(* One completed schedule, as recorded by whichever worker domain ran it.
   [violated] is the first broken invariant's name; confirmation and
   shrinking happen later, sequentially, on the calling domain. *)
type run_result = {
  seed : int64;
  spec : Controller.spec;
  info : Harness.info;
  violated : string option;
}

let exec ~reusable cfg (seed, spec) =
  let rcfg = { cfg with Harness.seed = seed } in
  let outcome, info = Harness.run_reused reusable ~spec rcfg in
  let violated =
    match Invariant.check_all outcome with
    | [] -> None
    | (name, _) :: _ -> Some name
  in
  { seed; spec; info; violated }

(* Worker harnesses are checked out of a shared free pool rather than
   built per worker, so the world-snapshot cost is paid once per domain
   across a whole exploration session (and across sessions).  A
   checked-out reusable is owned by exactly one domain until it is
   returned. *)
let reusables : Harness.reusable list ref = ref []
let reusables_m = Mutex.create ()

let take_reusable cfg =
  Mutex.lock reusables_m;
  match !reusables with
  | r :: rest ->
      reusables := rest;
      Mutex.unlock reusables_m;
      r
  | [] ->
      Mutex.unlock reusables_m;
      Harness.reusable cfg

let give_reusable r =
  Mutex.lock reusables_m;
  reusables := r :: !reusables;
  Mutex.unlock reusables_m

(* Record a violation at index [i] so workers can stop spending time past
   it.  The minimum only ever decreases, and a worker skips an index only
   when it is strictly above the current minimum, so every index at or
   below the final minimum is guaranteed to have been executed — which is
   all the merge reads. *)
let note_violation min_viol i =
  let rec upd () =
    let cur = Atomic.get min_viol in
    if i < cur && not (Atomic.compare_and_set min_viol cur i) then upd ()
  in
  upd ()

(* ------------------------------------------------------------------ *)
(* Random strategy: one atomic index dispenser                         *)

(* Run [i]'s seed and walk are pure functions of [i], so the frontier is
   just the index range [0, n), handed out one index at a time by a
   shared atomic counter.  A schedule costs ~150 µs, so one
   fetch-and-add per schedule is noise, and a shared dispenser never
   leaves one domain idle while another still has work.  Indices
   leave the counter in increasing order, so once a worker draws an
   index past the current first violation every later one is past it
   too, and the worker can stop. *)
let run_indexed ~jobs ~stop_at_first cfg n task =
  let results = Array.make n None in
  if n > 0 then begin
    let next = Atomic.make 0 in
    let min_viol = Atomic.make max_int in
    let worker () =
      let reusable = take_reusable cfg in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && not (stop_at_first && i > Atomic.get min_viol) then begin
          let r = exec ~reusable cfg (task i) in
          if r.violated <> None then note_violation min_viol i;
          results.(i) <- Some r;
          loop ()
        end
      in
      loop ();
      give_reusable reusable
    in
    let extra = Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join extra
  end;
  results

let explore_random ~delay_prob ~reorder_prob ~quantum ~jobs ~stop_at_first
    ~budget cfg =
  let base_seed = cfg.Harness.seed in
  run_indexed ~jobs ~stop_at_first cfg budget (fun i ->
      Strategy.random_run ~base_seed ~quantum ~delay_prob ~reorder_prob i)

(* ------------------------------------------------------------------ *)
(* Bounded strategy: one shared FIFO + canonical replay merge          *)

(* The bounded-reorder tree is discovered as it is executed: a spec's
   children are a pure function of its own result
   ({!Strategy.bounded_children}), and a child's [forced] trace extends
   its parent's, so the trace doubles as the task's canonical identity.

   Execution is optimistic and unordered: workers pop specs from one
   mutex-guarded FIFO (so the global order approximates the canonical
   BFS), run them outside the lock, and push the children of what they
   ran — no generation barrier, so domains never idle at a wave boundary
   while one straggler finishes.  Every completed run is recorded in a
   trace-keyed table.

   Determinism is then restored by a sequential canonical replay on the
   calling domain: walk the BFS frontier in the exact FIFO order the
   sequential generator would produce, looking every task up in the
   table; the rare task the workers never got to (they stop at [budget]
   claims, or early on a violation) is run synchronously on the spot.
   The output is therefore byte-identical at any domain count — the
   workers only decide how much of the table was filled in parallel. *)

let explore_bounded ~depth ~quantum ~jobs ~stop_at_first ~budget cfg =
  let seed = cfg.Harness.seed in
  let root = { Controller.forced = []; random = None; quantum } in
  (* Everything below is guarded by [m]: the FIFO, the trace-keyed result
     table, the claim count, the running-task count and the violation
     flag. *)
  let m = Mutex.create () in
  let queue = Queue.create () in
  let table : (Schedule.t, run_result) Hashtbl.t = Hashtbl.create 1024 in
  let claims = ref 0 and inflight = ref 0 and violated = ref false in
  Queue.push root queue;
  let worker () =
    let reusable = take_reusable cfg in
    let rec loop () =
      Mutex.lock m;
      if !claims >= budget || (stop_at_first && !violated) then Mutex.unlock m
      else if Queue.is_empty queue then begin
        (* nothing queued: done unless a running task may still publish
           children *)
        let idle = !inflight = 0 in
        Mutex.unlock m;
        if not idle then begin
          Domain.cpu_relax ();
          loop ()
        end
      end
      else begin
        let spec = Queue.pop queue in
        incr claims;
        incr inflight;
        Mutex.unlock m;
        let r = exec ~reusable cfg (seed, spec) in
        let children =
          if Schedule.length spec.Controller.forced < depth then
            Strategy.bounded_children ~quantum ~parent:spec ~info:r.info
          else []
        in
        Mutex.lock m;
        Hashtbl.replace table spec.Controller.forced r;
        if r.violated <> None then violated := true;
        List.iter (fun child -> Queue.push child queue) children;
        decr inflight;
        Mutex.unlock m;
        loop ()
      end
    in
    loop ();
    give_reusable reusable
  in
  let extra = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join extra;
  (* Canonical replay: the exact FIFO frontier the sequential generator
     walks, truncated at [budget], served from the table (or, for the
     rare miss, run here and now).  This is the deterministic
     merge-by-index: the result array below is indistinguishable from a
     sequential run's, whatever [jobs] was.  The workers have all been
     joined, so the table is read without the lock. *)
  let reusable = take_reusable cfg in
  let frontier : (int64 * Controller.spec) Queue.t = Queue.create () in
  Queue.push (seed, root) frontier;
  let out = ref [] in
  let count = ref 0 in
  let stop = ref false in
  while (not !stop) && !count < budget && not (Queue.is_empty frontier) do
    let (_, spec) as tsk = Queue.pop frontier in
    let r =
      match Hashtbl.find_opt table spec.Controller.forced with
      | Some r -> r
      | None -> exec ~reusable cfg tsk
    in
    out := r :: !out;
    incr count;
    if stop_at_first && r.violated <> None then stop := true
    else if Schedule.length spec.Controller.forced < depth then
      List.iter
        (fun child -> Queue.push (seed, child) frontier)
        (Strategy.bounded_children ~quantum ~parent:spec ~info:r.info)
  done;
  give_reusable reusable;
  Array.of_list (List.rev_map (fun r -> Some r) !out)

let explore ?(strategy = Strategy.default_random) ?(budget = 500)
    ?(quantum_us = 200) ?(stop_at_first = true) ?(jobs = 1) cfg =
  if jobs < 1 then invalid_arg "Mc.Pool.explore: jobs must be >= 1";
  let quantum = Span.of_us quantum_us in
  let t0 =
    (Explore.wall
    [@ctslint.allow
      "wall-clock" "report timing only; never influences the merge"]) ()
  in
  let c0 =
    (Explore.cpu
    [@ctslint.allow
      "wall-clock" "report timing only; never influences the merge"]) ()
  in
  (* GC parameters sized for the harness's allocation profile; set once
     from the calling domain (worker domains inherit the minor-heap size)
     and restored when the parallel section ends. *)
  let executed =
    Dsim.Engine.with_gc_tuning (fun () ->
        match strategy with
        | Strategy.Random { delay_prob; reorder_prob } ->
            explore_random ~delay_prob ~reorder_prob ~quantum ~jobs
              ~stop_at_first ~budget cfg
        | Strategy.Bounded { depth } ->
            explore_bounded ~depth ~quantum ~jobs ~stop_at_first ~budget cfg)
  in
  (* Deterministic merge: everything is computed from the prefix that ends
     at the first violating schedule (or the whole run when clean), so the
     report does not depend on how far past it other domains raced. *)
  let first_viol = ref None in
  Array.iteri
    (fun i r ->
      match (r, !first_viol) with
      | Some { violated = Some _; _ }, None -> first_viol := Some i
      | _ -> ())
    executed;
  let cutoff =
    match !first_viol with
    | Some v when stop_at_first -> v
    | _ -> Array.length executed - 1
  in
  let seen = Hashtbl.create 1024 in
  let steps_total = ref 0 in
  let raw_violations = ref [] in
  for i = 0 to cutoff do
    match executed.(i) with
    | None -> assert false (* prefix up to [cutoff] is always executed *)
    | Some r ->
        steps_total := !steps_total + r.info.Harness.steps;
        Hashtbl.replace seen r.info.Harness.fingerprint ();
        (match r.violated with
        | Some name -> raw_violations := (r, name) :: !raw_violations
        | None -> ())
  done;
  let raw_violations = List.rev !raw_violations in
  let raw_violations =
    if stop_at_first then
      match raw_violations with [] -> [] | v :: _ -> [ v ]
    else raw_violations
  in
  let violations =
    List.map
      (fun (r, name) ->
        Explore.build_violation ~quantum cfg ~seed:r.seed
          ~first_invariant:name ~deviations:r.info.Harness.deviations)
      raw_violations
  in
  {
    Explore.strategy = Format.asprintf "%a" Strategy.pp strategy;
    budget;
    jobs;
    schedules = cutoff + 1;
    distinct = Hashtbl.length seen;
    steps_total = !steps_total;
    elapsed_s =
      ((Explore.wall
       [@ctslint.allow
         "wall-clock" "report timing only; never influences the merge"]) ()
      -. t0);
    cpu_s =
      ((Explore.cpu
       [@ctslint.allow
         "wall-clock" "report timing only; never influences the merge"]) ()
      -. c0);
    violations;
  }
