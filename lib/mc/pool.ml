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
(* Random strategy: sharded index space + range stealing               *)

(* Run [i]'s seed and walk are pure functions of [i], so the frontier is
   just the index range [0, n), split into one contiguous shard per
   domain.  Each worker eats its own shard from the front in small
   batches; a worker whose shard runs dry steals the BACK half of the
   biggest surviving shard.  Compared to the previous mutex-guarded
   central dispenser, the common case touches only the worker's own
   shard lock (uncontended), and stealing moves O(remaining/2) indices
   in O(1) by fiddling two bounds — the classic range-stealing deque,
   legal here because the work items are consecutive integers. *)
type shard = { mutable lo : int; mutable hi : int; sm : Mutex.t }

let shard_take_batch sh k =
  Mutex.lock sh.sm;
  let lo = sh.lo in
  let n = min k (sh.hi - lo) in
  if n > 0 then sh.lo <- lo + n;
  Mutex.unlock sh.sm;
  (lo, n)

let shard_steal sh =
  Mutex.lock sh.sm;
  let len = sh.hi - sh.lo in
  (* ceil(len/2): a one-element shard is stolen whole, so a thief that
     picked it always makes progress *)
  let k = (len + 1) / 2 in
  let stolen = (sh.hi - k, k) in
  if k > 0 then sh.hi <- sh.hi - k;
  Mutex.unlock sh.sm;
  stolen

(* Steal from the victim with the most work left (sized without locks:
   stale bounds only make the choice suboptimal, never wrong). *)
let pick_victim shards self =
  let best = ref (-1) and best_len = ref 0 in
  Array.iteri
    (fun v sh ->
      if v <> self then begin
        let len = sh.hi - sh.lo in
        if len > !best_len then begin
          best := v;
          best_len := len
        end
      end)
    shards;
  !best

let run_indexed ~jobs ~stop_at_first cfg n task =
  let results = Array.make n None in
  if n > 0 then begin
    let jobs = min jobs n in
    let min_viol = Atomic.make max_int in
    let shards =
      Array.init jobs (fun k ->
          { lo = k * n / jobs; hi = (k + 1) * n / jobs; sm = Mutex.create () })
    in
    let batch = 16 in
    let worker k () =
      let reusable = take_reusable cfg in
      let sh = shards.(k) in
      let continue = ref true in
      while !continue do
        let lo, got = shard_take_batch sh batch in
        if got > 0 then
          for i = lo to lo + got - 1 do
            if not (stop_at_first && i > Atomic.get min_viol) then begin
              let r = exec ~reusable cfg (task i) in
              if r.violated <> None then note_violation min_viol i;
              results.(i) <- Some r
            end
          done
        else begin
          match pick_victim shards k with
          | -1 -> continue := false
          | v ->
              let slo, sn = shard_steal shards.(v) in
              if sn > 0 then begin
                Mutex.lock sh.sm;
                sh.lo <- slo;
                sh.hi <- slo + sn;
                Mutex.unlock sh.sm
              end
              (* steal raced to nothing: rescan; loop exits when every
                 shard reads empty *)
        end
      done;
      give_reusable reusable
    in
    let extra =
      Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1)))
    in
    worker 0 ();
    Array.iter Domain.join extra
  end;
  results

let explore_random ~delay_prob ~reorder_prob ~quantum ~jobs ~stop_at_first
    ~budget cfg =
  let base_seed = cfg.Harness.seed in
  run_indexed ~jobs ~stop_at_first cfg budget (fun i ->
      Strategy.random_run ~base_seed ~quantum ~delay_prob ~reorder_prob i)

(* ------------------------------------------------------------------ *)
(* Bounded strategy: per-domain task deques + canonical replay merge   *)

(* The bounded-reorder tree is discovered as it is executed: a spec's
   children are a pure function of its own result
   ({!Strategy.bounded_children}), and a child's [forced] trace extends
   its parent's, so the trace doubles as the task's canonical identity.

   Execution is optimistic and unordered: each worker keeps a private
   deque of specs, pops its own front (FIFO, so its local order
   approximates the canonical BFS), pushes the children of what it ran,
   and steals the back half of the fullest other deque when it runs dry —
   no generation barrier, so domains never idle at a wave boundary while
   one straggler finishes (the previous wave-synchronized BFS lost its
   whole speedup to exactly that).  Every completed run is recorded in a
   shared trace-keyed table.

   Determinism is then restored by a sequential canonical replay on the
   calling domain: walk the BFS frontier in the exact FIFO order the
   sequential generator would produce, looking every task up in the
   table; the rare task the workers never got to (they stop at [budget]
   claims, or early on a violation) is run synchronously on the spot.
   The output is therefore byte-identical at any domain count — the
   workers only decide how much of the table was filled in parallel. *)

type dq = {
  mutable items : (int64 * Controller.spec) array;
  mutable dlo : int;
  mutable dhi : int; (* live items in [dlo, dhi) of [items] *)
  dqm : Mutex.t;
}

let dq_dummy = (0L, { Controller.forced = []; random = None; quantum = Span.zero })

let dq_create () =
  { items = Array.make 64 dq_dummy; dlo = 0; dhi = 0; dqm = Mutex.create () }

let dq_push_back d x =
  Mutex.lock d.dqm;
  if d.dhi = Array.length d.items then begin
    let live = d.dhi - d.dlo in
    let items = Array.make (max 64 (2 * live)) dq_dummy in
    Array.blit d.items d.dlo items 0 live;
    d.items <- items;
    d.dlo <- 0;
    d.dhi <- live
  end;
  d.items.(d.dhi) <- x;
  d.dhi <- d.dhi + 1;
  Mutex.unlock d.dqm

let dq_pop_front d =
  Mutex.lock d.dqm;
  let r =
    if d.dlo < d.dhi then begin
      let x = d.items.(d.dlo) in
      d.items.(d.dlo) <- dq_dummy;
      d.dlo <- d.dlo + 1;
      Some x
    end
    else None
  in
  Mutex.unlock d.dqm;
  r

(* Move the back half (ceil, so a singleton victim still yields) of
   [victim] into [self] (assumed empty).  The loot is copied out under
   the victim's lock alone and inserted under [self]'s lock alone —
   never holding both, so two thieves picking each other as victims
   cannot deadlock on lock order. *)
let dq_steal_into ~victim ~self =
  Mutex.lock victim.dqm;
  let live = victim.dhi - victim.dlo in
  let k = (live + 1) / 2 in
  let loot =
    if k > 0 then begin
      let a = Array.sub victim.items (victim.dhi - k) k in
      Array.fill victim.items (victim.dhi - k) k dq_dummy;
      victim.dhi <- victim.dhi - k;
      a
    end
    else [||]
  in
  Mutex.unlock victim.dqm;
  if k > 0 then begin
    Mutex.lock self.dqm;
    if Array.length self.items < k then self.items <- Array.make k dq_dummy;
    Array.blit loot 0 self.items 0 k;
    self.dlo <- 0;
    self.dhi <- k;
    Mutex.unlock self.dqm
  end;
  k > 0

let explore_bounded ~depth ~quantum ~jobs ~stop_at_first ~budget cfg =
  let seed = cfg.Harness.seed in
  let root = { Controller.forced = []; random = None; quantum } in
  (* shared trace-keyed result table *)
  let table : (Schedule.t, run_result) Hashtbl.t = Hashtbl.create 1024 in
  let table_m = Mutex.create () in
  let record spec r =
    Mutex.lock table_m;
    Hashtbl.replace table spec.Controller.forced r;
    Mutex.unlock table_m
  in
  let lookup spec =
    Mutex.lock table_m;
    let r = Hashtbl.find_opt table spec.Controller.forced in
    Mutex.unlock table_m;
    r
  in
  let claims = Atomic.make 0 in
  let inflight = Atomic.make 0 in
  let violated_flag = Atomic.make false in
  let deques = Array.init jobs (fun _ -> dq_create ()) in
  dq_push_back deques.(0) (seed, root);
  let worker k () =
    let reusable = take_reusable cfg in
    let d = deques.(k) in
    let continue = ref true in
    while !continue do
      if
        Atomic.get claims >= budget
        || (stop_at_first && Atomic.get violated_flag)
      then continue := false
      else
        match dq_pop_front d with
        | Some ((_, spec) as tsk) ->
            if Atomic.fetch_and_add claims 1 < budget then begin
              Atomic.incr inflight;
              let r = exec ~reusable cfg tsk in
              record spec r;
              if r.violated <> None then Atomic.set violated_flag true;
              if Schedule.length spec.Controller.forced < depth then
                List.iter
                  (fun child -> dq_push_back d (seed, child))
                  (Strategy.bounded_children ~quantum ~parent:spec
                     ~info:r.info);
              Atomic.decr inflight
            end
        | None ->
            (* own deque dry: steal the fullest victim's back half *)
            let victim = ref (-1) and best = ref 0 in
            Array.iteri
              (fun v dv ->
                if v <> k then begin
                  let live = dv.dhi - dv.dlo in
                  if live > !best then begin
                    victim := v;
                    best := live
                  end
                end)
              deques;
            if !victim >= 0 then
              ignore (dq_steal_into ~victim:deques.(!victim) ~self:d : bool)
            else if Atomic.get inflight = 0 then
              (* nothing queued anywhere and nobody is running a task
                 that could still publish children: the tree is done *)
              continue := false
            else Domain.cpu_relax ()
    done;
    give_reusable reusable
  in
  let extra = Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  Array.iter Domain.join extra;
  (* Canonical replay: the exact FIFO frontier the sequential generator
     walks, truncated at [budget], served from the table (or, for the
     rare miss, run here and now).  This is the deterministic
     merge-by-index: the result array below is indistinguishable from a
     sequential run's, whatever [jobs] was. *)
  let reusable = take_reusable cfg in
  let frontier : (int64 * Controller.spec) Queue.t = Queue.create () in
  Queue.push (seed, root) frontier;
  let out = ref [] in
  let count = ref 0 in
  let stop = ref false in
  while (not !stop) && !count < budget && not (Queue.is_empty frontier) do
    let (_, spec) as tsk = Queue.pop frontier in
    let r = match lookup spec with Some r -> r | None -> exec ~reusable cfg tsk in
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
