module Span = Dsim.Time.Span

type violation = {
  invariant : string;
  detail : string;
  seed : int64;
  counterexample : Schedule.t;
  original_deviations : int;
  shrink_runs : int;
  blackbox : string;
  window : Obs.Recorder.t;
  metrics : Obs.Metrics.t;
}

type report = {
  strategy : string;
  budget : int;
  jobs : int;
  schedules : int;
  distinct : int;
  steps_total : int;
  elapsed_s : float;
  cpu_s : float;
  violations : violation list;
}

(* Monotonic wall clock.  [Sys.time] is process CPU time: it over-reports
   on a loaded machine and, with several domains running, advances [jobs]
   times faster than the wall — useless as a throughput denominator.  We
   report both: wall time for schedules/sec, CPU time for efficiency. *)
let wall () =
  Int64.to_float (Monotonic_clock.now ()) /. 1e9
[@@ctslint.allow
  "wall-clock"
    "elapsed_s is a report field for the operator; it never feeds back \
     into exploration, schedules, or the merge"]

let cpu () =
  Sys.time ()
[@@ctslint.allow
  "wall-clock"
    "cpu_s is a report field for the operator; it never feeds back into \
     exploration, schedules, or the merge"]

let schedules_per_sec r =
  if r.elapsed_s <= 0. then 0.
  else float_of_int r.schedules /. r.elapsed_s

(* Reproduce a violating run deterministically from its applied deviation
   trace, delta-debug the trace down, and re-run the minimal schedule once
   more with the flight recorder and a metrics registry attached.  Pure
   sequential — the parallel explorer funnels every violation through
   here, in schedule order, so reports are independent of domain count. *)
let build_violation ~quantum cfg ~seed ~first_invariant ~deviations =
  let cfg = { cfg with Harness.seed } in
  let fails sched =
    let spec = Controller.replay_spec ~quantum sched in
    let outcome, _ = Harness.run ~spec cfg in
    Invariant.check_all outcome <> []
  in
  let counterexample, shrink_runs =
    if fails deviations then Shrink.minimize ~fails deviations
    else (deviations, 0)
  in
  (* The confirming re-run carries the flight recorder, health monitor
     and a metrics registry, so every shrunk counterexample ships its
     own black box: the dumped window travels in the report and feeds
     [ctsim postmortem] directly, and the same window is the
     counterexample's Chrome trace. *)
  let recorder = Obs.Recorder.create ~capacity:8192 () in
  let health = Obs.Health.create () in
  let metrics = Obs.Metrics.create () in
  let bb_sink = Obs.Sink.create () in
  Obs.Sink.set_recorder bb_sink (Some recorder);
  Obs.Sink.set_health bb_sink (Some health);
  Obs.Sink.attach bb_sink ~metrics;
  let final_outcome, _ =
    Harness.run
      ~spec:(Controller.replay_spec ~quantum counterexample)
      { cfg with Harness.sink = Some bb_sink }
  in
  let invariant, detail =
    match Invariant.check_all final_outcome with
    | (n, d) :: _ -> (n, d)
    | [] -> (first_invariant, "not reproducible after shrinking")
  in
  {
    invariant;
    detail;
    seed;
    counterexample;
    original_deviations = Schedule.length deviations;
    shrink_runs;
    blackbox = Obs.Postmortem.dump_string recorder (Obs.Health.incidents health);
    window = recorder;
    metrics;
  }

let explore ?(strategy = Strategy.default_random) ?(budget = 500)
    ?(quantum_us = 200) ?(stop_at_first = true) cfg =
  let quantum = Span.of_us quantum_us in
  let gen =
    Strategy.generator strategy ~base_seed:cfg.Harness.seed ~quantum
  in
  let seen = Hashtbl.create (2 * budget) in
  let violations = ref [] in
  let runs = ref 0 in
  let steps_total = ref 0 in
  let t0 = wall () in
  let c0 = cpu () in
  (* One world snapshot amortized over the whole budget; run_reused is
     result-identical to Harness.run.  Shrinking (build_violation) stays
     on fresh construction — it is the cold path. *)
  let reusable = Harness.reusable cfg in
  (try
     while !runs < budget do
       match gen.Strategy.next () with
       | None -> raise Exit
       | Some (seed, spec) ->
           let cfg = { cfg with Harness.seed } in
           let outcome, info = Harness.run_reused reusable ~spec cfg in
           incr runs;
           steps_total := !steps_total + info.Harness.steps;
           Hashtbl.replace seen info.Harness.fingerprint ();
           gen.Strategy.feedback ~spec ~info;
           (match Invariant.check_all outcome with
           | [] -> ()
           | (first_name, _) :: _ ->
               violations :=
                 build_violation ~quantum cfg ~seed ~first_invariant:first_name
                   ~deviations:info.Harness.deviations
                 :: !violations;
               if stop_at_first then raise Exit)
     done
   with Exit -> ());
  {
    strategy = Format.asprintf "%a" Strategy.pp strategy;
    budget;
    jobs = 1;
    schedules = !runs;
    distinct = Hashtbl.length seen;
    steps_total = !steps_total;
    elapsed_s = wall () -. t0;
    cpu_s = cpu () -. c0;
    violations = List.rev !violations;
  }

let pp_violation ppf v =
  Format.fprintf ppf
    "@[<v>VIOLATION of %s (seed %Ld): %s@,\
     found with %d deviation(s); shrunk to %d in %d re-run(s)@,\
     minimal counterexample: %a@]"
    v.invariant v.seed v.detail v.original_deviations
    (Schedule.length v.counterexample)
    v.shrink_runs Schedule.pp v.counterexample;
  if v.blackbox <> "" then
    Format.fprintf ppf
      "@,flight window: %d line(s) attached (write with --flight, read \
       with `ctsim postmortem`)"
      (List.length (String.split_on_char '\n' v.blackbox) - 1)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>strategy:           %s@," r.strategy;
  Format.fprintf ppf "schedules explored: %d (budget %d)@," r.schedules
    r.budget;
  if r.jobs > 1 then Format.fprintf ppf "worker domains:     %d@," r.jobs;
  Format.fprintf ppf "distinct schedules: %d@," r.distinct;
  Format.fprintf ppf "events stepped:     %d@," r.steps_total;
  Format.fprintf ppf
    "elapsed:            %.2f s wall, %.2f s cpu (%.1f schedules/s)@,"
    r.elapsed_s r.cpu_s (schedules_per_sec r);
  Format.fprintf ppf "invariants:         %s@,"
    (String.concat ", "
       (List.map (fun (i : Invariant.t) -> i.Invariant.name)
          (Invariant.all ())));
  (match r.violations with
  | [] -> Format.fprintf ppf "violations:         none@]"
  | vs ->
      Format.fprintf ppf "violations:         %d@," (List.length vs);
      Format.pp_print_list pp_violation ppf vs;
      Format.fprintf ppf "@]")
