(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index), runs Bechamel
   micro-benchmarks of the building blocks, and emits a machine-readable
   benchmark trajectory (BENCH_PR10.json, or $CTS_BENCH_JSON) so future
   PRs can diff their perf numbers against this one.  The engine and
   explorer sections also report explicit deltas against the checked-in
   PR-2..PR-8 numbers (BENCH_PR2.json .. BENCH_PR8.json) measured on
   the same machine; the OBS1 section guards PR 4's claim that
   compiled-in but disabled probes cost nothing, the OBS2 section
   guards PR 9's claim that the always-on flight recorder stays within
   5% of recorder-off throughput at zero allocation, the LINT1 section
   times PR 5's full-tree ctslint pass, the LINT2 section times PR 10's
   typed .cmt certification pass, the HIER1 section scales the
   PR-6 hierarchical multi-ring service from 4 to 1024 replicas, and
   the SCALE1 section guards PR 7's superlinear-cost elimination: it
   attributes the 1024-replica run's wall time to (subsystem, probe)
   sites and hard-fails CI (via the "PERF WARNING (scale)" marker) if
   256-replica formation creeps back over budget.

   Run with: dune exec bench/main.exe
   Scale the workloads down for a quick pass with CTS_BENCH_SCALE=0.01. *)

[@@@ctslint.allow
"wall-clock"
  "benchmarks measure real elapsed time by definition; nothing here feeds \
   back into simulated state"]

module E = Scenario.Experiments
module R = Scenario.Report

let scale =
  match Sys.getenv_opt "CTS_BENCH_SCALE" with
  | Some s -> (
      match float_of_string_opt s with Some f -> max 0.001 f | None -> 1.)
  | None -> 1.

let scaled n = max 20 (int_of_float (float_of_int n *. scale))
let ppf = Format.std_formatter
let section name = Format.fprintf ppf "@.==== %s ====@.@." name

(* ------------------------------------------------------------------ *)
(* The benchmark-trajectory JSON: every section below contributes the
   numbers future PRs diff against.  Kept as a flat association of JSON
   fragments so the emitter stays dependency-free. *)

let json_fields : (string * string) list ref = ref []
let json_add name fragment = json_fields := (name, fragment) :: !json_fields

let json_path =
  Option.value ~default:"BENCH_PR10.json" (Sys.getenv_opt "CTS_BENCH_JSON")

(* PR-2 baselines (BENCH_PR2.json, this machine): the perf targets PR 3's
   zero-allocation work was measured against. *)
let baseline_pr2_engine_events_per_sec = 1_833_336.
let baseline_pr2_jobs1_schedules_per_sec = 4026.4

(* PR-3 baselines (BENCH_PR3.json, this machine): the numbers the probe
   instrumentation must not regress.  The acceptance bar for PR 4 is
   disabled-probe engine throughput within 5% of these. *)
let baseline_pr3_engine_events_per_sec = 2_975_559.
let baseline_pr3_jobs1_schedules_per_sec = 6095.4

(* PR-4 baselines (BENCH_PR4.json, this machine): the observability PR's
   numbers.  PR 5 is a static-analysis PR — its only runtime changes are
   the deterministic-iteration fixes (Dsim.Det on gcs/repl/totem/cts fan
   out paths), none of which sit on the engine or explorer hot loops, so
   the bar is parity with these. *)
let baseline_pr4_engine_events_per_sec = 2_986_596.
let baseline_pr4_obs_disabled_events_per_sec = 2_938_873.
let baseline_pr4_jobs1_schedules_per_sec = 5182.5

(* PR-5 baselines (BENCH_PR5.json, this machine).  Note the engine number
   is itself 0.90x of the PR-4 baseline — ROADMAP item 3's unexplained
   regression, which the explicit deltas below keep visible until it is
   hunted down; parity with PR-5 must not be read as parity with PR-4. *)
let baseline_pr5_engine_events_per_sec = 2_689_172.
let baseline_pr5_jobs1_schedules_per_sec = 5540.9

(* PR-6 baselines (BENCH_PR6.json, this machine).  The engine number is
   the small-scale hot path PR 7 must not regress; the HIER1 rows are
   the superlinear scale-out costs PR 7 exists to kill — bridge rounds
   per wall second fell 130x from 4 to 1024 replicas while rounds per
   simulated second stayed flat, and 32x32 formation alone burned 238 s. *)
let baseline_pr6_engine_events_per_sec = 3_208_399.

(* (replicas, rounds_per_wall_sec, formation_wall_s) from BENCH_PR6's
   HIER1 sweep. *)
let baseline_pr6_hier =
  [
    (4, 7102.7, 0.0);
    (16, 3370.3, 0.002);
    (64, 1256.9, 0.045);
    (256, 330.6, 2.626);
    (1024, 54.5, 238.182);
  ]

(* PR-7 baselines (BENCH_PR7.json, this machine).  The engine number is
   what the PR-8 struct-of-arrays event core must beat (ROADMAP item 3:
   recover >PR-4); the jobs-1 explore number is the marshalled-reset
   harness the diff-based restore replaces.  BENCH_PR7's
   speedup_4_over_1 was 0.88 on a 1-core host — the wave-synchronized
   frontier losing to its own coordination. *)
let baseline_pr7_engine_events_per_sec = 2_714_787.
let baseline_pr7_jobs1_schedules_per_sec = 6847.3

(* PR-8 baselines (BENCH_PR8.json, this machine): the SoA event core and
   diff-based world restore.  The obs-disabled number is what OBS2's
   recorder-off pass should reproduce, and the 0.95x enabled/disabled
   ratio gate is measured against a recorder-off pass from the same
   process, not against this constant — the constant only keeps the
   cross-PR trajectory visible. *)
let baseline_pr8_engine_events_per_sec = 4_498_350.
let baseline_pr8_obs_disabled_events_per_sec = 4_564_674.
let baseline_pr8_jobs1_schedules_per_sec = 11_886.7

let emit_json () =
  let oc = open_out json_path in
  output_string oc "{\n";
  let fields =
    [
      ("scale", Printf.sprintf "%g" scale);
      ("cores_available", string_of_int (Domain.recommended_domain_count ()));
    ]
    @ List.rev !json_fields
  in
  List.iteri
    (fun i (name, fragment) ->
      Printf.fprintf oc "  %S: %s%s\n" name fragment
        (if i = List.length fields - 1 then "" else ","))
    fields;
  output_string oc "}\n";
  close_out oc;
  Format.fprintf ppf "@.benchmark trajectory written to %s@." json_path

(* ------------------------------------------------------------------ *)

let bench_fig4 () =
  section "E1 / Figure 4: worked example of the CCS algorithm";
  R.fig4 ppf (E.fig4 ())

let bench_token () =
  section "M1: token-passing-time calibration (paper ref [20])";
  R.token ppf (E.token_calibration ~rotations:(scaled 10_000) ())

let latency_json (r : E.latency_run) =
  Printf.sprintf "{\"mean_us\": %.2f, \"p50_us\": %.2f, \"p99_us\": %.2f}"
    (Stats.Summary.mean r.E.summary)
    (Stats.Summary.percentile r.E.summary 50.)
    (Stats.Summary.percentile r.E.summary 99.)

let bench_fig5 () =
  section
    "E2 / Figure 5: end-to-end latency with and without the consistent time \
     service";
  let invocations = scaled 10_000 in
  Format.fprintf ppf "(%d invocations per run)@." invocations;
  let with_cts = E.latency ~invocations ~use_cts:true () in
  let without_cts = E.latency ~invocations ~use_cts:false () in
  R.latency_pair ppf ~with_cts ~without_cts;
  json_add "fig5"
    (Printf.sprintf
       "{\"invocations\": %d, \"with_cts\": %s, \"without_cts\": %s}"
       invocations (latency_json with_cts) (latency_json without_cts))

let bench_fig6_and_counts () =
  section "E3-E6 / Figure 6: skew, drift and CCS message counts";
  let rounds = scaled 10_000 in
  Format.fprintf ppf "(%d clock-related operations per replica)@.@." rounds;
  let run = E.skew ~rounds () in
  R.fig6a ppf run ~rounds:20;
  Format.fprintf ppf "@.";
  R.fig6b ppf run ~rounds:20;
  Format.fprintf ppf "@.";
  R.fig6c ppf run ~rounds:20;
  Format.fprintf ppf "@.";
  R.msg_counts ppf run;
  (* The per-second slope is quoted together with the round rate that
     produced it: the simulated workload issues rounds ~1000x faster
     than the paper's testbed, so only the per-round figure is
     comparable across setups (see Experiments.drift_stats). *)
  let ds = E.drift_stats run in
  json_add "fig6"
    (Printf.sprintf
       "{\"rounds\": %d, \"drift_slope_us_per_s\": %.4f, \
        \"drift_us_per_round\": %.4f, \"rounds_per_sec\": %.1f, \
        \"ccs_sent_total\": %d, \"ccs_suppressed_total\": %d}"
       rounds ds.E.per_second_us ds.E.per_round_us ds.E.rounds_per_sec
       (Array.fold_left ( + ) 0 run.E.ccs_sent)
       (Array.fold_left ( + ) 0 run.E.ccs_suppressed))

let bench_drift () =
  section "A1: drift-compensation ablation (paper section 3.3)";
  let rounds = scaled 2_000 in
  let strategies =
    [
      ("no compensation", `No_compensation);
      ("mean-delay (+50 us)", `Mean_delay 50);
      ("anchored (gain 0.1)", `Anchored (0.1, 50));
    ]
  in
  let runs =
    List.map (fun (name, c) -> (name, E.skew ~rounds ~compensation:c ()))
      strategies
  in
  R.drift_table ppf runs

let bench_rollback () =
  section "A2: clock roll-back on failover (paper section 1)";
  let readings_per_phase = scaled 30 in
  let baseline =
    E.rollback ~readings_per_phase ~style:Repl.Replica.Semi_active
      ~offset_tracking:false
      ~clock_offset_us:(fun i -> -300_000 * (i - 1))
      ()
  in
  let cts =
    E.rollback ~readings_per_phase ~style:Repl.Replica.Semi_active
      ~offset_tracking:true
      ~clock_offset_us:(fun i -> -300_000 * (i - 1))
      ()
  in
  R.rollback_pair ppf ~baseline ~cts

let bench_group_size () =
  section "A4: overhead vs replication degree";
  let invocations = scaled 2_000 in
  let rows =
    List.map
      (fun replicas ->
        ( replicas,
          E.latency ~invocations ~replicas ~use_cts:true (),
          E.latency ~invocations ~replicas ~use_cts:false () ))
      [ 2; 3; 4; 5 ]
  in
  R.group_size_table ppf rows

let bench_recovery () =
  section "A3: new-replica integration (paper section 3.2)";
  R.recovery ppf (E.recovery ~readings:(scaled 40) ())

let bench_delivery_mode () =
  section "A5: agreed vs safe delivery (Totem delivery-guarantee ablation)";
  let invocations = scaled 2_000 in
  let run delivery =
    E.latency ~invocations ~use_cts:true
      ~totem_config:{ Totem.Config.default with delivery }
      ()
  in
  let agreed = run Totem.Config.Agreed in
  let safe = run Totem.Config.Safe in
  Format.fprintf ppf "%-22s %-18s@." "delivery guarantee" "mean latency (us)";
  Format.fprintf ppf "%-22s %-18.1f@." "agreed (paper's)"
    (Stats.Summary.mean agreed.E.summary);
  Format.fprintf ppf "%-22s %-18.1f@." "safe"
    (Stats.Summary.mean safe.E.summary);
  Format.fprintf ppf
    "safe delivery stabilizes every message across the ring first; the      paper's CTS only needs agreed delivery@."

let bench_causal () =
  section "E7: causal group clocks across groups (paper section 5)";
  R.causal ppf (E.causal ())

let bench_mc () =
  section "MC1: schedule exploration throughput (lib/mc)";
  let budget = scaled 500 in
  let cfg = { Mc.Harness.default with Mc.Harness.rounds = 8 } in
  let run name strategy =
    let r = Mc.Explore.explore ~strategy ~budget cfg in
    Format.fprintf ppf
      "%-28s %6d schedules (%d distinct) in %.2f s — %.0f schedules/s@." name
      r.Mc.Explore.schedules r.Mc.Explore.distinct r.Mc.Explore.elapsed_s
      (Mc.Explore.schedules_per_sec r);
    r
  in
  let random = run "random walk" Mc.Strategy.default_random in
  let bounded =
    run "bounded-reorder (depth 1)" (Mc.Strategy.Bounded { depth = 1 })
  in
  (* Which world-reset mechanism the harness settled on for this config:
     `Diff is the dirty-set restore; `Fresh means the restore
     verification probe rejected it and every run rebuilds its world —
     worth knowing when reading the throughput above. *)
  let mode =
    match Mc.Harness.reuse_mode (Mc.Harness.reusable cfg) with
    | `Diff -> "diff"
    | `Fresh -> "fresh"
  in
  Format.fprintf ppf "world reset mechanism: %s@." mode;
  json_add "mc_explore"
    (Printf.sprintf
       "{\"schedules\": %d, \"distinct\": %d, \"schedules_per_sec\": %.1f, \
        \"bounded_schedules_per_sec\": %.1f, \"reuse_mode\": %S}"
       random.Mc.Explore.schedules random.Mc.Explore.distinct
       (Mc.Explore.schedules_per_sec random)
       (Mc.Explore.schedules_per_sec bounded)
       mode)

(* Raw engine throughput: timer events through the unboxed queue, no
   protocol on top.  The denominator every simulation pays.  Runs under
   the engine's GC tuning (as the explorer does) and instruments the GC
   so the zero-allocation claim is a measured number, not an assertion:
   [bytes_per_event] counts minor-heap allocation per scheduled+fired
   event, and [minor_collections] the collections the whole run cost. *)
let bench_engine_events () =
  section "MC2: raw engine event throughput";
  let n = scaled 2_000_000 in
  (* The figure experiments above leave a grown, fragmented major heap;
     compact so the measurement starts from the same heap state as a
     standalone run. *)
  Gc.compact ();
  Dsim.Engine.with_gc_tuning (fun () ->
      (* One timed pass over [n] events.  The wall-clock number is taken
         as the best of five passes: the box this runs on has periodic
         background load that perturbs single runs by 15%+, and the
         fastest pass is the standard estimator for the machine's actual
         capability under such noise (the GC counters are load-invariant
         and come from the same pass). *)
      let batch = 10_000 in
      let one_pass () =
        (* Warm outside the meter: engine construction and the queue's
           first growth to batch size are one-time costs, not per-event
           costs — the meter starts on a steady-state heap, the same
           discipline OBS1 uses.  Scheduling itself stays inside the
           timed region; it is half the per-event work being measured. *)
        let eng = Dsim.Engine.create () in
        for i = 1 to batch do
          Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
        done;
        Dsim.Engine.run eng;
        let t0 = Mc.Explore.wall () in
        let s0 = Gc.quick_stat () in
        let w0 = Gc.minor_words () in
        let done_ = ref 0 in
        while !done_ < n do
          let k = min batch (n - !done_) in
          for i = 1 to k do
            Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
          done;
          Dsim.Engine.run eng;
          done_ := !done_ + k
        done;
        let dt = Mc.Explore.wall () -. t0 in
        let s1 = Gc.quick_stat () in
        let bytes = (Gc.minor_words () -. w0) *. 8. /. float_of_int n in
        let minors = s1.Gc.minor_collections - s0.Gc.minor_collections in
        (dt, bytes, minors)
      in
      let best (adt, ab, am) (bdt, bb, bm) =
        if bdt < adt then (bdt, bb, bm) else (adt, ab, am)
      in
      let dt, bytes_per_event, minor_collections =
        best (one_pass ())
          (best (one_pass ())
             (best (one_pass ()) (best (one_pass ()) (one_pass ()))))
      in
      let per_sec = float_of_int n /. dt in
      let speedup = per_sec /. baseline_pr2_engine_events_per_sec in
      let vs_pr3 = per_sec /. baseline_pr3_engine_events_per_sec in
      let vs_pr4 = per_sec /. baseline_pr4_engine_events_per_sec in
      let vs_pr5 = per_sec /. baseline_pr5_engine_events_per_sec in
      let vs_pr6 = per_sec /. baseline_pr6_engine_events_per_sec in
      let vs_pr7 = per_sec /. baseline_pr7_engine_events_per_sec in
      let vs_pr8 = per_sec /. baseline_pr8_engine_events_per_sec in
      Format.fprintf ppf
        "%d timer events in %.3f s — %.2e events/s (%.2fx vs PR-2's %.2e, \
         %.2fx vs PR-3's %.2e, %.2fx vs PR-4's %.2e, %.2fx vs PR-5's \
         %.2e, %.2fx vs PR-6's %.2e, %.2fx vs PR-7's %.2e; best of 5 \
         passes)@."
        n dt per_sec speedup baseline_pr2_engine_events_per_sec vs_pr3
        baseline_pr3_engine_events_per_sec vs_pr4
        baseline_pr4_engine_events_per_sec vs_pr5
        baseline_pr5_engine_events_per_sec vs_pr6
        baseline_pr6_engine_events_per_sec vs_pr7
        baseline_pr7_engine_events_per_sec;
      Format.fprintf ppf "vs PR-8's SoA core (%.2e events/s): %.2fx@."
        baseline_pr8_engine_events_per_sec vs_pr8;
      if vs_pr4 < 0.95 then
        Format.fprintf ppf
          "note: still below the PR-4 baseline (PR-5 measured 0.90x; \
           ROADMAP item 3) — the PR-5 delta alone does not show it@.";
      Format.fprintf ppf
        "allocation: %.1f bytes/event on the minor heap, %d minor \
         collection(s)@."
        bytes_per_event minor_collections;
      if per_sec < 0.8 *. baseline_pr2_engine_events_per_sec then
        Format.fprintf ppf
          "PERF WARNING: engine throughput %.2e events/s is more than 20%% \
           below the PR-2 baseline %.2e@."
          per_sec baseline_pr2_engine_events_per_sec;
      json_add "engine"
        (Printf.sprintf
           "{\"events\": %d, \"events_per_sec\": %.0f, \
            \"baseline_pr2_events_per_sec\": %.0f, \"speedup_over_pr2\": \
            %.3f, \"baseline_pr3_events_per_sec\": %.0f, \
            \"speedup_over_pr3\": %.3f, \
            \"baseline_pr4_events_per_sec\": %.0f, \
            \"speedup_over_pr4\": %.3f, \
            \"baseline_pr5_events_per_sec\": %.0f, \
            \"speedup_over_pr5\": %.3f, \
            \"baseline_pr6_events_per_sec\": %.0f, \
            \"speedup_over_pr6\": %.3f, \
            \"baseline_pr7_events_per_sec\": %.0f, \
            \"speedup_over_pr7\": %.3f, \
            \"baseline_pr8_events_per_sec\": %.0f, \
            \"speedup_over_pr8\": %.3f, \"bytes_per_event\": %.2f, \
            \"minor_collections\": %d}"
           n per_sec baseline_pr2_engine_events_per_sec speedup
           baseline_pr3_engine_events_per_sec vs_pr3
           baseline_pr4_engine_events_per_sec vs_pr4
           baseline_pr5_engine_events_per_sec vs_pr5
           baseline_pr6_engine_events_per_sec vs_pr6
           baseline_pr7_engine_events_per_sec vs_pr7
           baseline_pr8_engine_events_per_sec vs_pr8 bytes_per_event
           minor_collections))

(* OBS1: the PR-4 perf guard.  Probes are now compiled into every hot
   path; this section measures what they cost (a) disabled — the default,
   which must stay free: 0.0 bytes/event and throughput within 5% of the
   PR-3 baseline — and (b) with a metrics registry attached.  Both passes
   exclude engine construction and warm the event queue first, so the
   steady-state loop is the only thing under the meter; the numbers are
   reported through the registry's own section mechanism, which is also
   how the per-event-type counters come out.  Disabled means the sink's
   one record gate is off; attaching the registry opens it, and the
   engine then counts every event.

   The disabled-probe check emits a distinct "PERF WARNING (obs-disabled)"
   marker that CI greps for and turns into a hard failure. *)
let bench_obs () =
  section "OBS1: probe overhead — disabled (must be free) and metrics-on";
  let n = scaled 2_000_000 in
  Gc.compact ();
  Dsim.Engine.with_gc_tuning (fun () ->
      let batch = 10_000 in
      let one_pass sink =
        let eng = Dsim.Engine.create () in
        (match sink with
        | Some s -> Dsim.Engine.set_obs eng s
        | None -> ());
        (* Warm up outside the meter: queue growth to [batch] capacity and
           code paging happen here, not in the measured loop. *)
        for i = 1 to batch do
          Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
        done;
        Dsim.Engine.run eng;
        let t0 = Mc.Explore.wall () in
        let w0 = Gc.minor_words () in
        let done_ = ref 0 in
        while !done_ < n do
          let k = min batch (n - !done_) in
          for i = 1 to k do
            Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
          done;
          Dsim.Engine.run eng;
          done_ := !done_ + k
        done;
        let dt = Mc.Explore.wall () -. t0 in
        (dt, Gc.minor_words () -. w0)
      in
      let best5 sink =
        let best = ref (one_pass sink) in
        for _ = 1 to 4 do
          let (dt, _) as r = one_pass sink in
          if dt < fst !best then best := r
        done;
        !best
      in
      let dt_off, words_off = best5 None in
      let metrics = Obs.Metrics.create () in
      let sink = Obs.Sink.create () in
      Obs.Sink.attach sink ~metrics;
      let dt_on, words_on = best5 (Some sink) in
      (* Report both passes through the registry the probes feed, so the
         per-event-type accounting exercises the same exporter the CLI
         dumps. *)
      let s_off = Obs.Metrics.section metrics "engine-step/probes-off" in
      Obs.Metrics.section_record s_off ~events:n ~ns:(dt_off *. 1e9)
        ~minor_words:words_off;
      let s_on = Obs.Metrics.section metrics "engine-step/metrics-on" in
      Obs.Metrics.section_record s_on ~events:n ~ns:(dt_on *. 1e9)
        ~minor_words:words_on;
      let per_sec_off = float_of_int n /. dt_off in
      let per_sec_on = float_of_int n /. dt_on in
      let bytes_off = words_off *. 8. /. float_of_int n in
      let bytes_on = words_on *. 8. /. float_of_int n in
      let vs_pr3 = per_sec_off /. baseline_pr3_engine_events_per_sec in
      let vs_pr4 = per_sec_off /. baseline_pr4_obs_disabled_events_per_sec in
      Format.fprintf ppf
        "probes disabled:   %.2e events/s, %.1f bytes/event (%.2fx vs \
         PR-3's %.2e, %.2fx vs PR-4's %.2e; best of 5)@."
        per_sec_off bytes_off vs_pr3 baseline_pr3_engine_events_per_sec
        vs_pr4 baseline_pr4_obs_disabled_events_per_sec;
      Format.fprintf ppf
        "metrics attached:  %.2e events/s, %.1f bytes/event (%.1f%% \
         slower than disabled)@."
        per_sec_on bytes_on
        (100. *. ((dt_on /. dt_off) -. 1.));
      Format.fprintf ppf
        "registry counted %d engine event(s) during the metrics-on runs@."
        (Obs.Metrics.get metrics Obs.Metrics.Engine_events);
      if bytes_off > 0.05 then
        Format.fprintf ppf
          "PERF WARNING (obs-disabled): disabled probes allocate %.2f \
           bytes/event on the engine hot path (must be 0.0)@."
          bytes_off;
      (* The allocation gate above is deterministic at any scale.  The
         throughput gate is 5% at full scale (the acceptance bar) but
         relaxed to 20% on scaled-down runs, whose short passes sit
         inside the box's load noise. *)
      let tolerance = if scale >= 1. then 0.95 else 0.80 in
      if vs_pr3 < tolerance then
        Format.fprintf ppf
          "PERF WARNING (obs-disabled): engine throughput with disabled \
           probes is %.2e events/s, more than %.0f%% below the PR-3 \
           baseline %.2e@."
          per_sec_off
          (100. *. (1. -. tolerance))
          baseline_pr3_engine_events_per_sec;
      json_add "obs_overhead"
        (Printf.sprintf
           "{\"events\": %d, \"disabled_events_per_sec\": %.0f, \
            \"disabled_bytes_per_event\": %.2f, \
            \"disabled_vs_pr3\": %.3f, \"disabled_vs_pr4\": %.3f, \
            \"metrics_events_per_sec\": %.0f, \
            \"metrics_bytes_per_event\": %.2f, \
            \"metrics_overhead_pct\": %.1f}"
           n per_sec_off bytes_off vs_pr3 vs_pr4 per_sec_on bytes_on
           (100. *. ((dt_on /. dt_off) -. 1.))))

(* OBS2: the PR-9 flight-recorder guard.  The recorder is meant to stay
   attached in every run — the black box — so its enabled cost is the
   claim under test: with a recorder attached and the sink's [steps]
   flag on (one record per fired engine event through [Sink.emit], the
   worst case; real runs only record protocol-level events), throughput
   must stay within 5% of the recorder-off pass from the same process,
   at 0.0 bytes/event.  The workload and measurement discipline are
   OBS1's exactly; [n] is large enough that the ring wraps dozens of
   times, so the steady-state wrap path is what gets measured.  CI
   greps for the "PERF WARNING (recorder)" marker and turns it into a
   hard failure. *)
let bench_obs_recorder () =
  section "OBS2: flight-recorder overhead — enabled vs off, wrap path";
  let n = scaled 2_000_000 in
  Gc.compact ();
  Dsim.Engine.with_gc_tuning (fun () ->
      let batch = 10_000 in
      let one_pass sink =
        let eng = Dsim.Engine.create () in
        (match sink with
        | Some s -> Dsim.Engine.set_obs eng s
        | None -> ());
        for i = 1 to batch do
          Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
        done;
        Dsim.Engine.run eng;
        let t0 = Mc.Explore.wall () in
        let w0 = Gc.minor_words () in
        let done_ = ref 0 in
        while !done_ < n do
          let k = min batch (n - !done_) in
          for i = 1 to k do
            Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
          done;
          Dsim.Engine.run eng;
          done_ := !done_ + k
        done;
        let dt = Mc.Explore.wall () -. t0 in
        (dt, Gc.minor_words () -. w0)
      in
      let best5 sink =
        let best = ref (one_pass sink) in
        for _ = 1 to 4 do
          let (dt, _) as r = one_pass sink in
          if dt < fst !best then best := r
        done;
        !best
      in
      let dt_off, _ = best5 None in
      let recorder = Obs.Recorder.create () in
      let sink = Obs.Sink.create () in
      Obs.Sink.set_recorder sink (Some recorder);
      Obs.Sink.set_steps sink true;
      let dt_on, words_on = best5 (Some sink) in
      let per_sec_off = float_of_int n /. dt_off in
      let per_sec_on = float_of_int n /. dt_on in
      let bytes_on = words_on *. 8. /. float_of_int n in
      let ratio = per_sec_on /. per_sec_off in
      let vs_pr8 = per_sec_off /. baseline_pr8_obs_disabled_events_per_sec in
      Format.fprintf ppf
        "recorder off:      %.2e events/s (%.2fx vs PR-8's %.2e; best of \
         5)@."
        per_sec_off vs_pr8 baseline_pr8_obs_disabled_events_per_sec;
      Format.fprintf ppf
        "recorder enabled:  %.2e events/s, %.1f bytes/event — %.2fx of \
         recorder-off@."
        per_sec_on bytes_on ratio;
      Format.fprintf ppf
        "ring after the runs: %d record(s) held of %d emitted (%d \
         overwritten by wrap)@."
        (Obs.Recorder.length recorder)
        (Obs.Recorder.total recorder)
        (Obs.Recorder.dropped recorder);
      if bytes_on > 0.05 then
        Format.fprintf ppf
          "PERF WARNING (recorder): enabled recorder allocates %.2f \
           bytes/event on the engine hot path (must be 0.0)@."
          bytes_on;
      (* 5% at full scale (the acceptance bar); scaled-down passes are
         short enough to sit inside the box's load noise, so the gate
         relaxes to 10% there — same policy as OBS1's throughput gate. *)
      let tolerance = if scale >= 1. then 0.95 else 0.90 in
      if ratio < tolerance then
        Format.fprintf ppf
          "PERF WARNING (recorder): enabled-recorder throughput is %.2fx \
           of recorder-off (must be >= %.2f)@."
          ratio tolerance;
      json_add "recorder_overhead"
        (Printf.sprintf
           "{\"events\": %d, \"off_events_per_sec\": %.0f, \
            \"off_vs_pr8_disabled\": %.3f, \"enabled_events_per_sec\": \
            %.0f, \"enabled_bytes_per_event\": %.2f, \
            \"enabled_over_off\": %.3f, \"records_emitted\": %d, \
            \"records_held\": %d}"
           n per_sec_off vs_pr8 per_sec_on bytes_on ratio
           (Obs.Recorder.total recorder)
           (Obs.Recorder.length recorder)))

(* Multicore exploration scaling: the same random-walk exploration
   ([ctsim explore --strategy random]) at 1/2/4/8 worker domains.
   [baseline_pr1_schedules_per_sec] is the PR-1 (pre-optimization,
   serial-only) number measured on this machine for the identical
   workload, so the single-domain row doubles as the hot-path speedup
   measurement. *)
let baseline_pr1_schedules_per_sec = 3441.3

let bench_mc_scaling () =
  section "MC3: multicore schedule exploration scaling (Mc.Pool)";
  let budget = scaled 2_000 in
  let cfg = { Mc.Harness.default with Mc.Harness.rounds = 12 } in
  Format.fprintf ppf
    "(%d schedules per run, 12 rounds, random walk; available cores: %d; \
     each row best of 5 runs)@.@."
    budget
    (Domain.recommended_domain_count ());
  Format.fprintf ppf "%-8s %-12s %-10s %-10s %s@." "jobs" "schedules/s"
    "wall (s)" "cpu (s)" "speedup vs 1 domain";
  (* discarded warmup: page in the code and let the first run's
     one-time promotions happen outside the measured rows *)
  ignore (Mc.Pool.explore ~budget:(scaled 200) ~jobs:1 cfg);
  (* Each row is the best of five runs: background load on this box
     perturbs single runs by 15%+, and the fastest run estimates what
     the machine can actually sustain.  The exploration result itself is
     deterministic — identical across the five runs — so only the
     timing varies. *)
  let row jobs =
    let best = ref None in
    for _ = 1 to 5 do
      (* same heap state for every run (and as a standalone run) *)
      Gc.compact ();
      let r = Mc.Pool.explore ~budget ~jobs cfg in
      match !best with
      | Some (b : Mc.Explore.report) when b.elapsed_s <= r.elapsed_s -> ()
      | _ -> best := Some r
    done;
    let r = Option.get !best in
    (jobs, Mc.Explore.schedules_per_sec r, r.Mc.Explore.elapsed_s,
     r.Mc.Explore.cpu_s)
  in
  let rows = List.map row [ 1; 2; 4; 8 ] in
  let base = match rows with (_, s, _, _) :: _ -> s | [] -> nan in
  List.iter
    (fun (jobs, sps, wall, cpu) ->
      Format.fprintf ppf "%-8d %-12.1f %-10.2f %-10.2f %.2fx@." jobs sps wall
        cpu (sps /. base))
    rows;
  Format.fprintf ppf
    "single-domain vs PR-1 baseline (%.1f schedules/s): %.2fx@."
    baseline_pr1_schedules_per_sec
    (base /. baseline_pr1_schedules_per_sec);
  Format.fprintf ppf
    "single-domain vs PR-2 baseline (%.1f schedules/s): %.2fx@."
    baseline_pr2_jobs1_schedules_per_sec
    (base /. baseline_pr2_jobs1_schedules_per_sec);
  Format.fprintf ppf
    "single-domain vs PR-3 baseline (%.1f schedules/s): %.2fx@."
    baseline_pr3_jobs1_schedules_per_sec
    (base /. baseline_pr3_jobs1_schedules_per_sec);
  Format.fprintf ppf
    "single-domain vs PR-4 baseline (%.1f schedules/s): %.2fx@."
    baseline_pr4_jobs1_schedules_per_sec
    (base /. baseline_pr4_jobs1_schedules_per_sec);
  Format.fprintf ppf
    "single-domain vs PR-5 baseline (%.1f schedules/s): %.2fx@."
    baseline_pr5_jobs1_schedules_per_sec
    (base /. baseline_pr5_jobs1_schedules_per_sec);
  Format.fprintf ppf
    "single-domain vs PR-7 baseline (%.1f schedules/s): %.2fx@."
    baseline_pr7_jobs1_schedules_per_sec
    (base /. baseline_pr7_jobs1_schedules_per_sec);
  Format.fprintf ppf
    "single-domain vs PR-8 baseline (%.1f schedules/s): %.2fx@."
    baseline_pr8_jobs1_schedules_per_sec
    (base /. baseline_pr8_jobs1_schedules_per_sec);
  let speedup4 =
    match List.find_opt (fun (j, _, _, _) -> j = 4) rows with
    | Some (_, s, _, _) -> s /. base
    | None -> nan
  in
  let cores = Domain.recommended_domain_count () in
  (* Scaling guard (PR-8): on a host that actually has the cores, four
     domains finishing behind one means the parallel explorer is
     losing to its own coordination — the PR-7 regression this PR
     exists to fix.  On smaller hosts the 4-domain row measures
     oversubscription, not scaling, so the guard stays informational. *)
  if cores >= 4 && speedup4 < 1.0 then
    Format.fprintf ppf
      "PERF WARNING (explore-scaling): speedup_4_over_1 is %.2fx (< 1.0) \
       with %d cores available@."
      speedup4 cores
  else if speedup4 < 1.0 then
    Format.fprintf ppf
      "note: speedup_4_over_1 is %.2fx on a %d-core host — \
       oversubscribed, not a scaling signal@."
      speedup4 cores;
  json_add "explore_scaling"
    (Printf.sprintf
       "{\"strategy\": \"random\", \"rounds\": 12, \"budget\": %d, \
        \"baseline_pr1_schedules_per_sec\": %.1f, \
        \"baseline_pr2_schedules_per_sec\": %.1f, \
        \"baseline_pr3_schedules_per_sec\": %.1f, \
        \"baseline_pr4_schedules_per_sec\": %.1f, \
        \"baseline_pr5_schedules_per_sec\": %.1f, \
        \"baseline_pr7_schedules_per_sec\": %.1f, \
        \"baseline_pr8_schedules_per_sec\": %.1f, \"jobs\": [%s], \
        \"speedup_1_over_baseline\": %.2f, \"speedup_1_over_pr2\": %.2f, \
        \"speedup_1_over_pr3\": %.2f, \"speedup_1_over_pr4\": %.2f, \
        \"speedup_1_over_pr5\": %.2f, \"speedup_1_over_pr7\": %.2f, \
        \"speedup_1_over_pr8\": %.2f, \"speedup_4_over_1\": %.2f, \
        \"cores_available\": %d}"
       budget baseline_pr1_schedules_per_sec
       baseline_pr2_jobs1_schedules_per_sec
       baseline_pr3_jobs1_schedules_per_sec
       baseline_pr4_jobs1_schedules_per_sec
       baseline_pr5_jobs1_schedules_per_sec
       baseline_pr7_jobs1_schedules_per_sec
       baseline_pr8_jobs1_schedules_per_sec
       (String.concat ", "
          (List.map
             (fun (jobs, sps, wall, cpu) ->
               Printf.sprintf
                 "{\"jobs\": %d, \"schedules_per_sec\": %.1f, \"wall_s\": \
                  %.3f, \"cpu_s\": %.3f}"
                 jobs sps wall cpu)
             rows))
       (base /. baseline_pr1_schedules_per_sec)
       (base /. baseline_pr2_jobs1_schedules_per_sec)
       (base /. baseline_pr3_jobs1_schedules_per_sec)
       (base /. baseline_pr4_jobs1_schedules_per_sec)
       (base /. baseline_pr5_jobs1_schedules_per_sec)
       (base /. baseline_pr7_jobs1_schedules_per_sec)
       (base /. baseline_pr8_jobs1_schedules_per_sec)
       speedup4 cores)

(* ------------------------------------------------------------------ *)
(* LINT1: full-tree ctslint pass (PR 5).  The analyzer runs on every CI
   build, so its own cost is part of the build budget; this section
   times the exact work `dune build @lint` does — parse + walk every
   .ml under lib/ bin/ bench/ test/ examples/ — and records files/s.
   Runs from the source tree (located by walking up to dune-project);
   skipped when the sources are not around the executable, e.g. in an
   installed-binary context. *)

(* HIER1: the hierarchical multi-ring service scaled across cluster
   sizes.  Each point builds a shards x shard_size hierarchy with every
   shard's clocks skewed 1 ms per shard index, forms the rings, runs the
   readers and the bridge for a fixed window of simulated time, and
   reports the distinct bridge rounds agreed, their rate in wall and
   simulated seconds, and the converged cross-shard skew.  A point whose
   skew ends outside the bound, or that clamps a global-clock
   regression, emits a "PERF WARNING (hier)" marker that CI turns into a
   hard failure. *)
(* Measurements SCALE1 reuses: (replicas, rounds_per_wall_sec,
   formation_wall_s) per HIER1 point. *)
let hier_measured : (int * float * float) list ref = ref []

let bench_hier () =
  section "HIER1: hierarchical multi-ring scaling (lib/hier)";
  let module CH = Scenario.Cluster_hier in
  let module Span = Dsim.Time.Span in
  let all_sizes = [ (2, 2); (4, 4); (8, 8); (16, 16); (32, 32) ] in
  let sizes =
    if scale >= 1. then all_sizes
    else if scale >= 0.1 then [ (2, 2); (4, 4); (8, 8); (16, 16) ]
    else [ (2, 2); (4, 4); (8, 8) ]
  in
  List.iter
    (fun (s, k) ->
      if not (List.mem (s, k) sizes) then
        Format.fprintf ppf
          "(skipping %d-replica point at scale %g — run at scale >= 1 for \
           the full sweep)@."
          (s * k) scale)
    all_sizes;
  let window = Span.of_ms 100 in
  let bound_us = 5_000 in
  Format.fprintf ppf
    "(steady state = best of 5 consecutive %d ms simulated windows — \
     background load on this box perturbs single windows by 50%%+ and \
     every window agrees the same rounds, so the fastest window is the \
     sustainable rate; 5 ms skew bound)@.@."
    (Span.to_us window / 1000);
  Format.fprintf ppf "%-10s %-8s %-10s %-12s %-12s %-12s %-10s %-8s %s@."
    "replicas" "shards" "rounds" "rounds/s(w)" "rounds/s(sim)" "events/s(w)"
    "skew(us)" "q-hwm" "form(s)";
  let rows =
    List.map
      (fun (shards, shard_size) ->
        let topo = Hier.Topology.create ~shards ~shard_size in
        let clock_config i =
          {
            Clock.Hwclock.default_config with
            offset =
              Span.of_ms
                (-1 * Hier.Topology.shard_of topo (Netsim.Node_id.of_int i));
          }
        in
        let t = CH.create ~seed:11L ~clock_config ~shards ~shard_size () in
        let w0 = Mc.Explore.wall () in
        CH.start_all t;
        let form_s = Mc.Explore.wall () -. w0 in
        CH.start_readers t;
        let bridge_round t =
          Array.fold_left
            (fun acc (r : CH.replica) ->
              max acc (Hier.Global_clock.round (Hier.Gateway.global r.gateway)))
            0 t.CH.replicas
        in
        (* best of 5 consecutive windows; the sim keeps advancing, so
           each window measures the same periodic steady state *)
        let best_s = ref infinity and rounds = ref 0 and events = ref 0 in
        for _ = 1 to 5 do
          let rb = bridge_round t in
          let eb = Dsim.Engine.steps t.CH.eng in
          let w1 = Mc.Explore.wall () in
          CH.run_for t window;
          let dt = Mc.Explore.wall () -. w1 in
          if dt < !best_s then begin
            best_s := dt;
            rounds := bridge_round t - rb;
            events := Dsim.Engine.steps t.CH.eng - eb
          end
        done;
        let steady_s = !best_s and rounds = !rounds in
        let skew_us = Span.to_us (CH.cross_shard_skew t) in
        let regr = CH.regressions t in
        let hwm = CH.queue_hwm t in
        let per_wall = float_of_int rounds /. steady_s in
        let events_per_wall = float_of_int !events /. steady_s in
        let per_sim =
          float_of_int rounds
          /. (float_of_int (Span.to_us window) /. 1e6)
        in
        Format.fprintf ppf
          "%-10d %-8d %-10d %-12.1f %-12.1f %-12.3e %-10d %-8d %.2f@."
          (shards * shard_size) shards rounds per_wall per_sim
          events_per_wall skew_us hwm form_s;
        if skew_us >= bound_us then
          Format.fprintf ppf
            "PERF WARNING (hier): %d-replica cross-shard skew %d us ended \
             outside the %d us bound@."
            (shards * shard_size) skew_us bound_us;
        if regr > 0 then
          Format.fprintf ppf
            "PERF WARNING (hier): %d-replica run clamped %d global-clock \
             regression(s)@."
            (shards * shard_size) regr;
        hier_measured :=
          (shards * shard_size, per_wall, form_s) :: !hier_measured;
        Printf.sprintf
          "{\"replicas\": %d, \"shards\": %d, \"shard_size\": %d, \
           \"bridge_rounds\": %d, \"rounds_per_wall_sec\": %.1f, \
           \"rounds_per_sim_sec\": %.1f, \"events_per_wall_sec\": %.0f, \
           \"skew_us\": %d, \"regressions\": %d, \"queue_hwm\": %d, \
           \"formation_wall_s\": %.3f}"
          (shards * shard_size) shards shard_size rounds per_wall per_sim
          events_per_wall skew_us regr hwm form_s)
      sizes
  in
  json_add "hier"
    (Printf.sprintf "{\"window_ms\": %d, \"skew_bound_us\": %d, \"sizes\": [%s]}"
       (Span.to_us window / 1000)
       bound_us (String.concat ", " rows))

(* SCALE1: PR 7's superlinear-cost guardrails.  Three parts:

   1. Deltas: every HIER1 point measured this run, against the PR-6
      baselines — the before/after of the scale-out work.
   2. Budget: a hard "PERF WARNING (scale)" marker (CI greps for it and
      fails) when 256-replica formation creeps over budget.  PR 6 spent
      2.63 s here and 238 s at 1024; post-PR-7 formation is event-driven
      and measures well under 100 ms at 256, so 1 s of headroom still
      catches any return of the superlinear term while tolerating a
      loaded CI box.
   3. Attribution: re-run the largest HIER1 point with an
      [Obs.Attrib] recorder attached and report where the wall
      nanoseconds actually go, per (subsystem, probe) self time — the
      measurement that located the PR-7 hot spots (GCS delivery
      routing, the totem join storm, watchdog chase, bridge offer
      fan-out) in the first place. *)
let bench_scale () =
  section "SCALE1: superlinear-cost guardrails (PR 7)";
  let module CH = Scenario.Cluster_hier in
  let module Span = Dsim.Time.Span in
  let measured = List.rev !hier_measured in
  (* 1. deltas vs PR-6 *)
  Format.fprintf ppf "%-10s %-14s %-14s %-9s %-12s %-12s %s@." "replicas"
    "PR6 r/s(w)" "now r/s(w)" "speedup" "PR6 form(s)" "now form(s)"
    "speedup";
  let deltas =
    List.filter_map
      (fun (replicas, pr6_rw, pr6_form) ->
        match List.find_opt (fun (r, _, _) -> r = replicas) measured with
        | None -> None
        | Some (_, rw, form) ->
            let rw_x = rw /. pr6_rw in
            let form_x = if form > 0. then pr6_form /. form else nan in
            Format.fprintf ppf
              "%-10d %-14.1f %-14.1f %-9.2f %-12.3f %-12.3f %.1f@." replicas
              pr6_rw rw rw_x pr6_form form form_x;
            Some
              (Printf.sprintf
                 "{\"replicas\": %d, \"pr6_rounds_per_wall_sec\": %.1f, \
                  \"rounds_per_wall_sec\": %.1f, \"steady_speedup\": %.2f, \
                  \"pr6_formation_wall_s\": %.3f, \"formation_wall_s\": \
                  %.3f}"
                 replicas pr6_rw rw rw_x pr6_form form))
      baseline_pr6_hier
  in
  (* 2. the 256-replica formation budget CI greps for *)
  let form_budget_s = 1.0 in
  let budget_json =
    match List.find_opt (fun (r, _, _) -> r = 256) measured with
    | None ->
        Format.fprintf ppf
          "@.(256-replica point not measured at scale %g — formation \
           budget not checked; run at scale >= 0.1)@."
          scale;
        Printf.sprintf
          "\"formation_budget_s\": %.1f, \"formation_wall_s_256\": null"
          form_budget_s
    | Some (_, _, form) ->
        if form > form_budget_s then
          Format.fprintf ppf
            "@.PERF WARNING (scale): 256-replica formation took %.2f s, \
             over the %.1f s budget (PR-6 burned 2.63 s here; the \
             superlinear term is back)@."
            form form_budget_s
        else
          Format.fprintf ppf
            "@.256-replica formation %.3f s — within the %.1f s budget \
             (PR-6: 2.63 s)@."
            form form_budget_s;
        Printf.sprintf
          "\"formation_budget_s\": %.1f, \"formation_wall_s_256\": %.3f"
          form_budget_s form
  in
  (* 3. wall-time attribution of the largest point measured *)
  let shards, shard_size =
    if scale >= 1. then (32, 32) else if scale >= 0.1 then (16, 16) else (8, 8)
  in
  let topo = Hier.Topology.create ~shards ~shard_size in
  let clock_config i =
    {
      Clock.Hwclock.default_config with
      offset =
        Span.of_ms (-1 * Hier.Topology.shard_of topo (Netsim.Node_id.of_int i));
    }
  in
  let t = CH.create ~seed:11L ~clock_config ~shards ~shard_size () in
  let recorder = Obs.Attrib.create () in
  Obs.Sink.set_attrib (Dsim.Engine.obs t.CH.eng) (Some recorder);
  let w0 = Mc.Explore.wall () in
  CH.start_all t;
  CH.start_readers t;
  CH.run_for t (Span.of_ms 100);
  let wall_s = Mc.Explore.wall () -. w0 in
  Obs.Sink.set_attrib (Dsim.Engine.obs t.CH.eng) None;
  let attributed_s = Obs.Attrib.total_ns recorder /. 1e9 in
  Format.fprintf ppf
    "@.attribution: %d replicas, formation + 100 ms steady, %.2f s wall, \
     %.2f s attributed (%.0f%%); self time per (subsystem, probe):@.@."
    (shards * shard_size) wall_s attributed_s
    (100. *. attributed_s /. wall_s);
  Format.fprintf ppf "%a@." Obs.Attrib.pp recorder;
  (* "scale_deltas", not "scale": the top-level emit_json header already
     owns the "scale" key (the CTS_BENCH_SCALE factor), and PR-7 shipped
     this section under the same name — a duplicate key that made the
     trajectory file ambiguous to strict JSON readers (python's
     json.load silently kept whichever came last). *)
  json_add "scale_deltas"
    (Printf.sprintf
       "{\"deltas\": [%s], %s, \"attribution_replicas\": %d, \
        \"attribution_wall_s\": %.3f, \"attribution\": %s}"
       (String.concat ", " deltas)
       budget_json (shards * shard_size) wall_s
       (Obs.Attrib.to_json recorder))

let bench_lint () =
  section "LINT1: ctslint full-tree static analysis";
  let rec find_root dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else find_root parent
  in
  match find_root (Sys.getcwd ()) with
  | None ->
      Format.fprintf ppf "source tree not found from %s; section skipped@."
        (Sys.getcwd ())
  | Some root ->
      let dirs =
        List.filter Sys.file_exists
          (List.map
             (Filename.concat root)
             [ "lib"; "bin"; "bench"; "test"; "examples" ])
      in
      (* warm pass: page in the analyzer and the sources *)
      ignore (Lint.Driver.lint_paths dirs : Lint.Driver.report);
      let best = ref infinity in
      let last = ref (Lint.Driver.lint_paths dirs) in
      for _ = 1 to 4 do
        let t0 = Mc.Explore.wall () in
        last := Lint.Driver.lint_paths dirs;
        let dt = Mc.Explore.wall () -. t0 in
        if dt < !best then best := dt
      done;
      let r = !last in
      let files_per_sec = float_of_int r.Lint.Driver.files /. !best in
      Format.fprintf ppf
        "%d file(s), %d finding(s), %d suppression(s) in %.1f ms — %.0f \
         files/s (best of 4)@."
        r.Lint.Driver.files
        (List.length r.Lint.Driver.findings)
        (List.length r.Lint.Driver.suppressions)
        (!best *. 1e3) files_per_sec;
      json_add "lint"
        (Printf.sprintf
           "{\"files\": %d, \"findings\": %d, \"suppressions\": %d, \
            \"wall_ms\": %.1f, \"files_per_sec\": %.0f}"
           r.Lint.Driver.files
           (List.length r.Lint.Driver.findings)
           (List.length r.Lint.Driver.suppressions)
           (!best *. 1e3) files_per_sec)

(* LINT2: the typed pass (PR 10) — load every .cmt the bin-annot build
   produced, extract per-function facts, and run the three typed
   analyses (hot-path certification, domain-safety reachability, runtime
   boundary).  Timed separately from LINT1 because the cost profile is
   different: unmarshalling typedtrees dominates, not parsing. *)
let bench_lint_typed () =
  section "LINT2: ctslint typed pass (.cmt certification)";
  let rec find_root dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else find_root parent
  in
  match
    Option.bind (find_root (Sys.getcwd ())) Lint.Cmt_loader.find_build_dir
  with
  | None ->
      Format.fprintf ppf
        "bin-annot build not found from %s; section skipped@." (Sys.getcwd ())
  | Some build_dir ->
      let run () =
        let units, _errors = Lint.Cmt_loader.load_build_dir build_dir in
        let units =
          Lint.Cmt_loader.under_paths
            [ "lib"; "bin"; "bench"; "test"; "examples" ]
            units
        in
        Lint.Typed_check.analyze (List.map Lint.Typed_facts.walk_unit units)
      in
      ignore (run () : Lint.Typed_check.result) (* warm: page in the cmts *);
      let best = ref infinity in
      let last = ref (run ()) in
      for _ = 1 to 4 do
        let t0 = Mc.Explore.wall () in
        last := run ();
        let dt = Mc.Explore.wall () -. t0 in
        if dt < !best then best := dt
      done;
      let r = !last in
      let roots = List.length r.Lint.Typed_check.r_roots in
      let certified_roots =
        List.length (List.filter snd r.Lint.Typed_check.r_roots)
      in
      let units_per_sec =
        float_of_int r.Lint.Typed_check.r_units /. !best
      in
      Format.fprintf ppf
        "%d unit(s), %d function(s), %d/%d root(s) certified, %d certified \
         total, %d finding(s) in %.1f ms — %.0f units/s (best of 4)@."
        r.Lint.Typed_check.r_units r.Lint.Typed_check.r_fns certified_roots
        roots
        (List.length r.Lint.Typed_check.r_certified)
        (List.length r.Lint.Typed_check.r_findings)
        (!best *. 1e3) units_per_sec;
      json_add "lint_typed"
        (Printf.sprintf
           "{\"units\": %d, \"functions\": %d, \"hot_roots\": %d, \
            \"hot_roots_certified\": %d, \"certified\": %d, \"findings\": \
            %d, \"wall_ms\": %.1f, \"units_per_sec\": %.0f}"
           r.Lint.Typed_check.r_units r.Lint.Typed_check.r_fns roots
           certified_roots
           (List.length r.Lint.Typed_check.r_certified)
           (List.length r.Lint.Typed_check.r_findings)
           (!best *. 1e3) units_per_sec);
      (* deterministic invariant, not a timing: a finding or an
         uncertified root means the hot path lost its zero-alloc
         certificate, and CI's grep tier fails the job on this line *)
      if r.Lint.Typed_check.r_findings <> [] || certified_roots < roots then
        Format.fprintf ppf
          "PERF WARNING (lint-typed): %d finding(s), %d/%d hot root(s) \
           certified — the zero-alloc certificate does not hold@."
          (List.length r.Lint.Typed_check.r_findings)
          certified_roots roots

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the substrate                          *)

let micro_tests () =
  let open Bechamel in
  let test_event_queue =
    Test.make ~name:"event_queue push+pop x1000"
      (Staged.stage (fun () ->
           let q = Dsim.Event_queue.create () in
           for i = 0 to 999 do
             Dsim.Event_queue.push q (Dsim.Time.of_us (997 * i mod 5000)) () i
           done;
           while not (Dsim.Event_queue.is_empty q) do
             ignore (Dsim.Event_queue.pop q)
           done))
  in
  let rng = Dsim.Rng.create 1L in
  let test_rng =
    Test.make ~name:"rng int_range x1000"
      (Staged.stage (fun () ->
           for _ = 1 to 1000 do
             ignore (Dsim.Rng.int_range rng 0 1_000_000 : int)
           done))
  in
  let test_engine =
    Test.make ~name:"engine 1000 timer events"
      (Staged.stage (fun () ->
           let eng = Dsim.Engine.create () in
           for i = 1 to 1000 do
             Dsim.Engine.schedule eng (Dsim.Time.Span.of_us i) ignore
           done;
           Dsim.Engine.run eng))
  in
  let test_ccs_round =
    Test.make ~name:"full CCS round (3 replicas, sim)"
      (Staged.stage
         (let counter = ref 0 in
          fun () ->
            incr counter;
            let rounds =
              E.skew ~seed:(Int64.of_int !counter) ~rounds:5 ()
            in
            ignore rounds))
  in
  let test_token_rotation =
    Test.make ~name:"token rotation x100 (4-node ring, sim)"
      (Staged.stage
         (let counter = ref 0 in
          fun () ->
            incr counter;
            ignore
              (E.token_calibration ~seed:(Int64.of_int !counter)
                 ~rotations:100 ()
                : E.token_run)))
  in
  [
    test_event_queue; test_rng; test_engine; test_ccs_round;
    test_token_rotation;
  ]

let run_micro () =
  section "Micro-benchmarks (Bechamel, wall-clock per call)";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let tests = Test.make_grouped ~name:"micro" ~fmt:"%s %s" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let clock_results =
    Hashtbl.find merged (Measure.label Toolkit.Instance.monotonic_clock)
  in
  Format.fprintf ppf "%-45s %s@." "benchmark" "time per call";
  let rows = Dsim.Det.sorted_bindings ~compare:String.compare clock_results in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ x ] -> x
        | Some _ | None -> nan
      in
      let pretty =
        if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
        else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
        else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
        else Printf.sprintf "%.0f ns" est
      in
      Format.fprintf ppf "%-45s %s@." name pretty)
    rows

let () =
  Format.fprintf ppf
    "Consistent Time Service reproduction benchmarks (scale=%.3g)@." scale;
  bench_fig4 ();
  bench_token ();
  bench_fig5 ();
  bench_fig6_and_counts ();
  bench_drift ();
  bench_rollback ();
  bench_group_size ();
  bench_recovery ();
  bench_causal ();
  bench_delivery_mode ();
  bench_mc ();
  bench_engine_events ();
  bench_obs ();
  bench_obs_recorder ();
  bench_mc_scaling ();
  bench_hier ();
  bench_scale ();
  bench_lint ();
  bench_lint_typed ();
  run_micro ();
  emit_json ();
  Format.fprintf ppf "@.done.@."
