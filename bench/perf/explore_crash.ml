(* explore_crash: the model checker.  Mc.Pool.explore with the random
   strategy at the CLI defaults (1% packet delays, 25% tie reorders) on
   the default harness with the last replica crashed halfway through,
   every invariant checked on every schedule.  One op is one schedule;
   the window is a sequence of explorations of [budget] schedules each,
   on seeds derived from the workload seed. *)

module H = Mc.Harness
module Span = Dsim.Time.Span

type params = {
  budget : int;  (** schedules per exploration (one timed slice) *)
  prefix : int;
      (** the first [prefix] explorations define every exact metric *)
}

let full = { budget = 400; prefix = 1 }
let tiny = { budget = 24; prefix = 2 }
let delay_prob = 0.01
let reorder_prob = 0.25
let strategy = Mc.Strategy.Random { delay_prob; reorder_prob }
let quantum_us = 200

(* Worker domains: two, capped at the host's core count. *)
let jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

let config ~seed =
  let d = H.default in
  { d with H.seed; crash_at_round = Some (d.H.rounds / 2) }

(* Exploration [k] of a run uses its own base seed, so no two slices
   replay the same schedules. *)
let slice_seed seed k = Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int k)

type chunk = { steps : int; distinct : int; schedules : int; ok : bool }

let add a b =
  {
    steps = a.steps + b.steps;
    distinct = a.distinct + b.distinct;
    schedules = a.schedules + b.schedules;
    ok = a.ok && b.ok;
  }

let none = { steps = 0; distinct = 0; schedules = 0; ok = true }

let explore_chunk p ~seed k =
  let cfg = config ~seed:(slice_seed seed k) in
  let r =
    Mc.Pool.explore ~strategy ~budget:p.budget ~quantum_us ~jobs cfg
  in
  ( {
      steps = r.Mc.Explore.steps_total;
      distinct = r.Mc.Explore.distinct;
      schedules = r.Mc.Explore.schedules;
      ok = r.Mc.Explore.schedules = p.budget && r.Mc.Explore.violations = [];
    },
    r.Mc.Explore.cpu_s,
    r.Mc.Explore.elapsed_s )

type explored = {
  w : Common.window;
  first : chunk;  (** the prefix explorations, summed *)
  bad : int;  (** explorations that failed their gate *)
  cpu_s : float;
  wall_s : float;
  rss_mb : float;
      (** peak RSS at the end of the prefix.  Not read late in the
          window as the other workloads do: with two domains, VmHWM
          climbs in steps of 1-5 MB whose timing varies from run to run,
          so a late reading spreads two to four times wider. *)
}

(* Run explorations for [seconds] of host time and at least the prefix;
   [between] runs after every exploration past the prefix. *)
let drive ?(between = ignore) p ~seed ~seconds =
  let w = Common.window () in
  let t0 = Common.wall () in
  let rec go k first rss bad cpu_s wall_s =
    if k >= p.prefix && Common.wall () -. t0 >= seconds then
      { w; first; bad; cpu_s; wall_s; rss_mb = rss }
    else begin
      let s0 = Common.wall () in
      let c, cpu, elapsed = explore_chunk p ~seed k in
      ignore
        (Common.slice w ~ops:c.schedules ~secs:(Common.wall () -. s0) : float);
      let first = if k < p.prefix then add first c else first in
      let rss = if k = p.prefix - 1 then Common.peak_rss_mb () else rss in
      if k >= p.prefix then between ();
      go (k + 1) first rss
        (if c.ok then bad else bad + 1)
        (cpu_s +. cpu) (wall_s +. elapsed)
    end
  in
  go 0 none 0. 0 0. 0.

let gates e =
  [
    ("every exploration ran its budget with no violation", e.bad = 0);
  ]

(* Set-up is the world every worker builds before its first schedule:
   ring formation, group membership and the restore snapshot. *)
let run_untraced p ~seed ~seconds =
  let setups =
    Common.setups ~every:1 (fun () ->
        H.reusable (config ~seed:(slice_seed seed 0)))
  in
  let e = drive ~between:(fun () -> Common.between setups) p ~seed ~seconds in
  {
    Common.attempted = e.w.Common.ops;
    failed = e.bad;
    gates = gates e;
    metrics =
      [
        ("setup_s", Common.setup_s setups);
        ("ops_per_s", Common.ops_per_s e.w);
        ("peak_rss_mb", e.rss_mb);
      ];
    notes =
      [
        Common.rate_note e.w;
        Printf.sprintf
          "%d schedules in %.2f s, %d explorations of %d, %d domain(s)"
          e.w.Common.ops e.w.Common.secs
          (List.length e.w.Common.rates)
          p.budget jobs;
      ];
  }

type traced = {
  p0 : Common.snap;  (** before the world is built *)
  p1 : Common.snap;  (** world built *)
  p2 : Common.snap;  (** the prefix explorations replayed *)
  p3 : Common.snap;  (** end of the leg *)
  replay : chunk;
  n : int;  (** schedules replayed *)
  replay_bad : int;
  run_s : float list;  (** host time of each [run_reused] *)
}

(* The traced leg replays the same schedules sequentially through the
   public harness on one domain, with the obs counters attached through
   [Harness.config.sink], and times every [run_reused] (restore + run). *)
let traced_leg p ~seed ~seconds =
  let pr = Common.probes () in
  let p0 = Common.snap pr in
  let r = H.reusable (config ~seed:(slice_seed seed 0)) in
  let p1 = Common.snap pr in
  let quantum = Span.of_us quantum_us in
  let fingerprints = Hashtbl.create 1024 in
  let run_s = ref [] and steps = ref 0 and distinct = ref 0 in
  let bad = ref 0 and n = ref 0 and prefix = ref None in
  let t0 = Common.wall () in
  let k = ref 0 in
  while !k < p.prefix || Common.wall () -. t0 < seconds do
    let base = config ~seed:(slice_seed seed !k) in
    Hashtbl.reset fingerprints;
    for i = 0 to p.budget - 1 do
      let run_seed, spec =
        Mc.Strategy.random_run ~base_seed:base.H.seed ~quantum ~delay_prob
          ~reorder_prob i
      in
      let cfg = { base with H.seed = run_seed; sink = Some pr.Common.sink } in
      let s0 = Common.wall () in
      let outcome, info = H.run_reused r ~spec cfg in
      run_s := (Common.wall () -. s0) :: !run_s;
      if Mc.Invariant.check_all outcome <> [] then incr bad;
      if !k < p.prefix then begin
        steps := !steps + info.H.steps;
        Hashtbl.replace fingerprints info.H.fingerprint ()
      end;
      incr n
    done;
    if !k < p.prefix then distinct := !distinct + Hashtbl.length fingerprints;
    if !k = p.prefix - 1 then prefix := Some (Common.snap pr);
    incr k
  done;
  let p3 = Common.snap pr in
  let first =
    {
      steps = !steps;
      distinct = !distinct;
      schedules = p.prefix * p.budget;
      ok = !bad = 0;
    }
  in
  {
    p0;
    p1;
    p2 = Option.get !prefix;
    p3;
    replay = first;
    n = !n;
    replay_bad = !bad;
    run_s = !run_s;
  }

let run_traced p ~seed ~seconds =
  let half = seconds /. 2. in
  let u = drive p ~seed ~seconds:half in
  let { p0; p1; p2; p3; replay = first; n; replay_bad = bad; run_s } =
    traced_leg p ~seed ~seconds:half
  in
  let events = Common.count p1 p2 Obs.Metrics.Engine_events in
  let win_events = Common.count p1 p3 Obs.Metrics.Engine_events in
  let attempted = u.w.Common.ops + n and failed = u.bad + bad in
  (* The replay runs on one domain and the exploration on [jobs], so the
     overhead compares schedules per CPU second. *)
  let overhead =
    Common.per (float_of_int n) (p3.Common.at -. p1.Common.at)
    /. Common.per (float_of_int u.w.Common.ops) u.cpu_s
  in
  {
    Common.attempted;
    failed;
    gates =
      gates u
      @ [
          ("traced replay has no violation", bad = 0);
          ( "traced replay = parallel exploration",
            first.steps = u.first.steps && first.distinct = u.first.distinct );
        ];
    metrics =
      Common.layer_rows ~ops:first.schedules ~events ~p0 ~p1 ~p2 ~p3
        ~win_ops:n ~win_events
      @ [
          ("mc.steps_per_schedule", Common.ratio first.steps first.schedules);
          ("mc.distinct_ratio", Common.ratio first.distinct first.schedules);
          ("mc.cpu_per_wall", Common.per u.cpu_s u.wall_s);
          ("mc.run_us", Common.median run_s *. 1e6);
          ("failed_ratio", Common.ratio failed attempted);
          ("trace_overhead", overhead);
        ];
    notes =
      [
        Printf.sprintf
          "untraced leg %d schedules on %d domain(s); traced replay %d \
           schedules on 1"
          u.w.Common.ops jobs n;
      ];
  }

let run p ~seed ~seconds ~trace =
  if trace then run_traced p ~seed ~seconds else run_untraced p ~seed ~seconds
