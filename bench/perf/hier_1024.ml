(* hier_1024: the hierarchical time service at scale — 32 shards x 32
   replicas with a star bridge, shard s's clocks starting s ms behind,
   the flight recorder and health monitor attached as `ctsim hier` does.
   Set-up is create + start_all + start_readers; the timed window is the
   readers' steady phase.  One op is one reader CCS round completed,
   summed over replicas. *)

module CH = Scenario.Cluster_hier
module Span = Dsim.Time.Span

type params = {
  shards : int;
  shard_size : int;
  setup_reps : int;
  slice : Span.t;  (** simulated time per timed slice *)
  prefix_slices : int;
      (** the first [prefix_slices] slices of the steady phase define
          every exact metric *)
  rss_slices : int;
      (** peak RSS is read after the [rss_slices]-th slice: late in a
          20 s window on the slowest host measured, so the steady
          phase's memory growth shows, at a point of fixed work *)
}

let full =
  {
    shards = 32;
    shard_size = 32;
    setup_reps = 3;
    slice = Span.of_ms 10;
    prefix_slices = 10;
    rss_slices = 240;
  }

let tiny =
  {
    shards = 2;
    shard_size = 4;
    setup_reps = 2;
    slice = Span.of_ms 2;
    prefix_slices = 5;
    rss_slices = 8;
  }

type rig = {
  t : CH.t;
  health : Obs.Health.t;
  recorder : Obs.Recorder.t;
  start_all_s : float;
  formation_ms : float;  (** simulated time at which start_all returned *)
}

let build ?(sink = Obs.Sink.create ()) ~seed p () =
  let topo = Hier.Topology.create ~shards:p.shards ~shard_size:p.shard_size in
  let clock_config i =
    {
      Clock.Hwclock.default_config with
      offset =
        Span.of_ms (-1 * Hier.Topology.shard_of topo (Netsim.Node_id.of_int i));
    }
  in
  let recorder = Obs.Recorder.create () in
  (* ring generations are per shard, so the membership check would
     compare unrelated rings (as in `ctsim hier`) *)
  let health =
    Obs.Health.create
      ~config:{ Obs.Health.default_config with membership_check = false }
      ()
  in
  Obs.Sink.set_recorder sink (Some recorder);
  Obs.Sink.set_health sink (Some health);
  let t =
    CH.create ~seed ~clock_config ~shards:p.shards ~shard_size:p.shard_size
      ~obs:sink ()
  in
  let t0 = Common.wall () in
  CH.start_all t;
  let start_all_s = Common.wall () -. t0 in
  let formation_ms =
    float_of_int (Dsim.Time.to_us (Dsim.Engine.now t.CH.eng)) /. 1000.
  in
  CH.start_readers t;
  { t; health; recorder; start_all_s; formation_ms }

let bridge_round t =
  Array.fold_left
    (fun acc (r : CH.replica) ->
      max acc (Hier.Global_clock.round (Hier.Gateway.global r.CH.gateway)))
    0 t.CH.replicas

(* What the steady phase has shown so far, checked at the prefix and at
   the end of the window. *)
let no_gateway rig p =
  List.length
    (List.filter
       (fun s -> CH.gateway_of rig.t s = None)
       (List.init p.shards Fun.id))

let failures rig p =
  CH.regressions rig.t + Obs.Health.incident_count rig.health + no_gateway rig p

let gates rig p =
  [
    ("no global-clock regressions", CH.regressions rig.t = 0);
    ("no health incidents", Obs.Health.incident_count rig.health = 0);
    ("every shard has an agreed gateway", no_gateway rig p = 0);
  ]

type steady = {
  w : Common.window;
  mutable bridge_rates : float list;
  mutable prefix_ops : int;
  mutable prefix_events : int;
  mutable prefix_records : int;
  mutable skew_us : int;
  mutable rss_mb : float;  (** peak RSS after [rss_slices] slices *)
}

(* Run slices of the steady phase until [seconds] of host time and at
   least the prefix have passed, and with [~rss:true] at least
   [rss_slices] slices, reading peak RSS after the last of them;
   [at_prefix] runs after the prefix-th slice. *)
let drive ?(rss = false) rig p ~seconds ~at_prefix =
  let t = rig.t in
  let s =
    {
      w = Common.window ();
      bridge_rates = [];
      prefix_ops = 0;
      prefix_events = 0;
      prefix_records = 0;
      skew_us = 0;
      rss_mb = 0.;
    }
  in
  let ops0 = CH.ccs_rounds_completed t
  and ev0 = Dsim.Engine.steps t.CH.eng
  and rec0 = Obs.Recorder.total rig.recorder in
  let t0 = Common.wall () in
  let k = ref 0 in
  let until =
    if rss then max p.prefix_slices p.rss_slices else p.prefix_slices
  in
  while Common.wall () -. t0 < seconds || !k < until do
    let r0 = CH.ccs_rounds_completed t and b0 = bridge_round t in
    let s0 = Common.wall () in
    CH.run_for t p.slice;
    let dt = Common.wall () -. s0 in
    let sp = Common.slice s.w ~ops:(CH.ccs_rounds_completed t - r0) ~secs:dt in
    s.bridge_rates <-
      (float_of_int (bridge_round t - b0) /. (dt *. sp)) :: s.bridge_rates;
    incr k;
    if !k = p.prefix_slices then begin
      s.prefix_ops <- CH.ccs_rounds_completed t - ops0;
      s.prefix_events <- Dsim.Engine.steps t.CH.eng - ev0;
      s.prefix_records <- Obs.Recorder.total rig.recorder - rec0;
      s.skew_us <- Span.to_us (CH.cross_shard_skew t);
      at_prefix ()
    end;
    if rss && !k = p.rss_slices then s.rss_mb <- Common.peak_rss_mb ()
  done;
  s

let run_untraced p ~seed ~seconds =
  let rig, setup_s =
    Common.setup_median ~reps:p.setup_reps (fun () ->
        build ~seed p ())
  in
  let s = drive ~rss:true rig p ~seconds ~at_prefix:ignore in
  let failed = failures rig p in
  {
    Common.attempted = s.w.Common.ops;
    failed;
    gates = gates rig p;
    metrics =
      [
        ("setup_s", setup_s);
        ("ops_per_s", Common.ops_per_s s.w);
        ("peak_rss_mb", s.rss_mb);
      ];
    notes =
      [
        Common.rate_note s.w;
        Printf.sprintf "%d replicas formed at %.2f sim ms; queue hwm %d"
          (p.shards * p.shard_size) rig.formation_ms (CH.queue_hwm rig.t);
        Printf.sprintf "%d reader rounds in %.2f s, %d slices of %d sim us"
          s.w.Common.ops s.w.Common.secs
          (List.length s.w.Common.rates)
          (Span.to_us p.slice);
        Printf.sprintf "cross-shard skew %d us after %d steady slices"
          s.skew_us p.prefix_slices;
      ];
  }

let gateway_totals t =
  Array.fold_left
    (fun (c, e) (r : CH.replica) ->
      let st = Hier.Gateway.stats r.CH.gateway in
      (c + st.Hier.Gateway.corrections, e + st.Hier.Gateway.elections))
    (0, 0) t.CH.replicas

let run_traced p ~seed ~seconds =
  let half = seconds /. 2. in
  let u_rig = build ~seed p () in
  let u = drive u_rig p ~seconds:half ~at_prefix:ignore in
  let u_failed = failures u_rig p and u_gates = gates u_rig p in
  let u_formation = u_rig.formation_ms in
  Gc.compact ();
  let pr = Common.probes () in
  let p0 = Common.snap pr in
  let rig = build ~sink:pr.Common.sink ~seed p () in
  let t = rig.t in
  let p1 = Common.snap pr in
  let ev1 = Dsim.Engine.steps t.CH.eng in
  let at2 = ref None in
  let s =
    drive rig p ~seconds:half ~at_prefix:(fun () ->
        at2 :=
          Some
            ( Common.snap pr,
              CH.queue_hwm t,
              gateway_totals t,
              Span.to_us (CH.neighbor_skew t) ))
  in
  let p3 = Common.snap pr in
  let p2, hwm, (corrections, elections), neighbor = Option.get !at2 in
  let failed = u_failed + failures rig p in
  let attempted = u.w.Common.ops + s.w.Common.ops in
  {
    Common.attempted;
    failed;
    gates =
      u_gates @ gates rig p
      @ [
          ( "traced sim metrics = untraced",
            s.skew_us = u.skew_us && rig.formation_ms = u_formation
            && s.prefix_ops = u.prefix_ops );
          ( "traced prefix events = untraced",
            s.prefix_events = u.prefix_events );
        ];
    metrics =
      Common.layer_rows ~ops:s.prefix_ops ~events:s.prefix_events ~p0 ~p1 ~p2
        ~p3 ~win_ops:s.w.Common.ops
        ~win_events:(Dsim.Engine.steps t.CH.eng - ev1)
      @ [
          ("dsim.queue_hwm", float_of_int hwm);
          ("hier.bridge_rounds_per_s", Common.median u.bridge_rates);
          ("hier.corrections", float_of_int corrections);
          ("hier.elections", float_of_int elections);
          ("hier.neighbor_skew_us", float_of_int neighbor);
          ("scenario.start_all_s", rig.start_all_s);
          ("obs.records_per_op", Common.ratio s.prefix_records s.prefix_ops);
          ("sim_skew_us", float_of_int s.skew_us);
          ("sim_formation_ms", rig.formation_ms);
          ("failed_ratio", Common.ratio failed attempted);
          ("trace_overhead", Common.ops_per_s s.w /. Common.ops_per_s u.w);
        ];
    notes =
      [
        Printf.sprintf "untraced leg %d rounds, traced leg %d rounds"
          u.w.Common.ops s.w.Common.ops;
      ];
  }

let run p ~seed ~seconds ~trace =
  if trace then run_traced p ~seed ~seconds else run_untraced p ~seed ~seconds
