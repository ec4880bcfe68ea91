(* Shared machinery of the repository benchmark: the host clock, the
   metric tables BENCHMARK.json mirrors, robust statistics, and the
   per-layer snapshots a traced leg takes of the obs counters. *)

[@@@ctslint.allow
"wall-clock"
  "the benchmark measures host time by definition; no reading feeds back \
   into simulated state"]

let wall () = Mc.Explore.wall ()

(* ------------------------------------------------------------------ *)
(* Metric tables                                                       *)

(* [exact] marks a per-layer metric that is a pure function of the seed
   (a count or a simulated quantity): it must repeat bit-for-bit across
   runs and between the untraced and traced legs.  The others are host
   times and move with the machine. *)
type spec = { name : string; unit_ : string; exact : bool }

let host name unit_ = { name; unit_; exact = false }
let det name unit_ = { name; unit_; exact = true }

(* Printed with --trace 0; every workload reports every one, none is
   ever zero. *)
let end_to_end =
  [ host "setup_s" "s"; host "ops_per_s" "1/s"; host "peak_rss_mb" "MB" ]

(* Printed with --trace 1.  A layer a workload does not exercise reports
   0 (no work done); see README.md for which end-to-end metric each one
   should move, and on which workload. *)
let per_layer =
  [
    det "dsim.events_per_op" "count";
    det "dsim.fiber_switches_per_op" "count";
    host "dsim.self_ns_per_event" "ns";
    det "dsim.queue_hwm" "count";
    det "netsim.sent_per_op" "count";
    det "netsim.delivered_per_op" "count";
    det "netsim.dropped" "count";
    host "netsim.self_ns_per_delivery" "ns";
    det "totem.tokens_per_op" "count";
    host "totem.self_ns_per_op" "ns";
    det "totem.join_calls" "count";
    host "totem.join_self_s" "s";
    det "totem.views" "count";
    det "gcs.views" "count";
    host "gcs.self_s" "s";
    det "ccs.rounds_per_op" "count";
    det "ccs.win_ratio" "ratio";
    det "ccs.suppressed_ratio" "ratio";
    host "ccs.self_ns_per_round" "ns";
    host "rpc.host_us_per_call" "us";
    det "rpc.duplicate_replies_per_call" "count";
    host "hier.bridge_rounds_per_s" "1/s";
    det "hier.corrections" "count";
    det "hier.elections" "count";
    host "hier.self_s" "s";
    det "hier.neighbor_skew_us" "us";
    host "scenario.start_all_s" "s";
    host "scenario.form_poll_self_s" "s";
    det "mc.steps_per_schedule" "count";
    det "mc.distinct_ratio" "ratio";
    host "mc.cpu_per_wall" "ratio";
    host "mc.run_us" "us";
    det "obs.records_per_op" "count";
    det "sim_read_p50_us" "us";
    det "sim_read_p99_us" "us";
    det "sim_skew_us" "us";
    det "sim_formation_ms" "ms";
    det "failed_ratio" "ratio";
    host "trace_overhead" "ratio";
  ]

(* ------------------------------------------------------------------ *)
(* What a workload run hands back to the printer                        *)

type outcome = {
  attempted : int;
  failed : int;
  gates : (string * bool) list;  (** named correctness checks *)
  metrics : (string * float) list;
      (** end-to-end metrics (untraced run) or per-layer ones (traced) *)
  notes : string list;  (** human-readable context, one line each *)
}

let correct o = o.failed = 0 && List.for_all snd o.gates

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile of an ascending array. *)
let nearest_rank a p =
  let n = Array.length a in
  if n = 0 then 0
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
let per num den = if den = 0. then 0. else num /. den

(* ------------------------------------------------------------------ *)
(* Host-side measurements                                               *)

(* The process's peak resident set so far (VmHWM), in MiB.  Workloads
   read it when the exact prefix ends: a longer window on a faster host
   must not read as more memory. *)
let peak_rss_mb () =
  let status =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
  in
  let kb =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
            Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      (String.split_on_char '\n' status)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "peak_rss_mb: no VmHWM line in /proc/self/status"

(* Host-speed calibration.  The host is a shared VM whose speed drifts
   by up to a half over seconds to minutes, with the neighbours' load;
   no statistic over one run can undo that, because whole runs land in
   a slow stretch.  So every timed piece of work is paired with an
   adjacent run of a fixed calibration kernel, and host seconds are
   converted to reference seconds: one reference second is the time the
   kernel takes for [kernel_runs_per_ref_s] runs.  The kernel uses the
   OCaml standard library only (balanced-tree inserts, small strings, a
   fold), so no change to the simulator can move it; it must never
   change, or reference seconds stop being comparable across commits. *)
module Int_map = Map.Make (Int)

let kernel_runs_per_ref_s = 500.

let kernel () =
  let acc = ref 0 in
  for r = 1 to 3 do
    let m = ref Int_map.empty in
    for i = 1 to 2000 do
      m := Int_map.add (((i * 7919) + r) land 65535) (string_of_int i) !m
    done;
    acc := Int_map.fold (fun k v a -> a + k + String.length v) !m !acc
  done;
  ignore (Sys.opaque_identity !acc : int)

(* Reference seconds per host second, right now: below 1 while the host
   runs slower than the reference.  The kernel allocates well under one
   minor heap, so starting it on an empty minor heap keeps the
   workload's own heap (300 MB for hier_1024) out of its time. *)
let speed () =
  Gc.minor ();
  let t0 = wall () in
  kernel ();
  1. /. ((wall () -. t0) *. kernel_runs_per_ref_s)

let median_speed n = median (List.init n (fun _ -> speed ()))

(* Host seconds taken by [f ()], converted to reference seconds with the
   median of three calibration runs on each side. *)
let ref_time f =
  let s0 = median_speed 3 in
  let t0 = wall () in
  let x = f () in
  let dt = wall () -. t0 in
  (x, dt *. (s0 +. median_speed 3) /. 2.)

(* Set-up time is the median over repeated builds of the same seeded
   world.  Host speed drifts by up to a half within a second, so a
   burst of builds only samples one moment of it.  A cheap world is
   therefore rebuilt between slices of the timed window, [every] slices
   apart once the exact prefix is done, which samples set-up across the
   whole run in a warm process (each build pays for the GC work its
   allocation triggers).  Those builds are discarded and their time is
   kept out of the slices. *)
type setups = {
  build : unit -> unit;
  every : int;
  mutable calls : int;
  mutable times : float list;
}

let setups ~every build =
  { build = (fun () -> ignore (build ())); every; calls = 0; times = [] }

let time_setup s =
  let (), dt = ref_time s.build in
  s.times <- dt :: s.times

(* Call after every slice. *)
let between s =
  if s.calls mod s.every = 0 then time_setup s;
  s.calls <- s.calls + 1

(* A window too short to reach [between] still times one set-up. *)
let setup_s s =
  if s.times = [] then time_setup s;
  median s.times

(* A world too big to rebuild inside the window is built [reps] times
   up front, each from a compacted heap so the previous world's garbage
   is gone; the last one is kept.  Its build is seconds of memory-bound
   work that a calibration run of a few milliseconds cannot stand for,
   so it is timed in host seconds. *)
let setup_median ~reps build =
  let rec go k acc =
    Gc.compact ();
    let t0 = wall () in
    let w = build () in
    let dt = wall () -. t0 in
    if k <= 1 then (w, median (dt :: acc)) else go (k - 1) (dt :: acc)
  in
  go (max 1 reps) []

(* The timed window is cut into slices of fixed work; each slice is
   followed by a calibration run, and throughput is the median slice
   rate in reference seconds.  The median keeps a minority of odd slices
   (a major GC, a burst of neighbour load the kernel missed) from moving
   the figure.  The note line shows the host-second rates too. *)
type window = {
  mutable ops : int;
  mutable secs : float;  (** host seconds *)
  mutable rates : float list;  (** per reference second *)
  mutable host_rates : float list;  (** per host second *)
  mutable speeds : float list;
}

let window () =
  { ops = 0; secs = 0.; rates = []; host_rates = []; speeds = [] }

(* Record a slice of [ops] ops that took [secs] host seconds; returns
   the speed it was converted with. *)
let slice w ~ops ~secs =
  let sp = speed () in
  w.ops <- w.ops + ops;
  w.secs <- w.secs +. secs;
  if secs > 0. then begin
    w.rates <- (float_of_int ops /. (secs *. sp)) :: w.rates;
    w.host_rates <- (float_of_int ops /. secs) :: w.host_rates;
    w.speeds <- sp :: w.speeds
  end;
  sp

let ops_per_s w = median w.rates

let rate_note w =
  let q l p =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n = 0 then nan else a.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  Printf.sprintf
    "%d slices; per reference s p10 %.0f p50 %.0f p90 %.0f; per host s \
     p10 %.0f p50 %.0f p90 %.0f; host speed p50 %.2f"
    (List.length w.rates) (q w.rates 0.1) (q w.rates 0.5) (q w.rates 0.9)
    (q w.host_rates 0.1) (q w.host_rates 0.5) (q w.host_rates 0.9)
    (q w.speeds 0.5)

(* ------------------------------------------------------------------ *)
(* Per-layer snapshots                                                 *)

(* The obs consumers a traced leg attaches: metrics counters and
   per-site self time. *)
type probes = {
  sink : Obs.Sink.t;
  registry : Obs.Metrics.t;
  attrib : Obs.Attrib.t;
}

let probes () =
  let sink = Obs.Sink.create () in
  let registry = Obs.Metrics.create () and attrib = Obs.Attrib.create () in
  Obs.Sink.attach sink ~metrics:registry;
  Obs.Sink.set_attrib sink (Some attrib);
  { sink; registry; attrib }

(* Cumulative counters and self times at one instant of a traced leg;
   a phase is the difference of two snapshots. *)
type snap = {
  counts : int array;  (** indexed like [Obs.Metrics.all_keys] *)
  rows : Obs.Attrib.row list;
  attributed_ns : float;
  at : float;  (** host seconds *)
}

let snap p =
  {
    counts =
      Array.of_list
        (List.map (Obs.Metrics.get p.registry) Obs.Metrics.all_keys);
    rows = Obs.Attrib.report p.attrib;
    attributed_ns = Obs.Attrib.total_ns p.attrib;
    at = wall ();
  }

let key_index key =
  let rec go i = function
    | [] -> invalid_arg "key_index"
    | k :: rest -> if k = key then i else go (i + 1) rest
  in
  go 0 Obs.Metrics.all_keys

(* Counter [key] accumulated between snapshots [a] and [b]. *)
let count a b key =
  let i = key_index key in
  b.counts.(i) - a.counts.(i)

(* Calls and self nanoseconds of the sites matching [sub] (and [probe],
   if given) between snapshots [a] and [b]. *)
let self ?probe sub a b =
  let total rows =
    List.fold_left
      (fun (calls, ns) (r : Obs.Attrib.row) ->
        let hit =
          r.Obs.Attrib.sub = sub
          &&
          match probe with
          | Some p -> String.equal r.Obs.Attrib.probe p
          | None -> true
        in
        if hit then (calls + r.Obs.Attrib.calls, ns +. r.Obs.Attrib.self_ns)
        else (calls, ns))
      (0, 0.) rows
  in
  let c0, n0 = total a.rows and c1, n1 = total b.rows in
  (c1 - c0, n1 -. n0)

let self_ns ?probe sub a b = snd (self ?probe sub a b)

(* Host nanoseconds between [a] and [b] that no probe site claimed: the
   engine's dispatch and fiber switches plus unprobed code (rpc, repl,
   the applications). *)
let unattributed_ns a b =
  ((b.at -. a.at) *. 1e9) -. (b.attributed_ns -. a.attributed_ns)

(* Per-layer rows every workload derives the same way from the obs
   counters.  Snapshots: [p0] before set-up, [p1] after it, [p2] at the
   end of the exact prefix of [ops] ops and [events] engine events, [p3]
   at the end of the traced window of [win_ops] ops and [win_events]
   events.  Per-op counts cover the prefix, set-up counts [p0, p2], and
   host times the whole window. *)
let layer_rows ~ops ~events ~p0 ~p1 ~p2 ~p3 ~win_ops ~win_events =
  let open Obs.Metrics in
  let c k = float_of_int (count p1 p2 k) in
  let setup k = float_of_int (count p0 p2 k) in
  let win k = float_of_int (count p1 p3 k) in
  let per_op k = c k /. float_of_int ops in
  let module S = Obs.Subsystem in
  let join_calls, join_ns = self ~probe:"m-join" S.Totem p0 p2 in
  [
    ("dsim.events_per_op", float_of_int events /. float_of_int ops);
    ("dsim.fiber_switches_per_op", per_op Fiber_switches);
    ( "dsim.self_ns_per_event",
      per (unattributed_ns p1 p3) (float_of_int win_events) );
    ("netsim.sent_per_op", per_op Net_sent);
    ("netsim.delivered_per_op", per_op Net_delivered);
    ("netsim.dropped", setup Net_dropped);
    ( "netsim.self_ns_per_delivery",
      per (self_ns S.Netsim p1 p3) (win Net_delivered) );
    ("totem.tokens_per_op", per_op Totem_tokens);
    ( "totem.self_ns_per_op",
      per (self_ns S.Totem p1 p3) (float_of_int win_ops) );
    ("totem.join_calls", float_of_int join_calls);
    ("totem.join_self_s", join_ns /. 1e9);
    ("totem.views", setup Totem_views);
    ("gcs.views", setup Gcs_views);
    ("gcs.self_s", self_ns S.Gcs p0 p2 /. 1e9);
    ("ccs.rounds_per_op", per_op Ccs_rounds);
    ("ccs.win_ratio", per (c Ccs_wins) (c Ccs_wins +. c Ccs_discards));
    ("ccs.suppressed_ratio", per (c Ccs_suppressed) (c Ccs_rounds));
    ("ccs.self_ns_per_round", per (self_ns S.Ccs p1 p3) (win Ccs_rounds));
    ("hier.self_s", self_ns S.Hier p0 p2 /. 1e9);
    ( "scenario.form_poll_self_s",
      self_ns ~probe:"form-poll" S.Scenario p0 p2 /. 1e9 );
  ]
