(* rpc_reads: the paper's headline path (Figure 5).  One client on node 0
   issues gettimeofday invocations back to back (a closed loop) against
   a 3-replica active time server with CTS on, on a 4-node ring; the
   flight recorder is off, as in `ctsim fig5`.  One op is one completed
   invocation. *)

module C = Scenario.Cluster
module Span = Dsim.Time.Span

(* Ring size: the client node plus nodes-1 replicas. *)
let nodes = 4

type params = {
  setup_every : int;  (** slices between two timed set-ups *)
  batch : int;  (** invocations per timed slice *)
  prefix : int;
      (** the first [prefix] invocations define every exact metric; a
          multiple of [batch] *)
  rss_at : int;
      (** peak RSS is read when the [rss_at]-th invocation completes:
          late in a 20 s window on the slowest host measured, so the
          steady phase shows, at a point of fixed work; a multiple of
          [batch] *)
}

let full =
  { setup_every = 5; batch = 500; prefix = 10_000; rss_at = 300_000 }

let tiny = { setup_every = 1; batch = 50; prefix = 200; rss_at = 400 }

type rig = {
  cluster : C.t;
  client : Rpc.Client.t;
  start_all_s : float;  (** host time of ring formation *)
}

(* The rig of `ctsim fig5`, built from the public scenario pieces so the
   set-up is timed apart from the reads. *)
let build ?obs ~seed () =
  let cluster = C.create ~seed ?obs ~nodes () in
  let t0 = Common.wall () in
  C.start_all cluster;
  C.run_until cluster (fun () ->
      C.ring_stable cluster ~on_nodes:(List.init nodes Fun.id));
  let start_all_s = Common.wall () -. t0 in
  let replica_nodes = List.init (nodes - 1) (fun k -> k + 1) in
  let config =
    {
      Repl.Replica.default_config with
      initial_members = List.map Netsim.Node_id.of_int replica_nodes;
    }
  in
  List.iter
    (fun node ->
      let n = cluster.C.nodes.(node) in
      ignore
        (Repl.Replica.create cluster.C.eng ~endpoint:n.C.endpoint
           ~group:cluster.C.server_group ~clock:n.C.clock ~config
           ~app:(Scenario.Apps.time_server cluster ~node ~use_cts:true ())
           ()
          : Repl.Replica.t))
    replica_nodes;
  let client =
    Rpc.Client.create cluster.C.eng ~endpoint:cluster.C.nodes.(0).C.endpoint
      ~my_group:cluster.C.client_group ~server_group:cluster.C.server_group ()
  in
  let members g (n : C.node) =
    List.length (Gcs.Endpoint.members_of n.C.endpoint g)
  in
  C.run_until cluster (fun () ->
      Array.for_all
        (fun n ->
          members cluster.C.server_group n = nodes - 1
          && members cluster.C.client_group n = 1)
        cluster.C.nodes);
  { cluster; client; start_all_s }

(* The closed-loop client and what it observed. *)
type loop = {
  mutable reads : int;
  mutable timeouts : int;
  mutable regressions : int;  (** readings below their predecessor *)
  mutable last : int;
  mutable stop : bool;
  mutable finished : bool;
  lat_us : int array;  (** simulated latency of the prefix reads *)
  mutable host_s : float list;  (** host time of each traced invocation *)
}

let client_loop rig p ~spans =
  let st =
    {
      reads = 0;
      timeouts = 0;
      regressions = 0;
      last = min_int;
      stop = false;
      finished = false;
      lat_us = Array.make p.prefix 0;
      host_s = [];
    }
  in
  Dsim.Fiber.spawn rig.cluster.C.eng (fun () ->
      while not st.stop do
        let h0 = if spans then Common.wall () else 0. in
        (match
           Rpc.Client.invoke_timed ~timeout:(Span.of_sec 1) rig.client
             ~op:"gettimeofday" ~arg:""
         with
        | reading, lat -> (
            if st.reads < p.prefix then st.lat_us.(st.reads) <- Span.to_us lat;
            match int_of_string_opt reading with
            | Some v ->
                if v < st.last then st.regressions <- st.regressions + 1;
                st.last <- v
            | None -> st.regressions <- st.regressions + 1)
        | exception Rpc.Client.Timeout -> st.timeouts <- st.timeouts + 1);
        if spans then st.host_s <- (Common.wall () -. h0) :: st.host_s;
        st.reads <- st.reads + 1
      done;
      st.finished <- true);
  st

(* Run the closed loop for [seconds] of host time and at least [until]
   reads (the prefix at least), in slices of [batch] reads; [at] runs
   after every slice with the reads completed so far, and [between]
   after every slice past the prefix. *)
let drive ?(between = ignore) rig p st ~seconds ~until ~at =
  let w = Common.window () in
  let t0 = Common.wall () in
  let target = ref 0 in
  while
    Common.wall () -. t0 < seconds || st.reads < max p.prefix until
  do
    target := !target + p.batch;
    let s0 = Common.wall () and r0 = st.reads in
    C.run_until ~limit:(Span.of_sec 3600) rig.cluster (fun () ->
        st.reads >= !target);
    ignore
      (Common.slice w ~ops:(st.reads - r0) ~secs:(Common.wall () -. s0)
        : float);
    at st.reads;
    if st.reads > p.prefix then between ()
  done;
  st.stop <- true;
  C.run_until ~limit:(Span.of_sec 3600) rig.cluster (fun () -> st.finished);
  w

let sim_quantiles st =
  let a = Array.copy st.lat_us in
  Array.sort Int.compare a;
  ( float_of_int (Common.nearest_rank a 0.5),
    float_of_int (Common.nearest_rank a 0.99) )

let failed st = st.timeouts + st.regressions

let gates st =
  [
    ("no client timeouts", st.timeouts = 0);
    ("readings non-decreasing", st.regressions = 0);
  ]

(* The untraced measurement: the timed window on one rig, with more
   rigs built between its slices when [setups] is given.  Peak RSS is
   read when the [rss_at]-th read completes, which [until] >= [rss_at]
   guarantees. *)
let measure ?setups ~seed ~seconds ~until p =
  let rig = build ~seed () in
  let st = client_loop rig p ~spans:false in
  let steps0 = Dsim.Engine.steps rig.cluster.C.eng in
  let prefix_steps = ref 0 and rss = ref 0. in
  let between = Option.map (fun s () -> Common.between s) setups in
  let w =
    drive ?between rig p st ~seconds ~until ~at:(fun reads ->
        if reads = p.prefix then
          prefix_steps := Dsim.Engine.steps rig.cluster.C.eng - steps0;
        if reads = p.rss_at then rss := Common.peak_rss_mb ())
  in
  (st, w, !prefix_steps, !rss)

let run_untraced p ~seed ~seconds =
  let setups = Common.setups ~every:p.setup_every (fun () -> build ~seed ()) in
  let st, w, _, rss = measure ~setups ~seed ~seconds ~until:p.rss_at p in
  let p50, p99 = sim_quantiles st in
  {
    Common.attempted = st.reads;
    failed = failed st;
    gates = gates st;
    metrics =
      [
        ("setup_s", Common.setup_s setups);
        ("ops_per_s", Common.ops_per_s w);
        ("peak_rss_mb", rss);
      ];
    notes =
      [
        Common.rate_note w;
        Printf.sprintf "%d reads in %.2f s, %d slices of %d" w.Common.ops
          w.Common.secs (List.length w.Common.rates) p.batch;
        Printf.sprintf "sim read latency p50 %.0f us, p99 %.0f us (first %d)"
          p50 p99 p.prefix;
      ];
  }

(* The traced measurement: an untraced leg and a traced one of half the
   window each, on the same seed.  The traced leg attaches the metrics
   counters and per-site self time; its exact metrics must equal the
   untraced leg's. *)
let run_traced p ~seed ~seconds =
  let half = seconds /. 2. in
  let u_st, u_w, u_steps, _ = measure ~seed ~seconds:half ~until:0 p in
  let pr = Common.probes () in
  let p0 = Common.snap pr in
  let rig = build ~obs:pr.Common.sink ~seed () in
  let eng = rig.cluster.C.eng in
  let st = client_loop rig p ~spans:true in
  let p1 = Common.snap pr in
  let steps1 = Dsim.Engine.steps eng in
  let dup1 = Rpc.Client.duplicate_replies rig.client in
  let at2 = ref None in
  let w =
    drive rig p st ~seconds:half ~until:0 ~at:(fun reads ->
        if reads = p.prefix then
          at2 :=
            Some
              ( Common.snap pr,
                Dsim.Engine.steps eng - steps1,
                Rpc.Client.duplicate_replies rig.client - dup1,
                Dsim.Engine.queue_high_water eng ))
  in
  let p3 = Common.snap pr in
  let p2, events, dups, hwm = Option.get !at2 in
  let p50, p99 = sim_quantiles st and u50, u99 = sim_quantiles u_st in
  let win_ops = st.reads and win_events = Dsim.Engine.steps eng - steps1 in
  let attempted = u_st.reads + st.reads and fails = failed u_st + failed st in
  {
    Common.attempted;
    failed = fails;
    gates =
      gates u_st @ gates st
      @ [
          ("traced sim latency = untraced", p50 = u50 && p99 = u99);
          ("traced prefix events = untraced", events = u_steps);
        ];
    metrics =
      Common.layer_rows ~ops:p.prefix ~events ~p0 ~p1 ~p2 ~p3 ~win_ops
        ~win_events
      @ [
          ("dsim.queue_hwm", float_of_int hwm);
          ("rpc.host_us_per_call", Common.median st.host_s *. 1e6);
          ("rpc.duplicate_replies_per_call", Common.ratio dups p.prefix);
          ("scenario.start_all_s", rig.start_all_s);
          ("sim_read_p50_us", p50);
          ("sim_read_p99_us", p99);
          ("failed_ratio", Common.ratio fails attempted);
          ("trace_overhead", Common.ops_per_s w /. Common.ops_per_s u_w);
        ];
    notes =
      [
        Printf.sprintf "untraced leg %d reads, traced leg %d reads" u_st.reads
          st.reads;
      ];
  }

let run p ~seed ~seconds ~trace =
  if trace then run_traced p ~seed ~seconds else run_untraced p ~seed ~seconds
