(* Tests for lib/obs: the metrics registry and its ground truth against
   the layers' own tallies, the Chrome export of the recorder window and
   its validator, the sink's one gate, the per-message accounting of
   batched network deliveries, and the §3.4 cross-check between the
   recorder's skew samples and the exported [ccs-round] spans. *)

module Time = Dsim.Time
module Span = Dsim.Time.Span
module Net = Netsim.Network
module Nid = Netsim.Node_id
module E = Scenario.Experiments
module R = Scenario.Report
module Rec = Obs.Recorder

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let n = Nid.of_int

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let test_metrics_counters () =
  let m = Obs.Metrics.create () in
  check int "fresh counter" 0 (Obs.Metrics.get m Obs.Metrics.Ccs_rounds);
  Obs.Metrics.incr m Obs.Metrics.Ccs_rounds;
  Obs.Metrics.incr m Obs.Metrics.Ccs_rounds;
  Obs.Metrics.add m Obs.Metrics.Net_sent 5;
  check int "incr twice" 2 (Obs.Metrics.get m Obs.Metrics.Ccs_rounds);
  check int "add" 5 (Obs.Metrics.get m Obs.Metrics.Net_sent);
  (* every key is independent *)
  List.iter
    (fun k ->
      if k <> Obs.Metrics.Ccs_rounds && k <> Obs.Metrics.Net_sent then
        check int (Obs.Metrics.key_name k) 0 (Obs.Metrics.get m k))
    Obs.Metrics.all_keys;
  Obs.Metrics.reset m;
  check int "reset" 0 (Obs.Metrics.get m Obs.Metrics.Ccs_rounds)

let test_metrics_gauges_hists_sections () =
  let m = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge m "queue_depth" in
  g := 42.;
  check bool "gauge find-or-create" true
    ((Obs.Metrics.gauge m "queue_depth" == g)
    [@ctslint.allow
      "phys-equality" "the test asserts find-or-create returns the same \
                       ref, so identity is exactly what is under test"]);
  Obs.Metrics.observe m Obs.Metrics.Rpc_latency_us 120.;
  Obs.Metrics.observe m Obs.Metrics.Rpc_latency_us 130.;
  check int "hist count" 2
    (Stats.Histogram.count (Obs.Metrics.hist m Obs.Metrics.Rpc_latency_us));
  let s = Obs.Metrics.section m "engine-step" in
  Obs.Metrics.section_record s ~events:1000 ~ns:5e6 ~minor_words:0.;
  check bool "section find-or-create" true
    ((Obs.Metrics.section m "engine-step" == s)
    [@ctslint.allow
      "phys-equality" "the test asserts find-or-create returns the same \
                       record, so identity is exactly what is under test"]);
  check int "section events" 1000 s.Obs.Metrics.s_events;
  let json = Obs.Metrics.to_json m in
  let contains needle =
    let ln = String.length needle and lj = String.length json in
    let rec go i = i + ln <= lj && (String.sub json i ln = needle || go (i + 1)) in
    go 0
  in
  check bool "json counters" true (contains "\"counters\"");
  check bool "json gauge" true (contains "\"queue_depth\": 42");
  check bool "json hist" true (contains "\"rpc_latency_us\"");
  check bool "json section" true (contains "\"engine-step\"")

(* ------------------------------------------------------------------ *)
(* Metrics ground truth: every counter equals the layer's own tally     *)

let metrics_sink () =
  let m = Obs.Metrics.create () in
  let s = Obs.Sink.create () in
  Obs.Sink.attach s ~metrics:m;
  (s, m)

let test_ground_truth_skew () =
  let sink, m = metrics_sink () in
  let run = E.skew ~seed:11L ~rounds:30 ~replicas:3 ~obs:sink () in
  let sum a = Array.fold_left ( + ) 0 a in
  check int "Ccs_rounds = rounds the replicas completed"
    (sum (Array.map List.length run.E.samples))
    (Obs.Metrics.get m Obs.Metrics.Ccs_rounds);
  check int "Ccs_suppressed = sum of service stats"
    (sum run.E.ccs_suppressed)
    (Obs.Metrics.get m Obs.Metrics.Ccs_suppressed);
  check int "Rpc_calls = the one triggering invocation" 1
    (Obs.Metrics.get m Obs.Metrics.Rpc_calls)

(* The rpc_reads rig: a client on node 0 reads the group clock from a
   3-replica time server. *)
let test_ground_truth_rpc () =
  let module C = Scenario.Cluster in
  let sink, m = metrics_sink () in
  let nodes = 4 in
  let cluster = C.create ~seed:5L ~obs:sink ~nodes () in
  C.start_all cluster;
  C.run_until cluster (fun () ->
      C.ring_stable cluster ~on_nodes:(List.init nodes Fun.id));
  let config =
    {
      Repl.Replica.default_config with
      initial_members = List.init (nodes - 1) (fun k -> n (k + 1));
    }
  in
  let replicas =
    List.init (nodes - 1) (fun k ->
        let node = k + 1 in
        let nd = cluster.C.nodes.(node) in
        Repl.Replica.create cluster.C.eng ~endpoint:nd.C.endpoint
          ~group:cluster.C.server_group ~clock:nd.C.clock ~config
          ~app:(Scenario.Apps.time_server cluster ~node ())
          ())
  in
  let client =
    Rpc.Client.create cluster.C.eng ~endpoint:cluster.C.nodes.(0).C.endpoint
      ~my_group:cluster.C.client_group ~server_group:cluster.C.server_group ()
  in
  C.run_until cluster (fun () ->
      List.length
        (Gcs.Endpoint.members_of cluster.C.nodes.(0).C.endpoint
           cluster.C.server_group)
      = nodes - 1);
  let steps0 = Dsim.Engine.steps cluster.C.eng in
  let events0 = Obs.Metrics.get m Obs.Metrics.Engine_events in
  let calls = 25 in
  let finished = ref false in
  Dsim.Fiber.spawn cluster.C.eng (fun () ->
      for _ = 1 to calls do
        ignore (Rpc.Client.invoke client ~op:"gettimeofday" ~arg:"" : string)
      done;
      finished := true);
  C.run_until ~limit:(Span.of_sec 60) cluster (fun () -> !finished);
  C.run_for cluster (Span.of_ms 20);
  let get = Obs.Metrics.get m in
  check int "Engine_events = engine steps delta"
    (Dsim.Engine.steps cluster.C.eng - steps0)
    (get Obs.Metrics.Engine_events - events0);
  check int "Engine_events = engine steps since creation"
    (Dsim.Engine.steps cluster.C.eng)
    (get Obs.Metrics.Engine_events);
  check int "Rpc_calls = invocations made" calls (get Obs.Metrics.Rpc_calls);
  let stats =
    List.map (fun r -> Cts.Service.stats (Repl.Replica.service r)) replicas
  in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 stats in
  check int "Ccs_rounds = sum of rounds completed"
    (sum (fun st -> st.Cts.Service.rounds_completed))
    (get Obs.Metrics.Ccs_rounds);
  check int "Ccs_suppressed = sum of suppressions"
    (sum (fun st -> st.Cts.Service.suppressed))
    (get Obs.Metrics.Ccs_suppressed);
  let net = cluster.C.net in
  let tally sent =
    List.fold_left
      (fun acc id -> acc + Net.stats net ~sent id)
      0
      (List.init nodes n)
  in
  check int "Net_sent = network tally" (tally true) (get Obs.Metrics.Net_sent);
  check int "Net_delivered = network tally" (tally false)
    (get Obs.Metrics.Net_delivered);
  check int "Net_dropped = network tally" (Net.packets_dropped net)
    (get Obs.Metrics.Net_dropped)

(* ------------------------------------------------------------------ *)
(* Chrome export of the recorder window + validator                    *)

let test_trace_capacity_and_clear () =
  (* the exported trace is bounded by the window; the excess is counted
     as overwritten records *)
  let r = Rec.create ~capacity:4 () in
  for i = 1 to 6 do
    Rec.emit r ~kind:Rec.k_token ~ts_us:i ~node:1 ~a:i ~b:0
  done;
  check int "kept at capacity" 4 (Obs.Trace.length (Rec.to_trace r));
  check int "excess counted" 2 (Rec.dropped r);
  Rec.clear r;
  check int "cleared" 0 (Obs.Trace.length (Rec.to_trace r));
  check int "dropped cleared" 0 (Rec.dropped r)

(* A CCS round at node 1 around a send at node 2, then a token visit. *)
let build_sample_trace () =
  let r = Rec.create () in
  Rec.emit r ~kind:Rec.k_ccs_open ~ts_us:1 ~node:1 ~a:1 ~b:1;
  Rec.emit r ~kind:Rec.k_send ~ts_us:1 ~node:2 ~a:1 ~b:0;
  Rec.emit r ~kind:Rec.k_ccs_settle ~ts_us:2 ~node:1 ~a:1 ~b:(-3);
  Rec.emit r ~kind:Rec.k_token ~ts_us:2 ~node:2 ~a:5 ~b:4;
  Rec.to_trace r

let test_chrome_roundtrip () =
  let tr = build_sample_trace () in
  check bool "open/settle pair into a ccs-round span" true
    (List.map
       (fun (e : Obs.Trace.event) -> (e.Obs.Trace.ph, e.Obs.Trace.name))
       (Obs.Trace.events tr)
    = [
        (Obs.Trace.Begin, "ccs-round");
        (Obs.Trace.Instant, "send");
        (Obs.Trace.End, "ccs-round");
        (Obs.Trace.Instant, "token");
      ]);
  let b = Buffer.create 256 in
  Obs.Trace.to_chrome tr b;
  match Obs.Trace.validate_string (Buffer.contents b) with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check int "events" 4 s.Obs.Trace.v_events;
      check int "pids" 2 s.Obs.Trace.v_pids;
      check bool "subsystems named" true
        (List.mem "ccs" s.Obs.Trace.v_subsystems
        && List.mem "netsim" s.Obs.Trace.v_subsystems
        && List.mem "totem" s.Obs.Trace.v_subsystems)

let test_orphan_close_is_instant () =
  (* the ring overwrote the round's open: its settle must not end an
     unopened span *)
  let r = Rec.create ~capacity:2 () in
  Rec.emit r ~kind:Rec.k_rpc_call ~ts_us:1 ~node:0 ~a:7 ~b:0;
  Rec.emit r ~kind:Rec.k_token ~ts_us:2 ~node:0 ~a:1 ~b:1;
  Rec.emit r ~kind:Rec.k_rpc_return ~ts_us:3 ~node:0 ~a:7 ~b:2;
  let tr = Rec.to_trace r in
  check bool "orphan return exported as an instant" true
    (List.map
       (fun (e : Obs.Trace.event) -> (e.Obs.Trace.ph, e.Obs.Trace.name))
       (Obs.Trace.events tr)
    = [ (Obs.Trace.Instant, "token"); (Obs.Trace.Instant, "rpc-return") ]);
  let b = Buffer.create 256 in
  Obs.Trace.to_chrome tr b;
  match Obs.Trace.validate_string (Buffer.contents b) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_chrome_file_roundtrip () =
  let tr = build_sample_trace () in
  let file = Filename.temp_file "obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Obs.Trace.write_chrome_file tr file;
      match Obs.Trace.validate_file file with
      | Error e -> Alcotest.fail e
      | Ok s -> check int "events from file" 4 s.Obs.Trace.v_events)

let test_validator_rejects () =
  (match Obs.Trace.validate_string "{ not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON accepted");
  (match Obs.Trace.validate_string "{\"traceEvents\": 3}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-array traceEvents accepted");
  (* timestamps running backwards on one (pid, tid) row *)
  let backwards =
    {|{"traceEvents":[
      {"ph":"i","ts":2.000,"pid":1,"tid":4,"name":"a","s":"t"},
      {"ph":"i","ts":1.000,"pid":1,"tid":4,"name":"b","s":"t"}]}|}
  in
  (match Obs.Trace.validate_string backwards with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-monotone ts accepted");
  (* End with no matching Begin *)
  let unopened =
    {|{"traceEvents":[
      {"ph":"E","ts":1.000,"pid":1,"tid":4,"name":"a"}]}|}
  in
  (match Obs.Trace.validate_string unopened with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "End-without-Begin accepted");
  (* a span still open when the capture ends is fine *)
  let open_at_end =
    {|{"traceEvents":[
      {"ph":"B","ts":1.000,"pid":1,"tid":4,"name":"a"}]}|}
  in
  match Obs.Trace.validate_string open_at_end with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("open span rejected: " ^ e)

(* ------------------------------------------------------------------ *)
(* The sink's one gate on the engine                                   *)

let test_sink_gating_and_late_attach () =
  let eng = Dsim.Engine.create () in
  for i = 1 to 10 do
    Dsim.Engine.schedule eng (Span.of_us i) ignore
  done;
  Dsim.Engine.run eng;
  (* nothing attached: the run must leave no observable state anywhere *)
  check bool "off by default" false (Dsim.Engine.obs eng).Obs.Sink.on;
  (* attach after the engine (and a whole run) already exists *)
  let s, m = metrics_sink () in
  check bool "a registry opens the gate" true s.Obs.Sink.on;
  Dsim.Engine.set_obs eng s;
  for i = 1 to 7 do
    Dsim.Engine.schedule eng (Span.of_us i) ignore
  done;
  Dsim.Engine.run eng;
  check int "only post-attach events counted" 7
    (Obs.Metrics.get m Obs.Metrics.Engine_events)

let test_steps_flag () =
  let run steps =
    let eng = Dsim.Engine.create () in
    let r = Rec.create () in
    let s = Obs.Sink.create () in
    Obs.Sink.set_recorder s (Some r);
    Obs.Sink.set_steps s steps;
    Dsim.Engine.set_obs eng s;
    for i = 1 to 5 do
      Dsim.Engine.schedule eng (Span.of_us i) ignore
    done;
    Dsim.Engine.run eng;
    let k = ref 0 in
    Rec.iter r (fun ~kind ~ts_us:_ ~node:_ ~a:_ ~b:_ ->
        if kind = Rec.k_step then incr k);
    !k
  in
  check int "step records off by default" 0 (run false);
  check int "step records on demand" 5 (run true)

(* ------------------------------------------------------------------ *)
(* Netsim: batched broadcasts keep exact per-message records           *)

let obs_net () =
  let eng = Dsim.Engine.create () in
  let net =
    Net.create eng
      { Net.latency = Netsim.Latency.Constant (Span.of_us 10); loss = 0. }
  in
  let r = Rec.create () in
  let s, m = metrics_sink () in
  Obs.Sink.set_recorder s (Some r);
  Dsim.Engine.set_obs eng s;
  (eng, net, r, m)

let records r =
  let acc = ref [] in
  Rec.iter r (fun ~kind ~ts_us ~node ~a ~b ->
      acc := { Obs.Postmortem.kind; ts_us; node; a; b } :: !acc);
  List.rev !acc

let of_kind k = List.filter (fun (e : Obs.Postmortem.record) -> e.kind = k)

let test_batch_per_message_records () =
  let eng, net, r, m = obs_net () in
  for i = 0 to 2 do
    Net.attach net (n i) (fun ~src:_ _ -> ())
  done;
  Net.broadcast_many net ~src:(n 0) [| "a"; "b"; "c" |] ~n:3;
  Dsim.Engine.run eng;
  (* 3 messages x 2 receivers: one record per absorbed message, each
     carrying its position in the batch *)
  let rs = records r in
  check int "sent records" 3 (List.length (of_kind Rec.k_send rs));
  let delivers = of_kind Rec.k_deliver rs in
  check int "deliver records" 6 (List.length delivers);
  check int "deliver counter" 6 (Obs.Metrics.get m Obs.Metrics.Net_delivered);
  List.iter
    (fun node ->
      check (Alcotest.list int)
        (Printf.sprintf "batch positions at node %d" node)
        [ 0; 1; 2 ]
        (List.filter_map
           (fun (e : Obs.Postmortem.record) ->
             if e.node = node then Some e.b else None)
           delivers))
    [ 1; 2 ]

let test_batch_mid_detach_split () =
  let eng, net, r, m = obs_net () in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  (* node 1 detaches itself on the first delivery of the batch: the two
     remaining absorbed messages must each get their own No_port drop
     record, in batch order right behind the delivery *)
  Net.attach net (n 1) (fun ~src:_ _ -> Net.detach net (n 1));
  Net.broadcast_many net ~src:(n 0) [| "a"; "b"; "c" |] ~n:3;
  Dsim.Engine.run eng;
  let rs = records r in
  let delivers = of_kind Rec.k_deliver rs in
  let drops = of_kind Rec.k_drop rs in
  check int "one delivered before detach" 1 (List.length delivers);
  check int "rest dropped per message" 2 (List.length drops);
  check int "drop counter" 2 (Obs.Metrics.get m Obs.Metrics.Net_dropped);
  (* the batch at node 1, in record order: position 0 delivered, then
     positions 1 and 2 dropped at the same instant *)
  let batch =
    List.filter
      (fun (e : Obs.Postmortem.record) ->
        e.node = 1 && (e.kind = Rec.k_deliver || e.kind = Rec.k_drop))
      rs
  in
  check (Alcotest.list Alcotest.string) "batch order"
    [ "deliver"; "drop"; "drop" ]
    (List.map (fun (e : Obs.Postmortem.record) -> Rec.kind_name e.kind) batch);
  check (Alcotest.list int) "delivered batch position" [ 0 ]
    (List.map (fun (e : Obs.Postmortem.record) -> e.b) delivers);
  check bool "one instant" true
    (List.for_all
       (fun (e : Obs.Postmortem.record) ->
         e.ts_us = (List.hd batch).Obs.Postmortem.ts_us)
       batch);
  List.iter
    (fun (e : Obs.Postmortem.record) ->
      check Alcotest.string "No_port reason" "no-port"
        (Rec.drop_reason_name e.b))
    drops

(* ------------------------------------------------------------------ *)
(* §3.4 cross-check: exported ccs-round spans vs the recorder's samples *)

(* One skew run with the recorder and metrics attached.  The exported
   trace's [ccs-round] End events at pid [w + 1] must agree, round for
   round, with what the experiment sampled at replica [w]: rounds
   strictly increasing, one End per sample, and each End's adjustment
   the exact difference between consecutive post-round offsets. *)
let prop_skew_trace_matches_samples =
  QCheck.Test.make ~count:5
    ~name:"obs: ccs-round events agree with the skew recorder"
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let recorder = Rec.create () in
      let sink, metrics = metrics_sink () in
      Obs.Sink.set_recorder sink (Some recorder);
      let rounds = 40 in
      let run =
        E.skew ~seed:(Int64.of_int seed) ~rounds ~replicas:3 ~obs:sink ()
      in
      if Rec.dropped recorder > 0 then
        QCheck.Test.fail_reportf "window too small: %d records overwritten"
          (Rec.dropped recorder);
      let trace = Rec.to_trace recorder in
      (* the whole stack showed up in the trace *)
      if List.length (Obs.Trace.subsystems trace) < 6 then
        QCheck.Test.fail_reportf "only %d subsystems traced"
          (List.length (Obs.Trace.subsystems trace));
      if Obs.Metrics.get metrics Obs.Metrics.Ccs_rounds < 3 * rounds then
        QCheck.Test.fail_reportf "ccs rounds undercounted: %d"
          (Obs.Metrics.get metrics Obs.Metrics.Ccs_rounds);
      (* recorder-side: rounds strictly increase per replica *)
      Array.iter
        (fun samples ->
          ignore
            (List.fold_left
               (fun prev (s : E.round_sample) ->
                 if s.E.round <= prev then
                   QCheck.Test.fail_reportf "recorder rounds not monotone";
                 s.E.round)
               0 samples))
        run.E.samples;
      let arg name (e : Obs.Trace.event) =
        Option.value ~default:min_int (List.assoc_opt name e.Obs.Trace.args)
      in
      (* trace-side: per pid, ccs-round End rounds strictly increase *)
      let ends_at pid =
        List.filter
          (fun (e : Obs.Trace.event) ->
            e.Obs.Trace.ph = Obs.Trace.End
            && e.Obs.Trace.name = "ccs-round"
            && e.Obs.Trace.pid = pid)
          (Obs.Trace.events trace)
      in
      for pid = 1 to 3 do
        ignore
          (List.fold_left
             (fun prev e ->
               let r = arg "round" e in
               if r <= prev then
                 QCheck.Test.fail_reportf "trace rounds not monotone";
               r)
             0 (ends_at pid))
      done;
      (* the winner's adjustments, exactly: the service records the
         offset delta in whole µs, truncated *)
      let w = R.first_round_winner run in
      let ends = ends_at (w + 1) in
      let samples = run.E.samples.(w) in
      if List.length ends <> List.length samples then
        QCheck.Test.fail_reportf "winner: %d End events for %d samples"
          (List.length ends) (List.length samples);
      ignore
        (List.fold_left2
           (fun prev_ns e (s : E.round_sample) ->
             let off_ns = Span.to_ns s.E.offset in
             let adj = arg "adj_us" e in
             if adj <> (off_ns - prev_ns) / 1000 then
               QCheck.Test.fail_reportf
                 "adjustment %d us is not the offset delta %d ns" adj
                 (off_ns - prev_ns);
             off_ns)
           0 ends samples);
      true)

(* ------------------------------------------------------------------ *)
(* Mc: the shrunk counterexample's window as a trace                   *)

let test_counterexample_trace () =
  let buggy =
    {
      Mc.Harness.default with
      Mc.Harness.rounds = 8;
      think_us = 60;
      straggle_us = 80;
      jitter_us = 5;
      latency_us = 20;
      bug = Some Mc.Harness.Ignore_buffered_winner;
    }
  in
  let r =
    Mc.Explore.explore ~strategy:(Mc.Strategy.Bounded { depth = 1 })
      ~budget:300 buggy
  in
  match r.Mc.Explore.violations with
  | [] -> Alcotest.fail "exploration missed the seeded bug"
  | v :: _ ->
      let trace = Rec.to_trace v.Mc.Explore.window in
      check bool "trace nonempty" true (Obs.Trace.length trace > 0);
      check bool "ccs rounds counted" true
        (Obs.Metrics.get v.Mc.Explore.metrics Obs.Metrics.Ccs_rounds > 0);
      check bool "ccs spans present" true
        (List.exists
           (fun (e : Obs.Trace.event) ->
             e.Obs.Trace.ph = Obs.Trace.Begin && e.Obs.Trace.name = "ccs-round")
           (Obs.Trace.events trace));
      let b = Buffer.create 4096 in
      Obs.Trace.to_chrome trace b;
      (match Obs.Trace.validate_string (Buffer.contents b) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("counterexample trace invalid: " ^ e))

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
        Alcotest.test_case "metrics gauges/hists/sections" `Quick
          test_metrics_gauges_hists_sections;
        Alcotest.test_case "metrics ground truth: skew run" `Quick
          test_ground_truth_skew;
        Alcotest.test_case "metrics ground truth: rpc rig" `Quick
          test_ground_truth_rpc;
        Alcotest.test_case "trace capacity + clear" `Quick
          test_trace_capacity_and_clear;
        Alcotest.test_case "chrome export round-trip" `Quick
          test_chrome_roundtrip;
        Alcotest.test_case "orphan close stays an instant" `Quick
          test_orphan_close_is_instant;
        Alcotest.test_case "chrome file round-trip" `Quick
          test_chrome_file_roundtrip;
        Alcotest.test_case "validator rejects bad traces" `Quick
          test_validator_rejects;
        Alcotest.test_case "sink gating + late attach" `Quick
          test_sink_gating_and_late_attach;
        Alcotest.test_case "steps flag" `Quick test_steps_flag;
        Alcotest.test_case "batched broadcast per-message records" `Quick
          test_batch_per_message_records;
        Alcotest.test_case "mid-batch detach split" `Quick
          test_batch_mid_detach_split;
        QCheck_alcotest.to_alcotest prop_skew_trace_matches_samples;
        Alcotest.test_case "counterexample span trace" `Quick
          test_counterexample_trace;
      ] );
  ]
