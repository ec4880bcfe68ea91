(* Tests for the simulated network. *)

module Time = Dsim.Time
module Span = Dsim.Time.Span
module Net = Netsim.Network
module Nid = Netsim.Node_id

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let n = Nid.of_int

let constant_net eng us =
  Net.create eng { Net.latency = Netsim.Latency.Constant (Span.of_us us); loss = 0. }

let test_unicast_delivery () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let got = ref [] in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src msg ->
      got := (Nid.to_int src, msg, Time.to_us (Dsim.Engine.now eng)) :: !got);
  Net.send net ~src:(n 0) ~dst:(n 1) "hello";
  Dsim.Engine.run eng;
  match !got with
  | [ (0, "hello", 10) ] -> ()
  | _ -> Alcotest.fail "unexpected delivery"

let test_broadcast_excludes_sender () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 5 in
  let counts = Array.make 4 0 in
  for i = 0 to 3 do
    Net.attach net (n i) (fun ~src:_ _ -> counts.(i) <- counts.(i) + 1)
  done;
  Net.broadcast net ~src:(n 2) "x";
  Dsim.Engine.run eng;
  check (Alcotest.list int) "everyone but sender" [ 1; 1; 0; 1 ]
    (Array.to_list counts)

let test_loopback_unicast_allowed () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 5 in
  let got = ref 0 in
  Net.attach net (n 0) (fun ~src:_ _ -> incr got);
  Net.send net ~src:(n 0) ~dst:(n 0) ();
  Dsim.Engine.run eng;
  check int "self-send delivered" 1 !got

(* broadcast_many batches deliveries per destination but must keep
   per-message semantics: send order per path, one callback per message,
   and batch-absorbed messages sharing the batch's delivery instant. *)
let test_broadcast_many_order_and_count () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let got = Array.make 3 [] in
  for i = 0 to 2 do
    Net.attach net (n i) (fun ~src msg ->
        got.(i) <-
          (Nid.to_int src, msg, Time.to_us (Dsim.Engine.now eng)) :: got.(i))
  done;
  Net.broadcast_many net ~src:(n 0) [| "a"; "b"; "c"; "unused" |] ~n:3;
  Dsim.Engine.run eng;
  check int "sender got nothing" 0 (List.length got.(0));
  List.iter
    (fun i ->
      match List.rev got.(i) with
      | [ (0, "a", t1); (0, "b", t2); (0, "c", t3) ] ->
          check bool "FIFO timestamps" true (t1 <= t2 && t2 <= t3)
      | _ -> Alcotest.fail "per-message FIFO delivery violated")
    [ 1; 2 ];
  (* one sent-count per broadcast message, exactly as [broadcast] *)
  check int "per-message send stat" 3 (Net.stats net ~sent:true (n 0))

(* A batch must agree with the same messages sent by consecutive
   [broadcast] calls, payload-for-payload, on every destination. *)
let test_broadcast_many_matches_broadcasts () =
  let run use_many =
    let eng = Dsim.Engine.create () in
    let net = constant_net eng 7 in
    let got = Array.make 4 [] in
    for i = 0 to 3 do
      Net.attach net (n i) (fun ~src:_ msg -> got.(i) <- msg :: got.(i))
    done;
    let payloads = [| 10; 20; 30 |] in
    if use_many then Net.broadcast_many net ~src:(n 1) payloads ~n:3
    else Array.iter (fun p -> Net.broadcast net ~src:(n 1) p) payloads;
    Dsim.Engine.run eng;
    Array.map List.rev got
  in
  let batched = run true and plain = run false in
  Array.iteri
    (fun i msgs ->
      check (Alcotest.list int)
        (Printf.sprintf "node %d payload sequence" i)
        plain.(i) msgs)
    batched

let test_broadcast_many_respects_partition () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 5 in
  let counts = Array.make 4 0 in
  for i = 0 to 3 do
    Net.attach net (n i) (fun ~src:_ _ -> counts.(i) <- counts.(i) + 1)
  done;
  Net.partition net [ [ n 0; n 1 ]; [ n 2; n 3 ] ];
  Net.broadcast_many net ~src:(n 0) [| "x"; "y" |] ~n:2;
  Dsim.Engine.run eng;
  check (Alcotest.list int) "only same-side peer reached" [ 0; 2; 0; 0 ]
    (Array.to_list counts);
  check int "cross-partition drops accounted" 4 (Net.packets_dropped net)

let test_broadcast_many_loss_per_message () =
  let eng = Dsim.Engine.create () in
  let net =
    Net.create eng
      { Net.latency = Netsim.Latency.Constant (Span.of_us 5); loss = 0.5 }
  in
  let got = ref 0 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> incr got);
  let batch = [| "m" |] in
  for _ = 1 to 1000 do
    Net.broadcast_many net ~src:(n 0) batch ~n:1
  done;
  Dsim.Engine.run eng;
  (* An independent draw per (message, receiver): roughly half arrive. *)
  check bool "roughly half dropped" true (!got > 400 && !got < 600);
  check int "drop accounting" (1000 - !got) (Net.packets_dropped net)

let test_detach_drops_in_flight () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let got = ref 0 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> incr got);
  Net.send net ~src:(n 0) ~dst:(n 1) ();
  Dsim.Engine.schedule eng (Span.of_us 5) (fun () -> Net.detach net (n 1));
  Dsim.Engine.run eng;
  check int "dropped at crashed node" 0 !got;
  check int "accounted as dropped" 1 (Net.packets_dropped net)

let test_partition_blocks_cross_traffic () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 5 in
  let got = Array.make 4 0 in
  for i = 0 to 3 do
    Net.attach net (n i) (fun ~src:_ _ -> got.(i) <- got.(i) + 1)
  done;
  Net.partition net [ [ n 0; n 1 ]; [ n 2; n 3 ] ];
  Net.broadcast net ~src:(n 0) ();
  Net.send net ~src:(n 2) ~dst:(n 3) ();
  Net.send net ~src:(n 2) ~dst:(n 0) ();
  Dsim.Engine.run eng;
  check (Alcotest.list int) "partition respected" [ 0; 1; 0; 1 ]
    (Array.to_list got);
  Net.heal net;
  Net.send net ~src:(n 2) ~dst:(n 0) ();
  Dsim.Engine.run eng;
  check int "healed" 1 got.(0)

let test_loss_drops_packets () =
  let eng = Dsim.Engine.create ~seed:5L () in
  let net =
    Net.create eng
      { Net.latency = Netsim.Latency.Constant (Span.of_us 1); loss = 0.5 }
  in
  let got = ref 0 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> incr got);
  for _ = 1 to 1000 do
    Net.send net ~src:(n 0) ~dst:(n 1) ()
  done;
  Dsim.Engine.run eng;
  check bool "roughly half dropped" true (!got > 400 && !got < 600);
  check int "drop accounting" (1000 - !got) (Net.packets_dropped net)

let test_stats_counters () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 1 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> ());
  Net.send net ~src:(n 0) ~dst:(n 1) ();
  Net.broadcast net ~src:(n 0) ();
  Dsim.Engine.run eng;
  check int "sent" 2 (Net.stats net ~sent:true (n 0));
  check int "delivered" 2 (Net.stats net ~sent:false (n 1))

let test_attach_detach_attach_sorted () =
  (* The membership array must stay sorted through attach/detach/attach
     churn (incremental insert, not a wholesale re-sort), and a
     re-attached node must receive traffic again. *)
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let got = Array.make 6 0 in
  let attach i = Net.attach net (n i) (fun ~src:_ _ -> got.(i) <- got.(i) + 1) in
  List.iter attach [ 4; 1; 5; 0; 3; 2 ];
  check bool "sorted after out-of-order attach" true
    (Net.nodes net = List.map n [ 0; 1; 2; 3; 4; 5 ]);
  Net.detach net (n 3);
  Net.detach net (n 0);
  check bool "sorted after detach" true
    (Net.nodes net = List.map n [ 1; 2; 4; 5 ]);
  attach 3;
  attach 0;
  check bool "sorted after re-attach" true
    (Net.nodes net = List.map n [ 0; 1; 2; 3; 4; 5 ]);
  Net.broadcast net ~src:(n 1) 42;
  Dsim.Engine.run eng;
  check int "re-attached node 3 hears broadcasts" 1 got.(3);
  check int "re-attached node 0 hears broadcasts" 1 got.(0);
  check int "sender excluded" 0 got.(1)

let test_partition_mask_after_churn () =
  (* Group masks must track re-attachment: a node that detaches and
     re-attaches keeps its partition-group membership (the mask is per
     node id, not per slot). *)
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let got = Array.make 4 0 in
  for i = 0 to 3 do
    Net.attach net (n i) (fun ~src:_ _ -> got.(i) <- got.(i) + 1)
  done;
  Net.partition net [ [ n 0; n 1 ]; [ n 2; n 3 ] ];
  Net.detach net (n 1);
  Net.attach net (n 1) (fun ~src:_ _ -> got.(1) <- got.(1) + 1);
  Net.send net ~src:(n 0) ~dst:(n 1) 1;
  Net.send net ~src:(n 2) ~dst:(n 1) 2;
  Net.send net ~src:(n 3) ~dst:(n 2) 3;
  Dsim.Engine.run eng;
  check int "same-group unicast to re-attached node" 1 got.(1);
  check int "cross-group unicast still blocked" 1 got.(2);
  Net.heal net;
  Net.send net ~src:(n 2) ~dst:(n 1) 4;
  Dsim.Engine.run eng;
  check int "heal restores cross traffic" 2 got.(1)

let test_send_tracked_outcomes () =
  (* [send_tracked] reports the loss outcome the simulator already knows
     at send time: queued on the clean path, false under loss or across a
     partition. *)
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> ());
  check bool "clean send queued" true
    (Net.send_tracked net ~src:(n 0) ~dst:(n 1) 1);
  Net.partition net [ [ n 0 ]; [ n 1 ] ];
  check bool "partitioned send not queued" false
    (Net.send_tracked net ~src:(n 0) ~dst:(n 1) 2);
  Net.heal net;
  Net.set_loss net 0.5;
  (* Under loss the report must agree with the drop counter, send by
     send: false iff the packet was counted dropped. *)
  let disagreements = ref 0 and drops = ref 0 in
  for i = 0 to 49 do
    let before = Net.packets_dropped net in
    let queued = Net.send_tracked net ~src:(n 0) ~dst:(n 1) i in
    let dropped = Net.packets_dropped net > before in
    if queued = dropped then incr disagreements;
    if dropped then incr drops
  done;
  check int "tracked result always matches drop accounting" 0 !disagreements;
  check bool "loss 0.5 dropped some of 50 sends" true (!drops > 0)

let test_send_tracked_after_delay () =
  (* The deferred send arrives after delay + latency, and still respects
     per-path FIFO against a later plain send. *)
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let got = ref [] in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ v ->
      got := (v, Time.to_us (Dsim.Engine.now eng)) :: !got);
  check bool "deferred send queued" true
    (Net.send_tracked_after net ~delay:(Span.of_us 40) ~src:(n 0) ~dst:(n 1) 1);
  Dsim.Engine.run eng;
  (match !got with
  | [ (1, at) ] -> check int "arrives at delay + latency" 50 at
  | _ -> Alcotest.fail "expected exactly one delivery")

let test_double_attach_rejected () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 1 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Alcotest.check_raises "double attach"
    (Invalid_argument "Network.attach: n0 already attached") (fun () ->
      Net.attach net (n 0) (fun ~src:_ _ -> ()))

let test_latency_models_positive () =
  let eng = Dsim.Engine.create ~seed:3L () in
  let rng = Dsim.Engine.rng eng in
  let models =
    [
      Netsim.Latency.Constant (Span.of_us 10);
      Netsim.Latency.Uniform { lo = Span.of_us 1; hi = Span.of_us 50 };
      Netsim.Latency.Gaussian { mu = Span.of_us 20; sigma = Span.of_us 30 };
      Netsim.Latency.calibrated ~wire:Netsim.Latency.default_wire;
    ]
  in
  List.iter
    (fun m ->
      for _ = 1 to 500 do
        let l = Netsim.Latency.sample rng m in
        if Span.(l < Span.of_us 1) then Alcotest.fail "latency below floor"
      done)
    models

let test_calibrated_peak_near_wire () =
  let eng = Dsim.Engine.create ~seed:9L () in
  let rng = Dsim.Engine.rng eng in
  let model = Netsim.Latency.calibrated ~wire:(Span.of_us 51) in
  let h = Stats.Histogram.create ~bin_width:4. () in
  for _ = 1 to 20_000 do
    Stats.Histogram.add h
      (float_of_int (Span.to_us (Netsim.Latency.sample rng model)))
  done;
  let peak = Stats.Histogram.bin_mid h (Stats.Histogram.mode_bin h) in
  check bool "peak density near 51us" true (peak > 40. && peak < 62.)

let prop_broadcast_reaches_all_connected =
  QCheck.Test.make ~count:50 ~name:"broadcast reaches every attached node"
    QCheck.(int_range 2 20)
    (fun nodes ->
      let eng = Dsim.Engine.create () in
      let net =
        Net.create eng
          { Net.latency = Netsim.Latency.Constant (Span.of_us 1); loss = 0. }
      in
      let got = Array.make nodes 0 in
      for i = 0 to nodes - 1 do
        Net.attach net (n i) (fun ~src:_ _ -> got.(i) <- got.(i) + 1)
      done;
      Net.broadcast net ~src:(n 0) ();
      Dsim.Engine.run eng;
      got.(0) = 0
      && Array.for_all (( = ) 1) (Array.sub got 1 (nodes - 1)))

(* Packet records: the network's sends, deliveries and drops reach the
   engine's sink as flight-recorder records (kind, µs, node, a, b). *)

let recorded_net ?capacity eng us =
  let net = constant_net eng us in
  let r = Obs.Recorder.create ?capacity () in
  let s = Obs.Sink.create () in
  Obs.Sink.set_recorder s (Some r);
  Dsim.Engine.set_obs eng s;
  (net, r)

let records r =
  let acc = ref [] in
  Obs.Recorder.iter r (fun ~kind ~ts_us ~node ~a ~b ->
      acc := { Obs.Postmortem.kind; ts_us; node; a; b } :: !acc);
  List.rev !acc

let of_kind k = List.filter (fun (e : Obs.Postmortem.record) -> e.kind = k)

(* One broadcast per listed µs instant from node 0, the only attached
   node: each leaves exactly one send record, stamped with its instant. *)
let broadcasts_at eng net times =
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  List.iter
    (fun us ->
      Dsim.Engine.schedule_at eng (Time.of_us us) (fun () ->
          Net.broadcast net ~src:(n 0) us))
    times;
  Dsim.Engine.run eng

let stamps r = List.map (fun (e : Obs.Postmortem.record) -> e.ts_us) (records r)

let test_trace_records_events () =
  let eng = Dsim.Engine.create () in
  let net, r = recorded_net eng 5 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> ());
  Net.send net ~src:(n 0) ~dst:(n 1) "x";
  Net.broadcast net ~src:(n 1) "y";
  Dsim.Engine.run eng;
  let es = records r in
  (* 2 sends + 2 deliveries *)
  check int "events recorded" 4 (List.length es);
  let sends = of_kind Obs.Recorder.k_send es in
  check int "two sends" 2 (List.length sends);
  check (Alcotest.list int) "send destinations (-1 = broadcast)" [ 1; -1 ]
    (List.map (fun (e : Obs.Postmortem.record) -> e.a) sends);
  check bool "timestamps ordered" true
    (let rec mono = function
       | (a : Obs.Postmortem.record) :: (b :: _ as rest) ->
           a.ts_us <= b.ts_us && mono rest
       | [ _ ] | [] -> true
     in
     mono es)

let test_trace_records_drops () =
  let eng = Dsim.Engine.create () in
  let net, r = recorded_net eng 5 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> ());
  Net.partition net [ [ n 0 ]; [ n 1 ] ];
  Net.send net ~src:(n 0) ~dst:(n 1) "x";
  Dsim.Engine.run eng;
  let dropped =
    List.filter
      (fun (e : Obs.Postmortem.record) ->
        Obs.Recorder.drop_reason_name e.b = "partitioned")
      (of_kind Obs.Recorder.k_drop (records r))
  in
  check int "partition drop recorded" 1 (List.length dropped)

let test_trace_ring_buffer_bounded () =
  let eng = Dsim.Engine.create () in
  let net, r = recorded_net ~capacity:8 eng 5 in
  broadcasts_at eng net (List.init 20 (fun i -> i + 1));
  check int "bounded" 8 (Obs.Recorder.length r);
  check int "total counted" 20 (Obs.Recorder.total r);
  (match stamps r with
  | first :: _ -> check int "oldest kept is 13" 13 first
  | [] -> Alcotest.fail "empty");
  Obs.Recorder.clear r;
  check int "cleared" 0 (Obs.Recorder.length r)

let test_trace_eviction_order () =
  (* exactly the last [capacity] packets survive, oldest first, and the
     window keeps sliding as more packets go out *)
  let eng = Dsim.Engine.create () in
  let net, r = recorded_net ~capacity:4 eng 5 in
  broadcasts_at eng net [ 1; 2; 3; 4 ];
  check int "at capacity" 4 (Obs.Recorder.length r);
  check (Alcotest.list int) "nothing evicted yet" [ 1; 2; 3; 4 ] (stamps r);
  Dsim.Engine.schedule_at eng (Time.of_us 5) (fun () ->
      Net.broadcast net ~src:(n 0) 5);
  Dsim.Engine.run eng;
  check (Alcotest.list int) "oldest evicted first" [ 2; 3; 4; 5 ] (stamps r);
  check int "length pinned at capacity" 4 (Obs.Recorder.length r);
  check int "total keeps counting" 5 (Obs.Recorder.total r)

let test_trace_clear_then_reuse () =
  (* clear resets both the window and the total, and the window is fully
     usable afterwards — including wrapping around again *)
  let eng = Dsim.Engine.create () in
  let net, r = recorded_net ~capacity:3 eng 5 in
  broadcasts_at eng net (List.init 7 (fun i -> i + 1));
  Obs.Recorder.clear r;
  check int "length reset" 0 (Obs.Recorder.length r);
  check int "total reset" 0 (Obs.Recorder.total r);
  check bool "entries empty" true (records r = []);
  List.iter
    (fun us ->
      Dsim.Engine.schedule_at eng (Time.of_us us) (fun () ->
          Net.broadcast net ~src:(n 0) us))
    [ 10; 11; 12; 13; 14 ];
  Dsim.Engine.run eng;
  check int "refilled past capacity" 3 (Obs.Recorder.length r);
  check int "total restarts from zero" 5 (Obs.Recorder.total r);
  match stamps r with
  | first :: _ -> check int "window slid after reuse" 12 first
  | [] -> Alcotest.fail "empty after refill"

let suites =
  [
    ( "netsim",
      [
        Alcotest.test_case "unicast" `Quick test_unicast_delivery;
        Alcotest.test_case "broadcast" `Quick test_broadcast_excludes_sender;
        Alcotest.test_case "loopback" `Quick test_loopback_unicast_allowed;
        Alcotest.test_case "broadcast_many order" `Quick
          test_broadcast_many_order_and_count;
        Alcotest.test_case "broadcast_many = broadcasts" `Quick
          test_broadcast_many_matches_broadcasts;
        Alcotest.test_case "broadcast_many partition" `Quick
          test_broadcast_many_respects_partition;
        Alcotest.test_case "broadcast_many loss" `Quick
          test_broadcast_many_loss_per_message;
        Alcotest.test_case "detach" `Quick test_detach_drops_in_flight;
        Alcotest.test_case "partition" `Quick
          test_partition_blocks_cross_traffic;
        Alcotest.test_case "loss" `Quick test_loss_drops_packets;
        Alcotest.test_case "stats" `Quick test_stats_counters;
        Alcotest.test_case "double attach" `Quick test_double_attach_rejected;
        Alcotest.test_case "attach/detach/attach keeps order" `Quick
          test_attach_detach_attach_sorted;
        Alcotest.test_case "partition mask survives churn" `Quick
          test_partition_mask_after_churn;
        Alcotest.test_case "send_tracked outcomes" `Quick
          test_send_tracked_outcomes;
        Alcotest.test_case "send_tracked_after delay" `Quick
          test_send_tracked_after_delay;
        Alcotest.test_case "latency positive" `Quick
          test_latency_models_positive;
        Alcotest.test_case "calibrated peak" `Quick
          test_calibrated_peak_near_wire;
        QCheck_alcotest.to_alcotest prop_broadcast_reaches_all_connected;
      ] );
    ( "netsim.trace",
      [
        Alcotest.test_case "records events" `Quick test_trace_records_events;
        Alcotest.test_case "records drops" `Quick test_trace_records_drops;
        Alcotest.test_case "ring buffer" `Quick test_trace_ring_buffer_bounded;
        Alcotest.test_case "eviction order" `Quick test_trace_eviction_order;
        Alcotest.test_case "clear then reuse" `Quick
          test_trace_clear_then_reuse;
      ] );
  ]
