(* Further Totem tests: the message store, flow control, token
   retransmission, garbage collection, large rings, and wire pretty
   printers. *)

module Time = Dsim.Time
module Span = Dsim.Time.Span
module Nid = Netsim.Node_id

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let n = Nid.of_int

(* ------------------------------------------------------------------ *)
(* Store *)

let ring = Totem.Ring_id.make ~rep:(n 0) ~gen:1

let msg seq : string Totem.Wire.regular =
  { ring; seq; sender = n 0; payload = Printf.sprintf "m%d" seq }

let test_store_contiguous_aru () =
  let s = Totem.Store.create () in
  check int "empty aru" 0 (Totem.Store.aru s);
  check bool "add 1" true (Totem.Store.add s (msg 1));
  check bool "add 3" true (Totem.Store.add s (msg 3));
  check int "aru stops at gap" 1 (Totem.Store.aru s);
  check bool "add 2 fills gap" true (Totem.Store.add s (msg 2));
  check int "aru jumps" 3 (Totem.Store.aru s);
  check int "high" 3 (Totem.Store.high_seq s)

let test_store_duplicate_detection () =
  let s = Totem.Store.create () in
  check bool "first" true (Totem.Store.add s (msg 5));
  check bool "duplicate" false (Totem.Store.add s (msg 5))

let test_store_delivery_cursor () =
  let s = Totem.Store.create () in
  List.iter (fun k -> ignore (Totem.Store.add s (msg k))) [ 1; 2; 4 ];
  (match Totem.Store.next_to_deliver s with
  | Some m -> check int "next is 1" 1 m.Totem.Wire.seq
  | None -> Alcotest.fail "expected a deliverable message");
  Totem.Store.set_delivered s 2;
  check bool "gap blocks delivery" true (Totem.Store.next_to_deliver s = None);
  Alcotest.check_raises "cursor cannot go back"
    (Invalid_argument "Store.set_delivered: going backwards") (fun () ->
      Totem.Store.set_delivered s 1)

let test_store_missing_and_held () =
  let s = Totem.Store.create () in
  List.iter (fun k -> ignore (Totem.Store.add s (msg k))) [ 1; 3; 5 ];
  check (Alcotest.list int) "missing" [ 2; 4; 6 ]
    (Totem.Store.missing_up_to s 6);
  check (Alcotest.list int) "held" [ 1; 3; 5 ]
    (Totem.Store.held_in s ~lo:1 ~hi:6);
  check (Alcotest.list int) "held window" [ 3 ]
    (Totem.Store.held_in s ~lo:2 ~hi:4)

let test_store_gc () =
  let s = Totem.Store.create () in
  for k = 1 to 10 do
    ignore (Totem.Store.add s (msg k))
  done;
  Totem.Store.set_delivered s 10;
  Totem.Store.gc s ~upto:7;
  check bool "gc'd seqs count as present" true (Totem.Store.has s 3);
  check bool "gc'd seqs not retrievable" true (Totem.Store.find s 3 = None);
  check bool "kept seqs retrievable" true (Totem.Store.find s 8 <> None);
  (* re-adding below the floor is a duplicate *)
  check bool "below floor duplicate" false (Totem.Store.add s (msg 3))

let prop_store_aru_is_contiguous_prefix =
  QCheck.Test.make ~count:200 ~name:"store aru = longest contiguous prefix"
    QCheck.(list_of_size (Gen.int_range 0 30) (int_range 1 40))
    (fun seqs ->
      let s = Totem.Store.create () in
      List.iter (fun k -> ignore (Totem.Store.add s (msg k))) seqs;
      let present k = List.mem k seqs in
      let rec expected k = if present (k + 1) then expected (k + 1) else k in
      Totem.Store.aru s = expected 0)

(* ------------------------------------------------------------------ *)
(* Node sets, against Netsim.Node_id.Set *)

module NS = Totem.Nodeset
module Ref = Nid.Set

let max_id = 1100

(* Every id on a word boundary (the first and last bit of each 32-id
   word) up to [max_id]. *)
let boundary_ids =
  List.filter
    (fun i -> i <= max_id)
    (List.concat_map (fun w -> [ 32 * w; (32 * w) + 31 ]) (List.init 35 Fun.id))

let gen_id =
  QCheck.Gen.(
    frequency
      [ (1, int_range 0 max_id); (1, oneofl boundary_ids) ]
    >|= n)

(* Ids are added one by one in the generated order, so spans grow
   downwards as well as upwards. *)
let build ids =
  let s = NS.create () in
  List.iter (NS.add s) ids;
  s

let ref_of ids = Ref.of_list ids
let ints s = List.map Nid.to_int s

let arb_sets =
  let open QCheck in
  let ids = Gen.list_size (Gen.int_range 0 40) gen_id in
  make
    ~print:(fun (a, b, c, me, sup) ->
      let l xs = String.concat "," (List.map string_of_int (ints xs)) in
      Printf.sprintf "a=[%s] b=[%s] c=[%s] me=%d b_covers_a=%b" (l a) (l b)
        (l c) (Nid.to_int me) sup)
    Gen.(
      map
        (fun ((a, b, c), (me, (sup, mine))) ->
          (* [me] is often in [a], and half the time [b] contains all of [a]
             but [me], so the subset tests take both outcomes *)
          let me = match a with x :: _ when mine -> x | _ -> me in
          let b =
            if sup then List.filter (fun x -> not (Nid.equal x me)) a @ b
            else b
          in
          (a, b, c, me, sup))
        (pair (triple ids ids ids) (pair gen_id (pair bool bool))))

let same name xs ys =
  if ints xs <> ints ys then
    QCheck.Test.fail_reportf "%s: [%s] <> [%s]" name
      (String.concat "," (List.map string_of_int (ints xs)))
      (String.concat "," (List.map string_of_int (ints ys)))
  else true

let prop_nodeset_matches_set =
  QCheck.Test.make ~count:500 ~name:"nodeset agrees with Node_id.Set"
    arb_sets (fun (a, b, c, me, _) ->
      let sa = build a and sb = NS.of_list b and sc = build c in
      let ra = ref_of a and rb = ref_of b and rc = ref_of c in
      let all_ids = List.init (max_id + 1) n in
      List.for_all (fun i -> NS.mem sa i = Ref.mem i ra) all_ids
      && NS.cardinal sa = Ref.cardinal ra
      && NS.is_empty sa = Ref.is_empty ra
      && NS.subset sa sb = Ref.subset ra rb
      && NS.subset_except me sa sb = Ref.subset (Ref.remove me ra) rb
      && NS.diff_subset sb sa sc = Ref.subset (Ref.diff rb ra) rc
      && same "elements" (NS.elements sa) (Ref.elements ra)
      && same "fold" (NS.fold List.cons sa []) (Ref.fold List.cons ra [])
      && same "diff" (NS.elements (NS.diff sa sb))
           (Ref.elements (Ref.diff ra rb))
      && (match NS.min_elt sa with
         | m -> Nid.equal m (Ref.min_elt ra)
         | exception Not_found -> Ref.is_empty ra)
      &&
      let u = NS.copy sa and snap = NS.snapshot sa in
      NS.union_into u sb;
      NS.union_into u (NS.snapshot sc);
      NS.remove u me;
      same "union" (NS.elements u)
        (Ref.elements (Ref.remove me (Ref.union ra (Ref.union rb rc))))
      && same "snapshot untouched" (NS.elements snap) (Ref.elements ra)
      &&
      (NS.clear u;
       NS.is_empty u && NS.cardinal u = 0))

(* The gather's agreement scan: a sender agrees when its stored sets have
   our cardinalities and do not fail us, and consensus needs every live
   candidate (proc \ fail) to agree.  Clearing [agree] when our sets grow,
   as [on_join] does, must give the verdict of comparing every stored join
   with our sets.  A join from [p] is one of: our own sets (kind 0), a
   stale subset of them (1), our sets plus [q] as a candidate (2), or our
   sets plus [q] as failed (3; [q] may be us). *)
let prop_nodeset_agreement_scan =
  QCheck.Test.make ~count:300 ~name:"nodeset agreement scan = set comparison"
    QCheck.(
      make
        Gen.(
          pair
            (list_size (int_range 1 30) gen_id)
            (list_size (int_range 0 60)
               (triple gen_id (int_range 0 3) gen_id))))
    (fun (proc0, joins) ->
      let me = List.hd proc0 in
      let proc = NS.of_list proc0 and fail = NS.create () in
      let agree = NS.create () and stored = Hashtbl.create 8 in
      let rproc = ref (ref_of proc0) and rfail = ref Ref.empty in
      List.for_all
        (fun (p, kind, q) ->
          let jp, jf =
            if Nid.equal p me then (!rproc, !rfail)
            else
              match kind with
              | 0 -> (Ref.add p !rproc, !rfail)
              | 1 ->
                  let even i = Nid.to_int i mod 2 = 0 in
                  (Ref.add p (Ref.filter even !rproc), Ref.empty)
              | 2 -> (Ref.add q (Ref.add p !rproc), !rfail)
              | _ -> (Ref.add p !rproc, Ref.add q !rfail)
          in
          (* a sender's failed nodes are among its candidates *)
          let jp = Ref.union jp jf in
          let sjp = NS.snapshot (NS.of_list (Ref.elements jp))
          and sjf = NS.snapshot (NS.of_list (Ref.elements jf)) in
          if
            (not (NS.subset sjp proc)) || not (NS.subset_except me sjf fail)
          then begin
            NS.union_into proc sjp;
            NS.union_into fail sjf;
            NS.remove fail me;
            NS.clear agree
          end;
          rproc := Ref.union !rproc jp;
          rfail := Ref.remove me (Ref.union !rfail jf);
          Hashtbl.replace stored (Nid.to_int p) (jp, jf);
          if
            NS.cardinal sjp = NS.cardinal proc
            && (not (NS.mem sjf me))
            && NS.cardinal sjf = NS.cardinal fail
          then NS.add agree p
          else NS.remove agree p;
          let compared =
            Ref.for_all
              (fun r ->
                match Hashtbl.find_opt stored (Nid.to_int r) with
                | Some (rp, rf) -> Ref.equal rp !rproc && Ref.equal rf !rfail
                | None -> false)
              (Ref.diff !rproc !rfail)
          in
          same "proc" (NS.elements proc) (Ref.elements !rproc)
          && same "fail" (NS.elements fail) (Ref.elements !rfail)
          && NS.diff_subset proc fail agree = compared)
        joins)

let test_nodeset_word_boundaries () =
  let all = NS.of_list (List.init (max_id + 1) n) in
  check int "cardinal of 0..max" (max_id + 1) (NS.cardinal all);
  List.iter
    (fun i ->
      let s = NS.singleton (n i) in
      check int (Printf.sprintf "min_elt {%d}" i) i (Nid.to_int (NS.min_elt s));
      check int (Printf.sprintf "cardinal {%d}" i) 1 (NS.cardinal s);
      check bool (Printf.sprintf "{%d} subset all" i) true (NS.subset s all);
      check bool
        (Printf.sprintf "all \\ {%d} subset except %d" i i)
        true
        (NS.subset_except (n i) all (NS.diff all s));
      NS.remove s (n i);
      check bool (Printf.sprintf "{%d} emptied" i) true (NS.is_empty s))
    boundary_ids;
  let t = NS.Table.create () in
  List.iter (fun i -> NS.Table.set t (n i) i) (List.rev boundary_ids);
  for i = 0 to max_id do
    check bool (Printf.sprintf "table mem %d" i) (List.mem i boundary_ids)
      (NS.Table.mem t (n i))
  done;
  List.iter
    (fun i -> check int (Printf.sprintf "table %d" i) i (NS.Table.find t (n i)))
    boundary_ids

(* ------------------------------------------------------------------ *)
(* Protocol-level *)

type harness = {
  eng : Dsim.Engine.t;
  net : string Totem.Wire.t Netsim.Network.t;
  nodes : string Totem.Node.t array;
  delivered : string list ref array;
}

let make ?(seed = 1L) ?(loss = 0.) ?config count =
  let eng = Dsim.Engine.create ~seed () in
  let net =
    Netsim.Network.create eng
      {
        Netsim.Network.latency = Netsim.Latency.Constant (Span.of_us 26);
        loss;
      }
  in
  let delivered = Array.init count (fun _ -> ref []) in
  let nodes =
    Array.init count (fun i ->
        Totem.Node.create eng net ~me:(n i) ?config
          ~handler:(fun ev ->
            match ev with
            | Totem.Node.Deliver { payload; _ } ->
                delivered.(i) := payload :: !(delivered.(i))
            | Totem.Node.View _ | Totem.Node.Blocked -> ())
          ())
  in
  Array.iter Totem.Node.start nodes;
  Dsim.Engine.run ~until:(Time.of_ms 50) eng;
  { eng; net; nodes; delivered }

let run_for h ms =
  Dsim.Engine.run ~until:(Time.add (Dsim.Engine.now h.eng) (Span.of_ms ms))
    h.eng

let test_flow_control_caps_per_visit () =
  let config =
    { Totem.Config.default with max_msgs_per_visit = 5; window = 100 }
  in
  let h = make ~config 3 in
  (* queue far more than one visit's budget *)
  for k = 1 to 23 do
    Totem.Node.multicast h.nodes.(0) (string_of_int k)
  done;
  check int "queued" 23 (Totem.Node.pending h.nodes.(0));
  run_for h 100;
  check int "all delivered eventually" 23
    (List.length !(h.delivered.(1)));
  (* FIFO preserved under batching *)
  check
    (Alcotest.list Alcotest.string)
    "order preserved"
    (List.init 23 (fun i -> string_of_int (i + 1)))
    (List.rev !(h.delivered.(1)))

let test_token_retransmit_survives_single_loss () =
  (* 1 in 50 packets lost: single token losses are healed by the token
     retransmission timer without a membership change *)
  let h = make ~seed:3L ~loss:0.02 4 in
  let views_before =
    (Totem.Node.stats h.nodes.(0)).Totem.Node.views_installed
  in
  for k = 1 to 30 do
    Totem.Node.multicast h.nodes.(k mod 4) (string_of_int k)
  done;
  run_for h 200;
  check int "all delivered" 30 (List.length !(h.delivered.(0)));
  let views_after =
    (Totem.Node.stats h.nodes.(0)).Totem.Node.views_installed
  in
  check bool "few membership changes despite loss" true
    (views_after - views_before <= 2)

let test_large_ring () =
  let h = make 8 in
  for i = 0 to 7 do
    Totem.Node.multicast h.nodes.(i) (Printf.sprintf "from%d" i)
  done;
  run_for h 100;
  let d0 = List.rev !(h.delivered.(0)) in
  check int "eight messages" 8 (List.length d0);
  for i = 1 to 7 do
    check
      (Alcotest.list Alcotest.string)
      "same order on the big ring" d0
      (List.rev !(h.delivered.(i)))
  done

let test_store_gc_happens_on_ring () =
  (* after sustained traffic and token rotations, early messages are
     garbage-collected from the stores (we can only observe indirectly:
     memory-safe long runs and correct delivery) *)
  let h = make 3 in
  for batch = 0 to 19 do
    for k = 0 to 9 do
      Totem.Node.multicast h.nodes.(k mod 3)
        (Printf.sprintf "b%d.%d" batch k)
    done;
    run_for h 5
  done;
  run_for h 50;
  check int "200 delivered" 200 (List.length !(h.delivered.(2)))

let delivery_time_of_first_message config =
  let eng = Dsim.Engine.create ~seed:21L () in
  let net =
    Netsim.Network.create eng
      {
        Netsim.Network.latency = Netsim.Latency.Constant (Span.of_us 26);
        loss = 0.;
      }
  in
  let when_delivered = ref None in
  let nodes =
    Array.init 4 (fun i ->
        Totem.Node.create eng net ~me:(n i) ~config
          ~handler:(fun ev ->
            match ev with
            | Totem.Node.Deliver { payload; _ } ->
                if i = 2 && payload = "probe" && !when_delivered = None then
                  when_delivered := Some (Dsim.Engine.now eng)
            | Totem.Node.View _ | Totem.Node.Blocked -> ())
          ())
  in
  Array.iter Totem.Node.start nodes;
  Dsim.Engine.run ~until:(Time.of_ms 50) eng;
  Totem.Node.multicast nodes.(0) "probe";
  Dsim.Engine.run ~until:(Time.of_ms 80) eng;
  Option.get !when_delivered

let test_safe_delivery_orders_and_lags () =
  let agreed =
    delivery_time_of_first_message
      { Totem.Config.default with delivery = Totem.Config.Agreed }
  in
  let safe =
    delivery_time_of_first_message
      { Totem.Config.default with delivery = Totem.Config.Safe }
  in
  (* safe delivery withholds the message until the token proves stability:
     at least one extra rotation (~200 us on this ring) *)
  check bool "safe delivery is later" true
    Span.(Time.diff safe agreed > Span.of_us 150)

let test_safe_delivery_total_order () =
  let config = { Totem.Config.default with delivery = Totem.Config.Safe } in
  let h = make ~config 4 in
  for k = 1 to 20 do
    Totem.Node.multicast h.nodes.(k mod 4) (string_of_int k)
  done;
  run_for h 200;
  let d0 = List.rev !(h.delivered.(0)) in
  check int "all delivered under safe mode" 20 (List.length d0);
  for i = 1 to 3 do
    check
      (Alcotest.list Alcotest.string)
      "same order" d0
      (List.rev !(h.delivered.(i)))
  done

let test_wire_pp_smoke () =
  let show m = Format.asprintf "%a" Totem.Wire.pp m in
  let r : string Totem.Wire.t = Totem.Wire.Regular (msg 7) in
  check bool "regular" true
    (String.length (show r) > 0
    && String.length (show r) < 200);
  let tok : string Totem.Wire.t =
    Totem.Wire.Token
      {
        ring;
        token_seq = 3;
        seq = 9;
        aru = 7;
        aru_id = Some (n 1);
        rtr = [ 8 ];
        fcc = 2;
      }
  in
  check bool "token mentions seq" true
    (let s = show tok in
     String.length s > 0)

let test_ring_id_ordering () =
  let a = Totem.Ring_id.make ~rep:(n 0) ~gen:1 in
  let b = Totem.Ring_id.make ~rep:(n 1) ~gen:1 in
  let c = Totem.Ring_id.make ~rep:(n 0) ~gen:2 in
  check bool "gen dominates" true (Totem.Ring_id.compare a c < 0);
  check bool "rep breaks ties" true (Totem.Ring_id.compare a b < 0);
  check bool "equal" true (Totem.Ring_id.equal a a);
  check bool "distinct" false (Totem.Ring_id.equal a b)

(* The gather is linear in messages: a node announces set growth on its
   next join tick instead of re-flooding on every growth, so forming a
   ring of k costs a few broadcasts per member, each to k-1 peers —
   measured as [m-join] deliveries per shard while hierarchical clusters
   form.  Re-flooding on every growth costs k^2 (k-1) per shard. *)
let test_join_storm_is_linear () =
  List.iter
    (fun (shards, k) ->
      let sink = Obs.Sink.create () and attrib = Obs.Attrib.create () in
      Obs.Sink.set_attrib sink (Some attrib);
      let t =
        Scenario.Cluster_hier.create ~seed:1L ~obs:sink ~shards ~shard_size:k ()
      in
      Scenario.Cluster_hier.start_all t;
      let joins =
        List.fold_left
          (fun acc (r : Obs.Attrib.row) ->
            if r.sub = Obs.Subsystem.Totem && String.equal r.probe "m-join"
            then acc + r.calls
            else acc)
          0 (Obs.Attrib.report attrib)
      in
      let per_shard = joins / shards and bound = 4 * k * (k - 1) in
      check bool
        (Printf.sprintf "%dx%d: %d m-join calls per shard <= %d" shards k
           per_shard bound)
        true
        (joins > 0 && per_shard <= bound))
    [ (2, 32); (4, 16) ]

(* A node never reaches consensus on sets it has not announced.  Node 0
   comes up alone, then merges with scripted peers: peer 2's first join
   puts node 0 in a gather over {0, 2}, and joins from 1 and 2 for
   {0, 1, 2} arrive well before node 0's next join tick.  Both peers then
   agree with node 0's grown sets, but node 0's own stored join still
   says {0, 2}: the commit has to wait for the tick that announces
   {0, 1, 2}. *)
let test_no_consensus_on_unannounced_sets () =
  let eng = Dsim.Engine.create ~seed:1L () in
  let net : string Totem.Wire.t Netsim.Network.t =
    Netsim.Network.create eng
      {
        Netsim.Network.latency = Netsim.Latency.Constant (Span.of_us 26);
        loss = 0.;
      }
  in
  let node = Totem.Node.create eng net ~me:(n 0) ~handler:ignore () in
  let commit_at = ref None in
  Netsim.Network.attach net (n 1) (fun ~src:_ msg ->
      match msg with
      | Totem.Wire.Commit c when List.length c.members = 3 && !commit_at = None
        ->
          commit_at := Some (Dsim.Engine.now eng)
      | _ -> ());
  Netsim.Network.attach net (n 2) (fun ~src:_ _ -> ());
  let snap ids = NS.snapshot (NS.of_list (List.map n ids)) in
  let join from ids : string Totem.Wire.t =
    Totem.Wire.Join
      {
        j_sender = n from;
        proc_set = snap ids;
        fail_set = snap [];
        j_old = { old_ring = None; high_seq = 0; old_aru = 0 };
        max_gen = 0;
      }
  in
  Totem.Node.start node;
  Netsim.Network.send net ~src:(n 2) ~dst:(n 0) (join 2 [ 2 ]);
  Dsim.Engine.schedule eng (Span.of_us 100) (fun () ->
      Netsim.Network.send net ~src:(n 1) ~dst:(n 0) (join 1 [ 0; 1; 2 ]);
      Netsim.Network.send net ~src:(n 2) ~dst:(n 0) (join 2 [ 0; 1; 2 ]));
  Dsim.Engine.run ~until:(Time.of_ms 3) eng;
  match !commit_at with
  | None -> Alcotest.fail "node 0 never committed {0, 1, 2}"
  | Some at ->
      (* the gather began when peer 2's first join landed, at 26 us *)
      check bool
        (Printf.sprintf "committed at %d us, after the join tick at 1026 us"
           (Time.to_us at))
        true
        (Time.to_us at >= 1026)

(* Formation pinned value-for-value on rings whose id spans cross node-set
   word boundaries: 8 shards of 16 (ids 0-127) and 4 shards of 40 (every
   shard straddles a word).  The 4x4 golden table in test_hier only ever
   sees ids 0-15.  A change to the membership sets' representation must
   leave every number here unchanged: formation time (simulated), m-join
   deliveries, views installed summed over every Totem node, and the event
   queue's high-water mark. *)
let formation_pins =
  (* (shards, shard_size, formation_us, join_calls, totem_views, queue_hwm) *)
  [ (8, 16, 4685, 5760, 256, 10277); (4, 40, 11375, 26481, 440, 31900) ]

let test_multi_word_formation_pinned () =
  List.iter
    (fun (shards, k, formed_us, joins, views, hwm) ->
      let sink = Obs.Sink.create () and attrib = Obs.Attrib.create () in
      Obs.Sink.set_attrib sink (Some attrib);
      let t =
        Scenario.Cluster_hier.create ~seed:1L ~obs:sink ~shards ~shard_size:k ()
      in
      Scenario.Cluster_hier.start_all t;
      let name what = Printf.sprintf "%dx%d: %s" shards k what in
      check int (name "formation time (us)") formed_us
        (Time.to_us (Dsim.Engine.now t.eng));
      check int (name "m-join calls") joins
        (List.fold_left
           (fun acc (r : Obs.Attrib.row) ->
             if r.sub = Obs.Subsystem.Totem && String.equal r.probe "m-join"
             then acc + r.calls
             else acc)
           0 (Obs.Attrib.report attrib));
      check int (name "totem views") views
        (Array.fold_left
           (fun acc (r : Scenario.Cluster_hier.replica) ->
             acc
             + (Totem.Node.stats (Gcs.Endpoint.totem r.endpoint))
                 .views_installed)
           0 t.replicas);
      check int (name "queue high water") hwm
        (Dsim.Engine.queue_high_water t.eng))
    formation_pins

let prop_large_ring_total_order =
  QCheck.Test.make ~count:10 ~name:"total order holds for rings of 2..8"
    QCheck.(pair (int_range 2 8) (int_range 1 500))
    (fun (nodes, seed) ->
      let h = make ~seed:(Int64.of_int seed) nodes in
      for k = 1 to 12 do
        Totem.Node.multicast h.nodes.(k mod nodes) (string_of_int k)
      done;
      run_for h 200;
      let d0 = !(h.delivered.(0)) in
      List.length d0 = 12
      && Array.for_all (fun d -> !d = d0) h.delivered)

let suites =
  [
    ( "totem.store",
      [
        Alcotest.test_case "contiguous aru" `Quick test_store_contiguous_aru;
        Alcotest.test_case "duplicates" `Quick test_store_duplicate_detection;
        Alcotest.test_case "delivery cursor" `Quick test_store_delivery_cursor;
        Alcotest.test_case "missing/held" `Quick test_store_missing_and_held;
        Alcotest.test_case "gc" `Quick test_store_gc;
        QCheck_alcotest.to_alcotest prop_store_aru_is_contiguous_prefix;
      ] );
    ( "totem.nodeset",
      [
        QCheck_alcotest.to_alcotest prop_nodeset_matches_set;
        QCheck_alcotest.to_alcotest prop_nodeset_agreement_scan;
        Alcotest.test_case "word boundaries" `Quick
          test_nodeset_word_boundaries;
      ] );
    ( "totem.protocol",
      [
        Alcotest.test_case "flow control" `Quick
          test_flow_control_caps_per_visit;
        Alcotest.test_case "token retransmission" `Quick
          test_token_retransmit_survives_single_loss;
        Alcotest.test_case "large ring" `Quick test_large_ring;
        Alcotest.test_case "gc on ring" `Quick test_store_gc_happens_on_ring;
        Alcotest.test_case "safe delivery lags" `Quick
          test_safe_delivery_orders_and_lags;
        Alcotest.test_case "safe delivery order" `Quick
          test_safe_delivery_total_order;
        Alcotest.test_case "wire pp" `Quick test_wire_pp_smoke;
        Alcotest.test_case "ring id order" `Quick test_ring_id_ordering;
        Alcotest.test_case "join storm is linear" `Quick
          test_join_storm_is_linear;
        Alcotest.test_case "no consensus on unannounced sets" `Quick
          test_no_consensus_on_unannounced_sets;
        Alcotest.test_case "multi-word formation pinned" `Quick
          test_multi_word_formation_pinned;
        QCheck_alcotest.to_alcotest prop_large_ring_total_order;
      ] );
  ]
