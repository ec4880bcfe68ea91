type config = { latency : Latency.t; loss : float }

let default_config =
  { latency = Latency.calibrated ~wire:Latency.default_wire; loss = 0. }

type 'a port = { handler : src:Node_id.t -> 'a -> unit }

(* Pooled delivery cells.  Scheduling a packet used to allocate one
   closure per packet capturing (t, src, dst, payload); instead the
   fields are parked in a recycled cell and handed to the engine's
   zero-allocation [schedule_call] path together with a top-level fire
   function.  [d_next == cell] marks a cell in flight (off the free
   list); the per-network [nil_d] sentinel marks the empty list.

   [bcell] is the batched variant used by {!broadcast_many}: one cell
   carries every message bound for one destination at one delivery
   instant, so a Totem token visit that emits k messages costs one
   queued event per destination rather than k.  Payloads are kept as
   [Obj.t] so the growable buffer is a uniform array even when ['a]
   would be float (a flat float array could not be scrubbed with an
   immediate). *)
type 'a dcell = {
  d_net : 'a t;
  mutable d_src : Node_id.t;
  mutable d_dst : Node_id.t;
  mutable d_payload : 'a;
  mutable d_next : 'a dcell;
}

and 'a bcell = {
  b_net : 'a t;
  mutable b_src : Node_id.t;
  mutable b_dst : Node_id.t;
  mutable b_payloads : Obj.t array;
  mutable b_n : int;
  mutable b_time : Dsim.Time.t;
  mutable b_next : 'a bcell;
}

and 'a t = {
  eng : Dsim.Engine.t;
  rng : Dsim.Rng.t;
  mutable cfg : config;
  mutable ports : 'a port option array;
      (* indexed by node id — ids are small dense ints, so arrays beat
         hash tables on the per-packet lookup paths *)
  mutable members : Node_id.t array;
      (* attached nodes, sorted ascending in slots [0 .. n_members-1]
         (slots beyond are junk).  The sorted invariant is maintained
         incrementally — binary-search insert on attach, blit-out on
         detach — so a join costs one shift, not the former per-join
         [List.sort] of the whole membership *)
  mutable n_members : int;
  mutable group_mask : int array;
      (* partition as a per-node-id bitmask of group membership: a packet
         is deliverable iff the masks intersect.  Empty array = no
         partition; ids beyond the array (or with mask 0) are in no group
         and therefore isolated.  Rebuilt wholesale by [partition], read
         with one [land] per packet *)
  mutable group_sets : Node_id.Set.t list;
      (* overflow representation when a partition has more groups than
         mask bits — the legacy set-scan path; empty otherwise *)
  mutable sent : int array; (* per-node sent counter, indexed by id *)
  mutable delivered : int array;
  mutable last_delivery : int array array;
      (* per (src, dst) path: last delivery instant in ns ([-1] = never),
         FIFO ordering like a switched LAN.  Rows are created lazily per
         src and sized to the port table. *)
  mutable dropped : int;
  mutable delay_hook : (src:Node_id.t -> dst:Node_id.t -> Dsim.Time.Span.t) option;
  nil_d : 'a dcell;
  mutable free_d : 'a dcell;
  nil_b : 'a bcell;
  mutable free_b : 'a bcell;
}

let obj_zero = Obj.repr 0

(* Sentinels are never fired, so their net/src/dst slots are never read;
   an immediate 0 is a safe placeholder for any of them. *)
let make_nil_dcell () : 'a dcell =
  let rec c =
    {
      d_net = Obj.magic 0;
      d_src = Obj.magic 0;
      d_dst = Obj.magic 0;
      d_payload = Obj.magic 0;
      d_next = c;
    }
  in
  c

let make_nil_bcell () : 'a bcell =
  let rec c =
    {
      b_net = Obj.magic 0;
      b_src = Obj.magic 0;
      b_dst = Obj.magic 0;
      b_payloads = [||];
      b_n = 0;
      b_time = Dsim.Time.epoch;
      b_next = c;
    }
  in
  c

let create eng cfg =
  if cfg.loss < 0. || cfg.loss >= 1. then
    invalid_arg "Network.create: loss out of [0, 1)";
  let nil_d = make_nil_dcell () and nil_b = make_nil_bcell () in
  {
    eng;
    rng = Dsim.Rng.split (Dsim.Engine.rng eng);
    cfg;
    ports = [||];
    members = [||];
    n_members = 0;
    group_mask = [||];
    group_sets = [];
    sent = [||];
    delivered = [||];
    last_delivery = [||];
    dropped = 0;
    delay_hook = None;
    nil_d;
    free_d = nil_d;
    nil_b;
    free_b = nil_b;
  }

let rng t = t.rng

let grow_to len a fill =
  let n = Array.length a in
  if len <= n then a
  else begin
    let a' = Array.make (max len (2 * n)) fill in
    Array.blit a 0 a' 0 n;
    a'
  end

(* Make every per-node table cover node [id]. *)
let ensure_node t id =
  let i = Node_id.to_int id in
  if i >= Array.length t.ports then begin
    t.ports <- grow_to (i + 1) t.ports None;
    t.sent <- grow_to (i + 1) t.sent 0;
    t.delivered <- grow_to (i + 1) t.delivered 0
  end

let port_of t id =
  let i = Node_id.to_int id in
  if i < Array.length t.ports then Array.unsafe_get t.ports i else None

(* Index of the first live member >= [id] (so [n_members] when every
   member is smaller): the insertion slot for attach, the candidate slot
   for detach. *)
let member_slot t id =
  let lo = ref 0 and hi = ref t.n_members in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Node_id.compare (Array.unsafe_get t.members mid) id < 0 then
      lo := mid + 1
    else hi := mid
  done;
  !lo

let attach t id handler =
  ensure_node t id;
  if port_of t id <> None then
    invalid_arg
      (Format.asprintf "Network.attach: %a already attached" Node_id.pp id);
  t.ports.(Node_id.to_int id) <- Some { handler };
  let n = t.n_members in
  if n = Array.length t.members then begin
    let a = Array.make (if n = 0 then 8 else 2 * n) id in
    Array.blit t.members 0 a 0 n;
    t.members <- a
  end;
  let i = member_slot t id in
  Array.blit t.members i t.members (i + 1) (n - i);
  t.members.(i) <- id;
  t.n_members <- n + 1

let detach t id =
  let i = Node_id.to_int id in
  if i < Array.length t.ports then t.ports.(i) <- None;
  let s = member_slot t id in
  if s < t.n_members && Node_id.equal t.members.(s) id then begin
    Array.blit t.members (s + 1) t.members s (t.n_members - s - 1);
    t.n_members <- t.n_members - 1
  end

let attached t id = port_of t id <> None
let nodes t = List.init t.n_members (fun i -> t.members.(i))

(* Wall-time attribution sites (see [Obs.Attrib]): self time of packet
   delivery, including the receive handler unless that handler is itself
   an attributed region (then nesting subtracts it). *)
let at_deliver = Obs.Attrib.site ~sub:Obs.Subsystem.Netsim ~name:"deliver"

let at_deliver_batch =
  Obs.Attrib.site ~sub:Obs.Subsystem.Netsim ~name:"deliver-batch"

let at_bcast_many =
  Obs.Attrib.site ~sub:Obs.Subsystem.Netsim ~name:"broadcast-many"

(* Drop reasons carried in a [k_drop] record's [b] payload. *)
let loss = 0
let partitioned = 1
let no_port = 2

(* The one packet probe: gate inside, all ints, so a disabled call is
   the sink load plus one branch and an enabled one boxes nothing. *)
let probe t ~kind ~node ~a ~b =
  let s = Dsim.Engine.obs t.eng in
  if s.Obs.Sink.on then
    Obs.Sink.emit s ~kind
      ~ts_us:(Dsim.Time.to_ns (Dsim.Engine.now t.eng) / 1000)
      ~node ~a ~b
[@@inline] [@@ctslint.hotpath]

(* [dst] is [-1] for a broadcast. *)
let probe_sent t ~src ~dst =
  probe t ~kind:Obs.Recorder.k_send ~node:(Node_id.to_int src) ~a:dst ~b:0
[@@inline] [@@ctslint.hotpath]

(* [pos] tags a batched delivery with its position inside the batch (-1
   = unbatched), so every message a batch absorbs gets a record of its
   own and per-message accounting stays exact. *)
let probe_delivered t ~src ~dst ~pos =
  probe t ~kind:Obs.Recorder.k_deliver ~node:(Node_id.to_int dst)
    ~a:(Node_id.to_int src) ~b:pos
[@@inline] [@@ctslint.hotpath]

let probe_dropped t ~src ~dst ~reason =
  probe t ~kind:Obs.Recorder.k_drop ~node:(Node_id.to_int dst)
    ~a:(Node_id.to_int src) ~b:reason
[@@inline] [@@ctslint.hotpath]

let bump_sent t id =
  ensure_node t id;
  let i = Node_id.to_int id in
  t.sent.(i) <- t.sent.(i) + 1

(* Only called once [port_of] found the destination, so [id] is in range. *)
let bump_delivered t id =
  let i = Node_id.to_int id in
  Array.unsafe_set t.delivered i (Array.unsafe_get t.delivered i + 1)

let reachable t ~src ~dst =
  match t.group_sets with
  | _ :: _ as groups ->
      List.exists
        (fun g -> Node_id.Set.mem src g && Node_id.Set.mem dst g)
        groups
  | [] ->
      let m = t.group_mask in
      let len = Array.length m in
      len = 0
      ||
      let i = Node_id.to_int src and j = Node_id.to_int dst in
      i < len && j < len
      && Array.unsafe_get m i land Array.unsafe_get m j <> 0

(* The FIFO row for [src], sized to the port table; cells hold the last
   delivery instant in ns, [-1] when the path is untouched. *)
let paths_from t src =
  let i = Node_id.to_int src in
  if i >= Array.length t.last_delivery then
    t.last_delivery <- grow_to (i + 1) t.last_delivery [||];
  let row = t.last_delivery.(i) in
  let want = Array.length t.ports in
  if Array.length row < want then begin
    let row = grow_to want row (-1) in
    t.last_delivery.(i) <- row;
    row
  end
  else row

let path_prev (row : int array) dst =
  let j = Node_id.to_int dst in
  if j < Array.length row then Array.unsafe_get row j else -1

let path_set (row : int array) dst ns =
  Array.unsafe_set row (Node_id.to_int dst) ns

let acquire_dcell t ~src ~dst payload =
  let c = t.free_d in
  let c =
    if
      (c != t.nil_d)
      [@ctslint.allow
        "phys-equality"
          "pooled nil sentinel: cell identity marks the empty free list"]
    then begin
      t.free_d <- c.d_next;
      c.d_next <- c;
      c
    end
    else
      let rec fresh =
        {
          d_net = t;
          d_src = src;
          d_dst = dst;
          d_payload = payload;
          d_next = fresh;
        }
      in
      fresh
  in
  c.d_src <- src;
  c.d_dst <- dst;
  c.d_payload <- payload;
  c

(* Fires as a pooled engine call: deliver one packet, then recycle the
   cell.  The payload is scrubbed and the cell released {e before} the
   handler runs so a handler that immediately sends can reuse it. *)
let dcell_fire (c : 'a dcell) =
  let t = c.d_net in
  let src = c.d_src and dst = c.d_dst and payload = c.d_payload in
  c.d_payload <- Obj.magic 0;
  c.d_next <- t.free_d;
  t.free_d <- c;
  let s = Dsim.Engine.obs t.eng in
  Obs.Sink.attr_enter s at_deliver;
  (* The destination may have crashed while the packet was in flight. *)
  (match port_of t dst with
  | None ->
      t.dropped <- t.dropped + 1;
      probe_dropped t ~src ~dst ~reason:no_port
  | Some port ->
      bump_delivered t dst;
      probe_delivered t ~src ~dst ~pos:(-1);
      port.handler ~src payload);
  Obs.Sink.attr_leave s

let deliver_extra t ~extra ~src ~dst payload =
  if reachable t ~src ~dst then
    if t.cfg.loss > 0. && Dsim.Rng.float t.rng 1.0 < t.cfg.loss then begin
      t.dropped <- t.dropped + 1;
      probe_dropped t ~src ~dst ~reason:loss;
      false
    end
    else begin
      let lat = Dsim.Time.Span.add extra (Latency.sample t.rng t.cfg.latency) in
      (* Controller-directed extra delay (schedule exploration) is added
         before the FIFO bump below, so the per-path ordering guarantee
         holds even for perturbed packets. *)
      let lat =
        match t.delay_hook with
        | Some hook -> Dsim.Time.Span.add lat (hook ~src ~dst)
        | None -> lat
      in
      let at = Dsim.Time.add (Dsim.Engine.now t.eng) lat in
      ensure_node t dst;
      let row = paths_from t src in
      let prev = path_prev row dst in
      let at_ns =
        let ns = Dsim.Time.to_ns at in
        if ns <= prev then prev + 1 else ns
      in
      path_set row dst at_ns;
      Dsim.Engine.schedule_call_at t.eng (Dsim.Time.of_ns at_ns) dcell_fire
        (acquire_dcell t ~src ~dst payload);
      true
    end
  else begin
    t.dropped <- t.dropped + 1;
    probe_dropped t ~src ~dst ~reason:partitioned;
    false
  end

let deliver t ~src ~dst payload =
  deliver_extra t ~extra:Dsim.Time.Span.zero ~src ~dst payload

let send_tracked t ~src ~dst payload =
  bump_sent t src;
  probe_sent t ~src ~dst:(Node_id.to_int dst);
  deliver t ~src ~dst payload

let send_tracked_after t ~delay ~src ~dst payload =
  bump_sent t src;
  probe_sent t ~src ~dst:(Node_id.to_int dst);
  deliver_extra t ~extra:delay ~src ~dst payload

let send t ~src ~dst payload =
  ignore (send_tracked t ~src ~dst payload : bool)

let broadcast t ~src payload =
  bump_sent t src;
  probe_sent t ~src ~dst:(-1);
  for i = 0 to t.n_members - 1 do
    let dst = Array.unsafe_get t.members i in
    if not (Node_id.equal dst src) then
      ignore (deliver t ~src ~dst payload : bool)
  done

let acquire_bcell t ~src ~dst ~at =
  let b = t.free_b in
  let b =
    if
      (b != t.nil_b)
      [@ctslint.allow
        "phys-equality"
          "pooled nil sentinel: cell identity marks the empty free list"]
    then begin
      t.free_b <- b.b_next;
      b.b_next <- b;
      b
    end
    else
      let rec fresh =
        {
          b_net = t;
          b_src = src;
          b_dst = dst;
          b_payloads = Array.make 8 obj_zero;
          b_n = 0;
          b_time = at;
          b_next = fresh;
        }
      in
      fresh
  in
  b.b_src <- src;
  b.b_dst <- dst;
  b.b_time <- at;
  b

let bcell_append b payload =
  let cap = Array.length b.b_payloads in
  if b.b_n = cap then begin
    let a = Array.make (if cap = 0 then 8 else 2 * cap) obj_zero in
    Array.blit b.b_payloads 0 a 0 b.b_n;
    b.b_payloads <- a
  end;
  Array.unsafe_set b.b_payloads b.b_n (Obj.repr payload);
  b.b_n <- b.b_n + 1

(* Deliver the whole batch in append order.  The port is re-checked per
   message because a handler may detach the destination mid-batch; the
   cell is recycled only after the loop — while in flight it is off the
   free list, so reentrant broadcasts from handlers cannot corrupt it. *)
let bcell_fire (b : 'a bcell) =
  let t = b.b_net in
  let src = b.b_src and dst = b.b_dst in
  let n = b.b_n in
  let s = Dsim.Engine.obs t.eng in
  Obs.Sink.attr_enter s at_deliver_batch;
  for i = 0 to n - 1 do
    let payload : 'a = Obj.obj (Array.unsafe_get b.b_payloads i) in
    (* Re-checked per message, and recorded per message: a handler that
       detaches the destination mid-batch turns exactly the remaining
       messages into [No_port] drops, each with its own record. *)
    match port_of t dst with
    | None ->
        t.dropped <- t.dropped + 1;
        probe_dropped t ~src ~dst ~reason:no_port
    | Some port ->
        bump_delivered t dst;
        probe_delivered t ~src ~dst ~pos:i;
        port.handler ~src payload
  done;
  for i = 0 to n - 1 do
    Array.unsafe_set b.b_payloads i obj_zero
  done;
  b.b_n <- 0;
  b.b_next <- t.free_b;
  t.free_b <- b;
  Obs.Sink.attr_leave s

let broadcast_many t ~src payloads ~n =
  if n < 0 || n > Array.length payloads then
    invalid_arg "Network.broadcast_many: n out of range";
  if n = 1 then broadcast t ~src payloads.(0)
  else if n > 0 then begin
    let s = Dsim.Engine.obs t.eng in
    Obs.Sink.attr_enter s at_bcast_many;
    for _ = 0 to n - 1 do
      bump_sent t src;
      probe_sent t ~src ~dst:(-1)
    done;
    let now_ns = Dsim.Time.to_ns (Dsim.Engine.now t.eng) in
    let paths = paths_from t src in
    for mi = 0 to t.n_members - 1 do
      let dst = Array.unsafe_get t.members mi in
      (if not (Node_id.equal dst src) then begin
          if reachable t ~src ~dst then begin
            (* Per-destination batching: consecutive messages whose raw
               delivery instant does not exceed the open batch's instant
               ride in the same queued event (delivered in send order, so
               path FIFO holds); a later instant closes the batch and
               opens a new one, subject to the same no-overtaking bump as
               the unbatched path. *)
            let batch = ref t.nil_b in
            let clock = ref (path_prev paths dst) in
            for i = 0 to n - 1 do
              let payload = payloads.(i) in
              if t.cfg.loss > 0. && Dsim.Rng.float t.rng 1.0 < t.cfg.loss
              then begin
                t.dropped <- t.dropped + 1;
                probe_dropped t ~src ~dst ~reason:loss
              end
              else begin
                let lat = Latency.sample t.rng t.cfg.latency in
                let lat =
                  match t.delay_hook with
                  | Some hook -> Dsim.Time.Span.add lat (hook ~src ~dst)
                  | None -> lat
                in
                let raw = now_ns + Dsim.Time.Span.to_ns lat in
                let b = !batch in
                if
                  ((b != t.nil_b)
                  [@ctslint.allow
                    "phys-equality"
                      "nil sentinel marks no-open-batch; identity is the \
                       point"])
                  && raw <= Dsim.Time.to_ns b.b_time
                then
                  bcell_append b payload
                else begin
                  let at_ns = if raw <= !clock then !clock + 1 else raw in
                  let at = Dsim.Time.of_ns at_ns in
                  let nb = acquire_bcell t ~src ~dst ~at in
                  bcell_append nb payload;
                  Dsim.Engine.schedule_call_at t.eng at bcell_fire nb;
                  batch := nb;
                  clock := at_ns
                end
              end
            done;
            if !clock >= 0 then path_set paths dst !clock
          end
          else begin
            for _ = 0 to n - 1 do
              t.dropped <- t.dropped + 1;
              probe_dropped t ~src ~dst ~reason:partitioned
            done
          end
        end)
    done;
    Obs.Sink.attr_leave s
  end

let set_loss t loss =
  if loss < 0. || loss >= 1. then invalid_arg "Network.set_loss: out of [0, 1)";
  t.cfg <- { t.cfg with loss }

(* One bit per group; the top bit stays clear so masks are plain
   non-negative immediates. *)
let mask_bits = Sys.int_size - 2

let partition t groups =
  let ng = List.length groups in
  if ng = 0 then begin
    (* historical behaviour: an empty partition heals *)
    t.group_mask <- [||];
    t.group_sets <- []
  end
  else if ng > mask_bits then begin
    t.group_mask <- [||];
    t.group_sets <- List.map Node_id.Set.of_list groups
  end
  else begin
    let top =
      List.fold_left
        (List.fold_left (fun acc id -> max acc (Node_id.to_int id)))
        (-1) groups
    in
    (* at least one slot, so an all-empty partition still isolates
       everyone instead of looking like "no partition" *)
    let m = Array.make (max 1 (top + 1)) 0 in
    List.iteri
      (fun g ids ->
        let bit = 1 lsl g in
        List.iter (fun id -> m.(Node_id.to_int id) <- m.(Node_id.to_int id) lor bit) ids)
      groups;
    t.group_mask <- m;
    t.group_sets <- []
  end

let heal t =
  t.group_mask <- [||];
  t.group_sets <- []

let stats t ~sent id =
  let a = if sent then t.sent else t.delivered in
  let i = Node_id.to_int id in
  if i < Array.length a then a.(i) else 0

let packets_dropped t = t.dropped
let set_delay_hook t hook = t.delay_hook <- hook
