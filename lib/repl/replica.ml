let src = Logs.Src.create "repl" ~doc:"Replication infrastructure"

module Log = (val Logs.src_log src : Logs.LOG)
module Nid = Netsim.Node_id

type style = Active | Passive | Semi_active

type config = {
  style : style;
  checkpoint_interval : int;
  recovering : bool;
  drift : Cts.Drift.t;
  offset_tracking : bool;
  initial_members : Nid.t list;
}

let default_config =
  {
    style = Active;
    checkpoint_interval = 50;
    recovering = false;
    drift = Cts.Drift.No_compensation;
    offset_tracking = true;
    initial_members = [];
  }

type app = {
  handle : thread:Cts.Thread_id.t -> op:string -> arg:string -> string;
  snapshot : unit -> string;
  restore : string -> unit;
}

let main_thread = Cts.Thread_id.of_int 1

type item =
  | Req of {
      header : Gcs.Msg.header;
      op : string;
      arg : string;
      ts : Dsim.Time.t option;
      index : int;
    }
  | Marker of { for_node : Nid.t }

type t = {
  eng : Dsim.Engine.t;
  endpoint : Gcs.Endpoint.t;
  group : Gcs.Group_id.t;
  cfg : config;
  cts : Cts.Service.t;
  mutable app : app;
  mailbox : item Dsim.Sync.Mailbox.t;
  backlog : item Queue.t; (* passive backup: logged items for replay *)
  mutable pending : item list; (* delivered while not yet recovered (rev) *)
  mutable view : Gcs.View.t option;
  mutable recovered : bool;
  mutable delivered_reqs : int;
  mutable processed : int;
  seen_states : (int, unit) Hashtbl.t; (* join node -> state delivered *)
  stash : (int, Checkpoint.t) Hashtbl.t; (* join node -> unserved ckpt *)
  reply_cache : (int, int * string) Hashtbl.t; (* conn -> (seq, result) *)
  mutable halted : bool;
      (* evicted from the primary component: stop serving (rejoining
         requires a fresh recovering replica) *)
  mutable bootstrap_hint : Nid.t list;
      (* nodes that still count as initial members (no transfer needed) *)
}

let me t = Gcs.Endpoint.me t.endpoint
let group t = t.group
let service t = t.cts
let recovered t = t.recovered
let processed t = t.processed
let delivered t = t.delivered_reqs
let snapshot t = t.app.snapshot ()

let is_primary t =
  match t.view with
  | None -> false
  | Some v -> (
      match v.Gcs.View.members with
      | (n, _) :: _ -> Nid.equal n (me t)
      | [] -> false)

(* Replicas that log instead of processing: passive backups. *)
let is_logging t = t.cfg.style = Passive && not (is_primary t)

let should_reply t =
  match t.cfg.style with
  | Active -> true
  | Passive | Semi_active -> is_primary t

let may_send_state t =
  match t.cfg.style with
  | Active -> true
  | Passive | Semi_active -> is_primary t

(* ------------------------------------------------------------------ *)
(* Processing thread                                                   *)

let probe t ~kind ~a =
  let s = Dsim.Engine.obs t.eng in
  if s.Obs.Sink.on then
    Obs.Sink.emit s ~kind
      ~ts_us:(Dsim.Time.to_ns (Dsim.Engine.now t.eng) / 1000)
      ~node:(Nid.to_int (me t)) ~a ~b:0

let take_checkpoint t : Checkpoint.t =
  probe t ~kind:Obs.Recorder.k_repl_checkpoint ~a:t.processed;
  {
    upto = t.processed;
    app_state = t.app.snapshot ();
    rounds = Cts.Service.thread_rounds t.cts;
  }

let maybe_periodic_checkpoint t =
  if
    t.cfg.style = Passive && is_primary t
    && t.cfg.checkpoint_interval > 0
    && t.processed mod t.cfg.checkpoint_interval = 0
  then
    Gcs.Endpoint.multicast t.endpoint
      (Checkpoint.periodic_msg ~group:t.group (take_checkpoint t))

let process_req t ~(header : Gcs.Msg.header) ~op ~arg ~ts ~index =
  let conn = header.conn_id in
  let send_reply result =
    if should_reply t then
      Gcs.Endpoint.multicast t.endpoint
        (Rpc.Wire.reply ~request_header:header ~replica:(me t) ~result
           ?ts:(Cts.Service.last_reading t.cts) ())
  in
  match Hashtbl.find_opt t.reply_cache conn with
  | Some (seq, cached) when header.msg_seq = seq -> send_reply cached
  | Some (seq, _) when header.msg_seq < seq -> () (* stale duplicate *)
  | Some _ | None ->
      (* §5 extension: a timestamp carried by the request raises the group
         clock's causal floor before the request is processed.  This runs
         in processing (= delivery) order, so the floor is identical at
         every replica. *)
      (match ts with
      | Some ts -> Cts.Service.observe_timestamp t.cts ts
      | None -> ());
      let result =
        (* §4.1: application code runs with the clock calls interposed *)
        Cts.Interpose.with_context t.cts ~thread:main_thread (fun () ->
            t.app.handle ~thread:main_thread ~op ~arg)
      in
      t.processed <- index;
      probe t ~kind:Obs.Recorder.k_repl_request ~a:index;
      Hashtbl.replace t.reply_cache conn (header.msg_seq, result);
      send_reply result;
      maybe_periodic_checkpoint t

let process_marker t ~for_node =
  (* §3.2: at the synchronization point, run the special round of consistent
     clock synchronization, then checkpoint and transfer the state. *)
  let (_ : Dsim.Time.t) = Cts.Service.special_round t.cts in
  let ckpt = take_checkpoint t in
  let key = Nid.to_int for_node in
  Hashtbl.replace t.stash key ckpt;
  if (not (Hashtbl.mem t.seen_states key)) && may_send_state t then
    Gcs.Endpoint.multicast t.endpoint
      (Checkpoint.state_msg ~group:t.group ~for_node ckpt)

let rec processing_loop t =
  (try
     match Dsim.Sync.Mailbox.recv t.mailbox with
     | Req { header; op; arg; ts; index } ->
         process_req t ~header ~op ~arg ~ts ~index
     | Marker { for_node } -> process_marker t ~for_node
   with Clock.Hwclock.Failed ->
     (* The paper's fault model (§2): physical clocks are fail-stop, and a
        replica whose clock fails stops with it and is removed from the
        membership. *)
     Log.debug (fun m ->
         m "%a: physical clock failed, replica fail-stops" Nid.pp (me t));
     t.halted <- true;
     Gcs.Endpoint.crash t.endpoint);
  if not t.halted then processing_loop t

(* ------------------------------------------------------------------ *)
(* Delivery routing                                                    *)

let route t item =
  if is_logging t then Queue.push item t.backlog
  else Dsim.Sync.Mailbox.send t.eng t.mailbox item

let apply_periodic t (c : Checkpoint.t) =
  (* Backups apply the primary's checkpoint and truncate their log. *)
  if is_logging t then begin
    t.app.restore c.app_state;
    List.iter
      (fun (thread, round) -> Cts.Service.advance_thread t.cts ~thread ~round)
      c.rounds;
    t.processed <- c.upto;
    let rec trim () =
      match Queue.peek_opt t.backlog with
      | Some (Req { index; _ }) when index <= c.upto ->
          ignore (Queue.pop t.backlog : item);
          trim ()
      | _ -> ()
    in
    trim ()
  end

let apply_state t ~(for_node : Nid.t) (c : Checkpoint.t) =
  Hashtbl.replace t.seen_states (Nid.to_int for_node) ();
  Hashtbl.remove t.stash (Nid.to_int for_node);
  if (not t.recovered) && Nid.equal for_node (me t) then begin
    (* The special round's CCS message is totally ordered before any State
       message, so the clock is initialized by now. *)
    assert (Cts.Service.initialized t.cts);
    t.app.restore c.app_state;
    List.iter
      (fun (thread, round) -> Cts.Service.advance_thread t.cts ~thread ~round)
      c.rounds;
    t.delivered_reqs <- c.upto;
    t.processed <- c.upto;
    t.recovered <- true;
    probe t ~kind:Obs.Recorder.k_repl_state ~a:c.upto;
    Log.debug (fun m ->
        m "%a: state applied (upto=%d), processing resumes" Nid.pp (me t)
          c.upto);
    let held = List.rev t.pending in
    t.pending <- [];
    (* Re-number the buffered requests: they follow the checkpoint. *)
    List.iter
      (fun item ->
        match item with
        | Req r ->
            t.delivered_reqs <- t.delivered_reqs + 1;
            route t (Req { r with index = t.delivered_reqs })
        | Marker _ -> route t item)
      held
  end

let on_deliver t (msg : Gcs.Msg.t) =
  Cts.Service.on_message t.cts msg;
  match msg.body with
  | Rpc.Wire.Request { op; arg; ts } ->
      if t.recovered then begin
        t.delivered_reqs <- t.delivered_reqs + 1;
        route t
          (Req { header = msg.header; op; arg; ts; index = t.delivered_reqs })
      end
      else
        t.pending <-
          Req { header = msg.header; op; arg; ts; index = 0 } :: t.pending
  | Checkpoint.State { for_node; checkpoint } ->
      apply_state t ~for_node checkpoint
  | Checkpoint.Periodic c -> apply_periodic t c
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* View changes                                                        *)

let on_view t (view : Gcs.View.t) =
  let was_primary = is_primary t in
  let prev_nodes =
    match t.view with
    | None -> None
    | Some v -> Some (Gcs.View.members_nodes v)
  in
  t.view <- Some view;
  Cts.Service.on_view t.cts view;
  let now_nodes = Gcs.View.members_nodes view in
  (match prev_nodes with
  | None -> () (* initial view: nobody needs a state transfer from us *)
  | Some prev ->
      let added =
        List.filter (fun n -> not (List.exists (Nid.equal n) prev)) now_nodes
      in
      let removed =
        List.filter (fun n -> not (List.exists (Nid.equal n) now_nodes)) prev
      in
      (* A departed node that later rejoins needs a fresh transfer. *)
      List.iter
        (fun n ->
          Hashtbl.remove t.seen_states (Nid.to_int n);
          Hashtbl.remove t.stash (Nid.to_int n);
          (* A bootstrap node that leaves needs a real transfer if it ever
             comes back. *)
          t.bootstrap_hint <-
            List.filter (fun b -> not (Nid.equal b n)) t.bootstrap_hint)
        removed;
      List.iter
        (fun n ->
          if Nid.equal n (me t) then ()
          else if List.exists (Nid.equal n) t.bootstrap_hint then ()
          else
            let item = Marker { for_node = n } in
            if t.recovered then route t item
            else t.pending <- item :: t.pending)
        added);
  (* Failover: a backup promoted to primary replays its log and serves any
     state transfer the dead primary left unserved. *)
  if (not was_primary) && is_primary t && t.recovered then begin
    if t.cfg.style = Passive then begin
      Log.debug (fun m ->
          m "%a: promoted to primary, replaying %d logged items" Nid.pp (me t)
            (Queue.length t.backlog));
      Queue.iter (fun item -> Dsim.Sync.Mailbox.send t.eng t.mailbox item)
        t.backlog;
      Queue.clear t.backlog
    end;
    if may_send_state t then
      (* Send order is node-id order: the sends race with application
         multicasts, so hash-bucket order here would leak into the
         totem delivery schedule. *)
      Dsim.Det.iter_sorted ~compare:Int.compare
        (fun key ckpt ->
          if not (Hashtbl.mem t.seen_states key) then
            Gcs.Endpoint.multicast t.endpoint
              (Checkpoint.state_msg ~group:t.group
                 ~for_node:(Nid.of_int key) ckpt))
        t.stash
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let create eng ~endpoint ~group ~clock ?(config = default_config) ~app () =
  let cts_config =
    {
      Cts.Service.mode =
        (match config.style with
        | Active -> Cts.Service.Active
        | Passive | Semi_active -> Cts.Service.Primary_backup);
      drift = config.drift;
      offset_tracking = config.offset_tracking;
      recovering = config.recovering;
    }
  in
  let cts =
    Cts.Service.create eng ~endpoint ~group ~clock ~config:cts_config ()
  in
  let t =
    {
      eng;
      endpoint;
      group;
      cfg = config;
      cts;
      app = { handle = (fun ~thread:_ ~op:_ ~arg:_ -> ""); snapshot = (fun () -> ""); restore = ignore };
      mailbox = Dsim.Sync.Mailbox.create ();
      backlog = Queue.create ();
      pending = [];
      view = None;
      recovered = not config.recovering;
      delivered_reqs = 0;
      processed = 0;
      seen_states = Hashtbl.create 4;
      stash = Hashtbl.create 4;
      reply_cache = Hashtbl.create 8;
      halted = false;
      bootstrap_hint = config.initial_members;
    }
  in
  t.app <- app cts;
  Gcs.Endpoint.join_group endpoint group ~handler:(fun ev ->
      if not t.halted then
        match ev with
        | Gcs.Endpoint.Deliver { msg; _ } -> on_deliver t msg
        | Gcs.Endpoint.View_change view -> on_view t view
        | Gcs.Endpoint.Block -> ()
        | Gcs.Endpoint.Evicted ->
            Log.debug (fun m ->
                m "%a: evicted from primary component, halting" Nid.pp (me t));
            t.halted <- true);
  Dsim.Fiber.spawn eng (fun () -> processing_loop t);
  t

let halted t = t.halted
let crash t = Gcs.Endpoint.crash t.endpoint
