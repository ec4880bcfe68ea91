exception Timeout

type outstanding = {
  cell : string Dsim.Sync.Ivar.t;
  mutable abandoned : bool; (* timed out; late replies are dropped *)
}

type t = {
  eng : Dsim.Engine.t;
  endpoint : Gcs.Endpoint.t;
  my_group : Gcs.Group_id.t;
  server_group : Gcs.Group_id.t;
  conn_id : int;
  mutable next_seq : int;
  pending : (int, outstanding) Hashtbl.t; (* keyed by msg_seq *)
  mutable sent : int;
  mutable dup_replies : int;
  mutable causal_ts : Dsim.Time.t option;
      (* highest group-clock timestamp seen in any reply; forwarded on
         subsequent requests so causality spans server groups (§5) *)
}

let on_event t = function
  | Gcs.Endpoint.Deliver { msg; _ } -> (
      match msg.Gcs.Msg.body with
      | Wire.Reply { result; ts; _ } -> (
          (match (ts, t.causal_ts) with
          | Some ts, Some prev when Dsim.Time.(ts > prev) ->
              t.causal_ts <- Some ts
          | Some ts, None -> t.causal_ts <- Some ts
          | _ -> ());
          let seq = msg.Gcs.Msg.header.msg_seq in
          match Hashtbl.find_opt t.pending seq with
          | Some o when not o.abandoned ->
              Hashtbl.remove t.pending seq;
              Dsim.Sync.Ivar.fill t.eng o.cell result
          | Some o ->
              Hashtbl.remove t.pending seq;
              ignore o
          | None -> t.dup_replies <- t.dup_replies + 1)
      | _ -> ())
  | Gcs.Endpoint.View_change _ | Gcs.Endpoint.Block | Gcs.Endpoint.Evicted ->
      ()

let create eng ~endpoint ~my_group ~server_group () =
  let t =
    {
      eng;
      endpoint;
      my_group;
      server_group;
      conn_id =
        (1000 * Gcs.Group_id.to_int my_group)
        + Gcs.Group_id.to_int server_group;
      next_seq = 0;
      pending = Hashtbl.create 8;
      sent = 0;
      dup_replies = 0;
      causal_ts = None;
    }
  in
  Gcs.Endpoint.join_group endpoint my_group ~handler:(on_event t);
  t

let attempt ?timeout t ~seq ~op ~arg =
  let o = { cell = Dsim.Sync.Ivar.create (); abandoned = false } in
  Hashtbl.replace t.pending seq o;
  t.sent <- t.sent + 1;
  Gcs.Endpoint.multicast t.endpoint
    (Wire.request ~src_grp:t.my_group ~dst_grp:t.server_group
       ~conn_id:t.conn_id ~msg_seq:seq ~op ~arg ?ts:t.causal_ts ());
  match timeout with
  | None -> Some (Dsim.Sync.Ivar.read o.cell)
  | Some d ->
      (* Wake on whichever comes first: the reply or the deadline. *)
      let woke = Dsim.Sync.Ivar.create () in
      Dsim.Engine.schedule t.eng d (fun () ->
          if not (Dsim.Sync.Ivar.is_filled woke) then
            Dsim.Sync.Ivar.fill t.eng woke None);
      Dsim.Fiber.spawn t.eng (fun () ->
          let r = Dsim.Sync.Ivar.read o.cell in
          if not (Dsim.Sync.Ivar.is_filled woke) then
            Dsim.Sync.Ivar.fill t.eng woke (Some r));
      (match Dsim.Sync.Ivar.read woke with
      | Some r -> Some r
      | None ->
          o.abandoned <- true;
          None)

(* Call-lifecycle probe: [k_rpc_call] when an invocation starts, then
   [k_rpc_return] (b = latency, µs) or [k_rpc_timeout] (b = time spent,
   µs) once it ends, retries included, so the exported span never holds
   a dangling Begin. *)
let probe t ~kind seq ~started =
  let s = Dsim.Engine.obs t.eng in
  if s.Obs.Sink.on then
    let now = Dsim.Engine.now t.eng in
    Obs.Sink.emit s ~kind
      ~ts_us:(Dsim.Time.to_ns now / 1000)
      ~node:(Netsim.Node_id.to_int (Gcs.Endpoint.me t.endpoint))
      ~a:seq
      ~b:(Dsim.Time.Span.to_us (Dsim.Time.diff now started))

let invoke ?timeout ?(retries = 0) t ~op ~arg =
  t.next_seq <- t.next_seq + 1;
  let seq = t.next_seq in
  let started = Dsim.Engine.now t.eng in
  probe t ~kind:Obs.Recorder.k_rpc_call seq ~started;
  (* Retries reuse the sequence number: the server-side duplicate-detection
     cache re-sends the cached reply instead of re-executing, so the
     invocation stays exactly-once even when a reply is lost to a crash. *)
  let rec go attempts_left =
    match attempt ?timeout t ~seq ~op ~arg with
    | Some r ->
        probe t ~kind:Obs.Recorder.k_rpc_return seq ~started;
        r
    | None ->
        if attempts_left > 0 then go (attempts_left - 1)
        else begin
          probe t ~kind:Obs.Recorder.k_rpc_timeout seq ~started;
          raise Timeout
        end
  in
  go retries

let invoke_timed ?timeout ?retries t ~op ~arg =
  let started = Dsim.Engine.now t.eng in
  let result = invoke ?timeout ?retries t ~op ~arg in
  (result, Dsim.Time.diff (Dsim.Engine.now t.eng) started)

let observe_timestamp t ts =
  match t.causal_ts with
  | Some prev when Dsim.Time.(prev >= ts) -> ()
  | Some _ | None -> t.causal_ts <- Some ts

let last_timestamp t = t.causal_ts
let requests_sent t = t.sent
let duplicate_replies t = t.dup_replies
