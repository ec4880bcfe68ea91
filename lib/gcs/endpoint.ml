module Nid = Netsim.Node_id

let src = Logs.Src.create "gcs" ~doc:"Group communication service"

module Log = (val Logs.src_log src : Logs.LOG)

type payload =
  | App of Msg.t
  | Group_join of { node : Nid.t; group : Group_id.t }
  | Group_leave of { node : Nid.t; group : Group_id.t }
  | Snapshot of {
      ring : Totem.Ring_id.t;
      groups : (Group_id.t * Nid.t list) list;
      snap_primary : bool;
          (* captured in a primary component; only these are adoptable *)
    }

type event =
  | Deliver of { msg : Msg.t; from_node : Nid.t }
  | View_change of View.t
  | Block
  | Evicted

type sub = {
  handler : event -> unit;
  mutable am_member : bool;
      (* cached [List.exists (equal me) (members_of t group)], refreshed on
         every membership edge for the group ([notify_group]) — the per-
         delivery routing check must not walk a member list at scale *)
}

type t = {
  eng : Dsim.Engine.t;
  me : Nid.t;
  node : payload Totem.Node.t;
  mutable groups : Nid.t list Group_id.Map.t option;
      (** [None] until this node learns the map (late joiner) *)
  mutable buffered_ops : payload list;
      (** membership ops delivered since the last ring change, re-applied
          on top of an adopted snapshot *)
  subs : (Group_id.t, sub) Hashtbl.t;
  mutable pending_joins : Group_id.t list;
      (** joins requested before the map was known *)
  mutable last_primary : Nid.Set.t option;
  mutable primary : bool;
  mutable current_ring : Totem.Ring_id.t option;
  mutable ring_view_hook :
    (ring:Totem.Ring_id.t -> members:Nid.t list -> unit) option;
      (** observer called after each installed ring view — lets a harness
          track formation progress event-driven instead of polling every
          node's membership per engine step *)
  mutable blocked_hook : (unit -> unit) option;
      (** observer called when the underlying ring leaves the operational
          state (membership change in progress) — the complement of
          [ring_view_hook], so a harness tracking "is this ring settled"
          sees both edges *)
}

let me t = t.me
let is_primary_component t = t.primary
let ring t = t.current_ring
let totem t = t.node

let members_of t group =
  match t.groups with
  | None -> []
  | Some m -> Option.value ~default:[] (Group_id.Map.find_opt group m)

let view_of t group =
  match t.groups with
  | None -> None
  | Some m -> (
      match Group_id.Map.find_opt group m with
      | None | Some [] -> None
      | Some nodes ->
          Some
            {
              View.group;
              members = List.mapi (fun i n -> (n, i)) nodes;
              primary = t.primary;
            })

let probe_view t view =
  let s = Dsim.Engine.obs t.eng in
  if s.Obs.Sink.on then
    Obs.Sink.emit s ~kind:Obs.Recorder.k_view
      ~ts_us:(Dsim.Time.to_ns (Dsim.Engine.now t.eng) / 1000)
      ~node:(Nid.to_int t.me)
      ~a:(List.length view.View.members)
      ~b:(if view.View.primary then 1 else 0)

let refresh_member_cache t group sub =
  sub.am_member <- List.exists (Nid.equal t.me) (members_of t group)

let notify_group t group =
  match (Hashtbl.find_opt t.subs group, view_of t group) with
  | Some sub, Some view ->
      refresh_member_cache t group sub;
      probe_view t view;
      sub.handler (View_change view)
  | Some sub, None ->
      (* The group lost all members (e.g. pruned by a partition). *)
      refresh_member_cache t group sub;
      let view = { View.group; members = []; primary = t.primary } in
      probe_view t view;
      sub.handler (View_change view)
  | None, _ -> ()

let apply_op t op =
  match (op, t.groups) with
  | Group_join { node; group }, Some m ->
      let cur = Option.value ~default:[] (Group_id.Map.find_opt group m) in
      if not (List.exists (Nid.equal node) cur) then begin
        t.groups <- Some (Group_id.Map.add group (cur @ [ node ]) m);
        notify_group t group
      end
  | Group_leave { node; group }, Some m ->
      let cur = Option.value ~default:[] (Group_id.Map.find_opt group m) in
      if List.exists (Nid.equal node) cur then begin
        let cur = List.filter (fun n -> not (Nid.equal n node)) cur in
        t.groups <- Some (Group_id.Map.add group cur m);
        notify_group t group
      end
  | (Group_join _ | Group_leave _), None -> assert false
  | (App _ | Snapshot _), _ -> assert false

let announce_join t group =
  Totem.Node.multicast t.node (Group_join { node = t.me; group })

let adopt_snapshot t ~ring ~groups =
  match (t.groups, t.current_ring) with
  | Some _, _ -> () (* we already hold the map; identical by construction *)
  | None, Some r when Totem.Ring_id.equal r ring ->
      Log.debug (fun m -> m "%a: adopting group snapshot" Nid.pp t.me);
      t.groups <-
        Some
          (List.fold_left
             (fun acc (g, nodes) -> Group_id.Map.add g nodes acc)
             Group_id.Map.empty groups);
      let ops = List.rev t.buffered_ops in
      t.buffered_ops <- [];
      List.iter (apply_op t) ops;
      (Hashtbl.iter
         (fun g sub -> refresh_member_cache t g sub)
         [@ctslint.allow
           "hash-order"
             "order-free: each callback only recomputes that sub's cached \
              membership bit from the (already final) group map"])
        t.subs;
      (* Joins requested while the map was unknown can go out now. *)
      let pending = List.rev t.pending_joins in
      t.pending_joins <- [];
      List.iter (announce_join t) pending
  | None, _ -> () (* snapshot for a ring we are no longer on *)

let on_app_deliver t (msg : Msg.t) ~from_node =
  match Hashtbl.find_opt t.subs msg.header.dst_grp with
  | Some sub when sub.am_member -> sub.handler (Deliver { msg; from_node })
  | Some _ | None -> ()

let at_ring_view = Obs.Attrib.site ~sub:Obs.Subsystem.Gcs ~name:"ring-view"

let on_ring_view_inner t ~(ring : Totem.Ring_id.t) ~members =
  t.current_ring <- Some ring;
  t.buffered_ops <- [];
  let member_set = Nid.Set.of_list members in
  let was_primary = t.primary in
  (* Primary-component rule: a component survives iff it holds a strict
     majority of the last primary component. *)
  (match t.last_primary with
  | None -> t.primary <- true
  | Some last ->
      let overlap = Nid.Set.cardinal (Nid.Set.inter member_set last) in
      t.primary <- 2 * overlap > Nid.Set.cardinal last);
  if t.primary then t.last_primary <- Some member_set;
  (* Rejoining a primary component from a minority one: everything done in
     the minority is void (the paper's primary-component model).  The local
     group state is discarded; a snapshot from a continuing member restores
     the authoritative map, and evicted members must rejoin (for a replica,
     via the state-transfer recovery of §3.2). *)
  if t.primary && (not was_primary) && t.groups <> None then begin
    Log.debug (fun m -> m "%a: evicted from primary component" Nid.pp t.me);
    t.groups <- None;
    Dsim.Det.iter_sorted ~compare:Group_id.compare
      (fun _ sub -> sub.handler Evicted)
      t.subs
  end;
  match t.groups with
  | None -> () (* still waiting for a snapshot; a member will send one *)
  | Some m ->
      (* Members on departed nodes are gone; prune deterministically. *)
      let changed = ref [] in
      let m' =
        Group_id.Map.mapi
          (fun g nodes ->
            let nodes' =
              List.filter (fun n -> Nid.Set.mem n member_set) nodes
            in
            if List.length nodes' <> List.length nodes then
              changed := g :: !changed;
            nodes')
          m
      in
      t.groups <- Some m';
      (* Every subscribed group gets a view refresh: even when membership is
         unchanged, the primary flag may have flipped.  Fan-out runs in
         group-id order — hash-bucket order would differ between replicas
         that subscribed in a different sequence. *)
      Dsim.Det.iter_sorted ~compare:Group_id.compare
        (fun g _ -> notify_group t g)
        t.subs;
      List.iter
        (fun g -> if not (Hashtbl.mem t.subs g) then notify_group t g)
        !changed;
      (* Re-announce the map for any late joiner on the new ring. *)
      let snapshot =
        Snapshot
          { ring; groups = Group_id.Map.bindings m'; snap_primary = t.primary }
      in
      Totem.Node.multicast t.node snapshot

let on_ring_view t ~ring ~members =
  let s = Dsim.Engine.obs t.eng in
  Obs.Sink.attr_enter s at_ring_view;
  on_ring_view_inner t ~ring ~members;
  (* The hook observes after the view (and any snapshot re-announce) is
     fully applied; it must not mutate protocol state. *)
  (match t.ring_view_hook with
  | Some hook -> hook ~ring ~members
  | None -> ());
  Obs.Sink.attr_leave s

let set_ring_view_hook t hook = t.ring_view_hook <- hook
let set_blocked_hook t hook = t.blocked_hook <- hook

let on_totem_event t (ev : payload Totem.Node.event) =
  match ev with
  | Totem.Node.Deliver { sender; payload; _ } -> (
      match payload with
      | App msg -> on_app_deliver t msg ~from_node:sender
      | Group_join _ | Group_leave _ -> (
          match t.groups with
          | Some _ -> apply_op t payload
          | None -> t.buffered_ops <- payload :: t.buffered_ops)
      | Snapshot { ring; groups; snap_primary } ->
          if snap_primary then adopt_snapshot t ~ring ~groups)
  | Totem.Node.View { ring; members } -> on_ring_view t ~ring ~members
  | Totem.Node.Blocked ->
      (match t.blocked_hook with Some hook -> hook () | None -> ());
      Dsim.Det.iter_sorted ~compare:Group_id.compare
        (fun _ sub -> sub.handler Block)
        t.subs

let create eng net ~me ?totem_config ~bootstrap () =
  let rec t =
    lazy
      {
        eng;
        me;
        node =
          Totem.Node.create eng net ~me ?config:totem_config
            ~handler:(fun ev -> on_totem_event (Lazy.force t) ev)
            ();
        groups = (if bootstrap then Some Group_id.Map.empty else None);
        buffered_ops = [];
        subs = Hashtbl.create 8;
        pending_joins = [];
        last_primary = None;
        primary = true;
        current_ring = None;
        ring_view_hook = None;
        blocked_hook = None;
      }
  in
  Lazy.force t

let start t = Totem.Node.start t.node

let join_group t group ~handler =
  if Hashtbl.mem t.subs group then
    invalid_arg
      (Format.asprintf "Endpoint.join_group: already joined %a" Group_id.pp
         group);
  let sub = { handler; am_member = false } in
  refresh_member_cache t group sub;
  Hashtbl.replace t.subs group sub;
  match t.groups with
  | Some _ -> announce_join t group
  | None -> t.pending_joins <- group :: t.pending_joins

let leave_group t group =
  if Hashtbl.mem t.subs group then begin
    Hashtbl.remove t.subs group;
    Totem.Node.multicast t.node (Group_leave { node = t.me; group })
  end

let multicast ?unless t msg = Totem.Node.multicast ?unless t.node (App msg)
let crash t = Totem.Node.crash t.node
