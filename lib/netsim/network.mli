(** Simulated LAN carrying opaque ['a] payloads.

    Supports unicast and physical broadcast (the Ethernet segment of the
    paper's testbed), per-packet latency drawn from a {!Latency.t} model,
    independent packet loss, and network partitions with remerge.  Delivery on
    each (source, destination) path is FIFO, as on a switched LAN: a packet
    never overtakes an earlier packet on the same path, but there is no
    ordering across paths, and packets can be lost — exactly what Totem
    assumes underneath. *)

type 'a t

type config = {
  latency : Latency.t;
  loss : float;  (** independent per-packet loss probability in [0, 1) *)
}

val default_config : config
(** Calibrated latency, no loss. *)

val create : Dsim.Engine.t -> config -> 'a t

val rng : 'a t -> Dsim.Rng.t
(** The network's private random stream (split from the engine's at
    {!create} time).  Exposed so a snapshot/restore facility can rewind
    it; ordinary clients never need it. *)

val attach : 'a t -> Node_id.t -> (src:Node_id.t -> 'a -> unit) -> unit
(** Register a node's receive handler.  Raises [Invalid_argument] if the
    node is already attached. *)

val detach : 'a t -> Node_id.t -> unit
(** Remove a node (models a host crash: in-flight packets to it vanish). *)

val attached : 'a t -> Node_id.t -> bool

val nodes : 'a t -> Node_id.t list
(** Attached nodes in increasing id order. *)

val send : 'a t -> src:Node_id.t -> dst:Node_id.t -> 'a -> unit
(** Unicast; silently dropped when lossy, partitioned, or [dst] is not
    attached.  A node may send to itself (loopback, same latency model). *)

val send_tracked : 'a t -> src:Node_id.t -> dst:Node_id.t -> 'a -> bool
(** {!send}, reporting whether the packet was actually queued for
    delivery: [false] means it was lost or partitioned away at send time.
    (A destination that crashes while the packet is in flight still
    counts as queued.)  Lets a sender that would arm a recovery timer
    "in case this gets lost" skip the timer on the overwhelmingly common
    delivered path — the simulator knows the loss outcome at send time,
    the protocol's observable behaviour is unchanged. *)

val send_tracked_after :
  'a t -> delay:Dsim.Time.Span.t -> src:Node_id.t -> dst:Node_id.t -> 'a -> bool
(** {!send_tracked} with [delay] added on top of the sampled latency
    (before the per-path FIFO adjustment, like the model checker's delay
    hook, so no-overtaking still holds).  Lets a protocol that holds a
    message for a deterministic processing time commit the send
    immediately instead of parking the decision in a timer event — one
    queue event per packet instead of two.  Loss, partition and latency
    are all drawn at call time. *)

val broadcast : 'a t -> src:Node_id.t -> 'a -> unit
(** Deliver to every attached node except [src], subject to loss and
    partitions, with an independent latency draw per receiver. *)

val broadcast_many : 'a t -> src:Node_id.t -> 'a array -> n:int -> unit
(** [broadcast_many net ~src payloads ~n] broadcasts [payloads.(0)] ..
    [payloads.(n-1)] in order, as if by [n] consecutive {!broadcast}
    calls at the same instant, but batched: per destination, consecutive
    messages sharing a delivery instant are drained by a single queued
    event instead of one event per message.  Per-message semantics are
    preserved — send order per path (FIFO), an independent loss and
    latency draw per (message, receiver) pair, and per-message stats,
    drop accounting and obs records: every message a batch absorbs
    emits one record of its own (a delivery carries its batch position
    as payload [b]), including exact [No_port] drops for the remainder
    of a batch when a handler detaches the destination mid-drain.  The one
    batching artefact is the timestamp: absorbed messages share the
    batch's delivery instant instead of being spread by the 1 ns FIFO
    tie-break.  [payloads] is read before returning and may be reused by
    the caller afterwards.  Raises [Invalid_argument] if [n] is negative
    or exceeds the array length. *)

val set_loss : 'a t -> float -> unit

val partition : 'a t -> Node_id.t list list -> unit
(** [partition net groups] splits the network: a packet is delivered only if
    its source and destination are in the same group.  Nodes absent from
    every group are isolated.  Replaces any previous partition. *)

val heal : 'a t -> unit
(** Remove the partition. *)

val stats : 'a t -> sent:bool -> Node_id.t -> int
(** [stats net ~sent n]: packets sent by (resp. delivered to) node [n]. *)

val packets_dropped : 'a t -> int

val set_delay_hook :
  'a t -> (src:Node_id.t -> dst:Node_id.t -> Dsim.Time.Span.t) option -> unit
(** Install (or remove, with [None]) a per-packet perturbation hook,
    consulted once for every packet about to be scheduled for delivery (not
    for lost or partitioned packets).  The returned span is added to the
    sampled latency {e before} the per-path FIFO adjustment, so the no-
    overtaking guarantee is preserved.  Used by the [Mc] model checker to
    explore delivery schedules; returning {!Dsim.Time.Span.zero} leaves the
    packet untouched. *)
