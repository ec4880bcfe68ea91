(** The one gate and the one emit every probe site uses.

    A sink is owned by the simulation engine ([Dsim.Engine.obs]) and is
    off by default: nothing is attached and [on] is false.  Every
    observable event has one format, the {!Recorder}'s five ints — kind,
    simulated-µs timestamp, node, two payloads — and every probe site
    has one shape:

    {[
      let s = Dsim.Engine.obs eng in
      if s.Obs.Sink.on then
        Obs.Sink.emit s ~kind:Obs.Recorder.k_token ~ts_us ~node ~a ~b
    ]}

    A disabled site costs one field load and one predictable branch,
    and nothing is computed for the record unless the gate passes.
    {!emit} feeds the record to each attached consumer: the flight
    recorder keeps it, the health monitor checks it, and {!Metrics}
    turns it into the counter or histogram sample its kind maps to.
    With only the recorder and metrics attached, the emit allocates
    nothing.

    The record is plain data — no closures — so an engine carrying a
    sink (attached or not) is still rewound by [Mc.Harness]'s world
    snapshot.  Components must read the sink through
    the engine at each probe rather than caching it at construction
    time, so a sink attached after world (re)build is still seen. *)

type t = {
  mutable on : bool;
      (** the record gate: true iff a recorder, health monitor or
          metrics registry is attached *)
  mutable steps : bool;
      (** also emit one [k_step] record per engine callback (very hot;
          off by default).  With it off the engine still counts
          [Engine_events] into an attached registry. *)
  mutable recorder : Recorder.t option;
  mutable health : Health.t option;
  mutable metrics : Metrics.t option;
  mutable attrib : Attrib.t option;
      (** wall-time attribution, behind its own option (see
          {!attr_enter}) *)
}

val create : unit -> t

val attach : ?metrics:Metrics.t -> t -> unit
(** Attach a metrics registry (an absent one leaves it as it is) and
    recompute [on]. *)

val set_recorder : t -> Recorder.t option -> unit
val set_health : t -> Health.t option -> unit
val set_steps : t -> bool -> unit
val metrics : t -> Metrics.t option

val emit : t -> kind:int -> ts_us:int -> node:int -> a:int -> b:int -> unit
(** Feed one record to every attached consumer.  Callers check [on]
    first.  Record kinds and payload meanings are defined by
    {!Recorder}. *)

(** {1 Wall-time attribution}

    Host time cannot ride in a record, so attribution keeps its own
    option: [attr_enter]/[attr_leave] are no-ops (one load, one branch)
    until an {!Attrib.t} is attached with [set_attrib].  Callers bracket a
    region with a site interned once via {!Attrib.site}; regions nest
    and must be exited on every path. *)

val set_attrib : t -> Attrib.t option -> unit
val attr_enter : t -> Attrib.site -> unit
val attr_leave : t -> unit
