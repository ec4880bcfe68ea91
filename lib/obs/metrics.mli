(** Metrics registry: zero-allocation counters, named gauges, latency /
    adjustment histograms (reusing {!Stats.Histogram}) and bench
    sections, with a snapshot-to-JSON exporter.

    The registry is plain data (no closures), so a metrics-carrying
    simulator world is still rewound by [Mc.Harness]'s world snapshot. *)

type t

(** Fixed counter keys.  Adding a key means extending [key_index],
    [key_name] and [all_keys] in lock-step; the registry stores counts in
    a dense int array indexed by [key_index]. *)
type key =
  | Engine_events      (** callbacks run by [Dsim.Engine] *)
  | Fiber_spawns
  | Fiber_switches     (** fiber resumptions after a suspend *)
  | Net_sent
  | Net_delivered
  | Net_dropped
  | Totem_tokens       (** regular-token visits accepted *)
  | Totem_views        (** ring installations (operational transitions) *)
  | Gcs_views          (** view changes delivered to group members *)
  | Ccs_rounds         (** CCS rounds opened *)
  | Ccs_wins           (** rounds closed by a winning synchronizer msg *)
  | Ccs_suppressed     (** sends suppressed by duplicate detection *)
  | Ccs_discards       (** stale / losing round messages discarded *)
  | Ccs_offset_updates (** group-clock offset recomputations *)
  | Repl_requests
  | Repl_checkpoints
  | Rpc_calls
  | Rpc_timeouts
  | Hier_rounds        (** cross-shard bridge rounds agreed *)
  | Hier_corrections   (** bounded corrections injected into a shard *)
  | Hier_elections     (** gateway (re-)elections *)

type hkey = Ccs_adjustment_us | Rpc_latency_us

val create : unit -> t

val incr : t -> key -> unit
(** One array store; allocation-free. *)

val add : t -> key -> int -> unit
val get : t -> key -> int

val record : t -> kind:int -> b:int -> unit
(** Account one {!Recorder} record: bump the counter its kind maps to
    (a step counts [Engine_events], a send [Net_sent], a CCS open
    [Ccs_rounds], ...).  A CCS settle also counts [Ccs_offset_updates]
    and adds its [b] (the adjustment, µs) to [Ccs_adjustment_us]; an rpc
    return adds its [b] (the latency, µs) to [Rpc_latency_us].
    Allocation-free once the histograms' bins cover the samples. *)

val observe : t -> hkey -> float -> unit
val hist : t -> hkey -> Stats.Histogram.t

val gauge : t -> string -> float ref
(** Find-or-create a named gauge; set it with [:=].  Cold path only. *)

(** Bench section: accumulated wall time and minor-heap allocation
    attributed to a named hot region, reported per event. *)
type section = {
  s_name : string;
  mutable s_events : int;
  mutable s_ns : float;
  mutable s_minor_words : float;
}

val section : t -> string -> section
val section_record : section -> events:int -> ns:float -> minor_words:float -> unit

val reset : t -> unit

val key_name : key -> string
val hkey_name : hkey -> string
val all_keys : key list

val to_json : t -> string
(** Whole-registry snapshot as a JSON object with [counters], [gauges],
    [histograms] and [sections] members. *)
