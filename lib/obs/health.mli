(** Online invariant monitor over the flight-recorder record stream.

    Evaluates runtime analogues of the paper's §3 guarantees
    continuously — outside [Mc] — and raises structured, {e
    deduplicated} incidents instead of failing silently:

    - [gc-monotonic]: a node's sampled group clock never decreases
      (§3's monotonicity of [GC]); worst = largest regression in µs.
    - [skew-envelope]: the spread of [(group clock - simulated time)]
      offsets across live (non-stale) nodes stays within a configured
      bound (the §3 bounded-skew guarantee, with the drift envelope
      supplied by the caller); worst = largest spread in µs.
    - [token-liveness]: once a first token has been sighted, tokens
      keep being sighted within [token_timeout_us] (the liveness the
      §12 watchdogs exist to restore); worst = silent gap in µs.  The
      alarm re-arms on the next token, so a single loss episode is one
      incident however many records elapse inside it.
    - [membership-agreement]: every node reaching operational state in
      a ring generation reports the same member count (§12 agreement
      on view composition); worst = member-count difference.

    One incident record per invariant, updated in place: first-seen and
    last-seen timestamps, occurrence count, worst value and the node
    that produced it.  State is plain data (arrays and a Hashtbl used
    point-wise, never iterated), so a world carrying a monitor is still
    rewound by [Mc.Harness]'s snapshot. *)

type incident = {
  inv : string;  (** invariant id, e.g. ["token-liveness"] *)
  mutable first_us : int;
  mutable last_us : int;
  mutable count : int;
  mutable worst : int;
  mutable node : int;  (** node of the worst observation *)
}

type config = {
  skew_bound_us : int;  (** <= 0 disables the skew-envelope check *)
  token_timeout_us : int;  (** <= 0 disables the liveness watchdog *)
  staleness_us : int;
      (** nodes whose last sample is older than this are excluded from
          the skew envelope *)
  membership_check : bool;
      (** ring generations are only comparable within one ring, so a
          monitor fed by several rings at once ([lib/hier] clusters)
          must disable this check *)
}

val default_config : config
(** Skew check disabled (the bound is scenario-specific), 10 ms token
    timeout, 5 ms staleness, membership check on. *)

type t

val create : ?config:config -> unit -> t
val config : t -> config

val observe : t -> kind:int -> ts_us:int -> node:int -> a:int -> b:int -> unit
(** Feed one record (same encoding as {!Recorder.emit}).  All-int
    arguments; allocates only when an incident is first raised. *)

val incidents : t -> incident list
(** In first-seen order. *)

val incident_count : t -> int
val clear : t -> unit
val pp_incident : Format.formatter -> incident -> unit
val pp : Format.formatter -> t -> unit
