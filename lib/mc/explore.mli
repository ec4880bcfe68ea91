(** Top-level exploration driver.

    Runs the harness under a {!Strategy}, checking every registered
    {!Invariant} after each schedule.  On a violation the applied
    deviation trace is replayed to confirm determinism, delta-debugged
    down to a minimal counterexample ({!Shrink}), and re-run once more
    with the flight recorder and a metrics registry attached, so the
    report carries the failing schedule's records alongside the minimal
    reorder trace.

    This module is the sequential reference; {!Pool} fans the same
    exploration out over worker domains and produces the same report
    type (and, for a given strategy/budget/seed, the same violations and
    distinct-schedule count). *)

type violation = {
  invariant : string;  (** name of the first violated invariant *)
  detail : string;
  seed : int64;  (** harness seed of the failing run *)
  counterexample : Schedule.t;  (** minimal failing deviation trace *)
  original_deviations : int;  (** trace length before shrinking *)
  shrink_runs : int;  (** simulator re-runs spent shrinking *)
  blackbox : string;
      (** flight-recorder window of the minimal replay, in
          {!Obs.Postmortem} dump format — every shrunk counterexample
          ships its own black box *)
  window : Obs.Recorder.t;
      (** the same window, for {!Obs.Recorder.to_trace} *)
  metrics : Obs.Metrics.t;  (** the minimal replay's metrics registry *)
}

type report = {
  strategy : string;
  budget : int;
  jobs : int;  (** worker domains that executed the schedules (1 = serial) *)
  schedules : int;  (** schedules actually executed *)
  distinct : int;  (** distinct outcome fingerprints observed *)
  steps_total : int;  (** simulator events stepped, summed over runs *)
  elapsed_s : float;  (** wall time, monotonic clock *)
  cpu_s : float;  (** process CPU time, aggregated over all domains *)
  violations : violation list;
}

val schedules_per_sec : report -> float
(** Schedules per wall-clock second. *)

val wall : unit -> float
(** Monotonic wall clock in seconds (arbitrary origin). *)

val cpu : unit -> float
(** Process CPU time in seconds, summed over every running domain. *)

val explore :
  ?strategy:Strategy.t ->
  ?budget:int ->
  ?quantum_us:int ->
  ?stop_at_first:bool ->
  Harness.config ->
  report
(** [explore cfg] drives [budget] (default 500) schedules.  [quantum_us]
    (default 200) is the packet-delay quantum handed to the controller.
    With [stop_at_first] (default [true]) exploration stops at the first
    violation; otherwise it keeps going and accumulates them. *)

val build_violation :
  quantum:Dsim.Time.Span.t ->
  Harness.config ->
  seed:int64 ->
  first_invariant:string ->
  deviations:Schedule.t ->
  violation
(** Confirm, shrink and render one violating run (sequentially).  Shared
    with {!Pool}, which performs discovery in parallel but always shrinks
    on the calling domain, in schedule order, so its reports do not
    depend on domain count. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
