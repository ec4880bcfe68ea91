(** Chrome trace-event export and validation.

    A trace is a finished array of events, built from the flight
    recorder's window by {!Recorder.to_trace}.  Events carry the
    {e simulated} timestamp (integer nanoseconds), the replica identity
    as [pid] and the {!Subsystem} as [tid], so a dump loads directly
    into Perfetto / [chrome://tracing] with one process row per replica
    and one named thread row per subsystem. *)

type phase = Begin | End | Instant

type event = {
  ph : phase;
  ts_ns : int;  (** simulated time, ns *)
  pid : int;  (** replica / node id ([0] doubles as "the simulator") *)
  sub : Subsystem.t;
  name : string;
  args : (string * int) list;
}

type t

val of_list : event list -> t
val length : t -> int
val events : t -> event list
val subsystems : t -> Subsystem.t list
(** Distinct subsystems appearing in the trace. *)

val to_chrome : ?process_name:(int -> string) -> t -> Buffer.t -> unit
(** Append the whole trace as one Chrome trace-event JSON document
    ([{"traceEvents": [...]}]).  [ts] is emitted in microseconds with
    three decimals so nanosecond order is preserved; process / thread
    name metadata records are emitted for every (pid, subsystem) pair
    present. *)

val write_chrome_file : ?process_name:(int -> string) -> t -> string -> unit

(** {2 Validation}

    A dependency-free JSON reader plus the schema checks CI runs against
    emitted traces. *)

type summary = {
  v_events : int;  (** non-metadata trace events *)
  v_pids : int;
  v_subsystems : string list;  (** distinct thread names, sorted *)
}

val validate_string : string -> (summary, string) result
(** Checks that the input is well-formed JSON, carries a [traceEvents]
    array whose events have [ph]/[pid]/[tid] (and [ts] for non-metadata
    phases), that timestamps are non-decreasing per [(pid, tid)] and
    that no End closes an unopened span (spans still open when the
    capture ends are allowed). *)

val validate_file : string -> (summary, string) result
