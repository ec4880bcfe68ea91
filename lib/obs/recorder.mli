(** Always-on, zero-allocation flight recorder.

    A fixed-capacity ring buffer of compact int-encoded records — event
    kind, simulated-µs timestamp, node, and two payload ints — stored in
    one flat [int array].  [emit] on the steady-state wrap path is five
    integer stores and two field writes: no boxing, no branch on
    capacity growth, nothing for the GC.  This is what lets the recorder
    stay attached in every run (the black box).  It is the one probe
    format: {!Sink.emit} feeds each record to the recorder, the health
    monitor and {!Metrics} alike, and Chrome traces are exported from
    the window ({!to_trace}).

    The record layout is an internal encoding; decode through
    {!kind_name} / {!kind_sub} / {!arg_names}, or convert a window with
    {!to_trace} for the Chrome exporter.  The buffer is plain data, so
    [Mc.Snap] rewinds a sink carrying a recorder like any other world
    state ([Mc.Harness] world reuse). *)

type t

val stride : int
(** Ints per record (5). *)

val default_capacity : int
(** 65,536 records (~2.6 MB). *)

val create : ?capacity:int -> unit -> t
(** [capacity] is in records.  Raises [Invalid_argument] when <= 0. *)

val emit : t -> kind:int -> ts_us:int -> node:int -> a:int -> b:int -> unit
(** Append one record, overwriting the oldest once the ring is full.
    Allocation-free. *)

val capacity : t -> int
val total : t -> int
(** Records ever emitted (monotone; exceeds [capacity] after wrap). *)

val length : t -> int
(** Records currently held = [min total capacity]. *)

val dropped : t -> int
(** Records overwritten by wrap = [total - length]. *)

val clear : t -> unit

val iter :
  t ->
  (kind:int -> ts_us:int -> node:int -> a:int -> b:int -> unit) ->
  unit
(** Oldest to newest. *)

val to_trace : t -> Trace.t
(** Decode the window for {!Trace.write_chrome_file}: pid = node, tid =
    the kind's subsystem.  CCS rounds (open .. settle) and rpc
    invocations (call .. return or timeout) become B/E spans named
    ["ccs-round"] and ["rpc"]; every other record, and a close whose
    open was lost to wrap, is an instant named by {!kind_name}. *)

(** {1 Record kinds}

    The kind determines the subsystem and the meaning of the payload
    ints; see {!arg_names}. *)

val k_step : int
val k_fiber_spawn : int
val k_fiber_switch : int
val k_send : int
val k_deliver : int
val k_drop : int
val k_token : int
val k_gather : int
val k_operational : int
val k_view : int
val k_ccs_open : int
val k_ccs_settle : int
val k_ccs_suppress : int
val k_ccs_discard : int
val k_gc_sample : int
val k_hier_round : int
val k_hier_correct : int
val k_hier_elect : int
val k_rpc_call : int
val k_rpc_return : int
val k_rpc_timeout : int
val k_repl_request : int
val k_repl_checkpoint : int
val k_repl_state : int
val kind_count : int

val kind_name : int -> string
val kind_sub : int -> Subsystem.t
val arg_names : int -> string * string
(** Names of the [a] and [b] payloads; [""] marks an unused payload. *)

val drop_reason_name : int -> string
(** Decode the [b] payload of a [k_drop] record (mirrors
    [Netsim.Network]'s loss / partitioned / no-port encoding). *)
