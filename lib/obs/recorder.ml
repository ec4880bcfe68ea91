(* Always-on flight recorder: a fixed-capacity ring of compact
   int-encoded records.  One record is [stride] consecutive cells of a
   flat [int array] — kind, simulated-µs timestamp, node, and two
   payload ints — so the steady-state wrap path performs five integer
   stores and two mutable-field writes and allocates nothing.  The
   subsystem is a static property of the kind and is not stored. *)

type t = {
  buf : int array;
  cap : int; (* capacity in records *)
  mutable pos : int; (* next write slot, 0 <= pos < cap *)
  mutable total : int; (* records ever emitted *)
}

let stride = 5
let default_capacity = 65_536

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity <= 0";
  { buf = Array.make (capacity * stride) 0; cap = capacity; pos = 0; total = 0 }

let capacity t = t.cap
let total t = t.total
let length t = if t.total < t.cap then t.total else t.cap
let dropped t = t.total - length t

let clear t =
  t.pos <- 0;
  t.total <- 0

let emit t ~kind ~ts_us ~node ~a ~b =
  let base = t.pos * stride in
  let buf = t.buf in
  buf.(base) <- kind;
  buf.(base + 1) <- ts_us;
  buf.(base + 2) <- node;
  buf.(base + 3) <- a;
  buf.(base + 4) <- b;
  let p = t.pos + 1 in
  t.pos <- (if p = t.cap then 0 else p);
  t.total <- t.total + 1
[@@inline] [@@ctslint.hotpath]

(* ------------------------------------------------------------------ *)
(* Record kinds.  Adding a kind means extending [kind_name],
   [kind_sub] and [arg_names] below — [Postmortem] decodes through
   these three tables only. *)

let k_step = 0
let k_fiber_spawn = 1
let k_fiber_switch = 2
let k_send = 3
let k_deliver = 4
let k_drop = 5
let k_token = 6
let k_gather = 7
let k_operational = 8
let k_view = 9
let k_ccs_open = 10
let k_ccs_settle = 11
let k_ccs_suppress = 12
let k_ccs_discard = 13
let k_gc_sample = 14
let k_hier_round = 15
let k_hier_correct = 16
let k_hier_elect = 17
let k_rpc_call = 18
let k_rpc_return = 19
let k_rpc_timeout = 20
let k_repl_request = 21
let k_repl_checkpoint = 22
let k_repl_state = 23
let kind_count = 24

let kind_name = function
  | 0 -> "step"
  | 1 -> "fiber-spawn"
  | 2 -> "fiber-switch"
  | 3 -> "send"
  | 4 -> "deliver"
  | 5 -> "drop"
  | 6 -> "token"
  | 7 -> "gather"
  | 8 -> "operational"
  | 9 -> "view"
  | 10 -> "ccs-open"
  | 11 -> "ccs-settle"
  | 12 -> "ccs-suppress"
  | 13 -> "ccs-discard"
  | 14 -> "gc-sample"
  | 15 -> "hier-round"
  | 16 -> "hier-correct"
  | 17 -> "hier-elect"
  | 18 -> "rpc-call"
  | 19 -> "rpc-return"
  | 20 -> "rpc-timeout"
  | 21 -> "repl-request"
  | 22 -> "repl-checkpoint"
  | 23 -> "state-applied"
  | _ -> "?"

let kind_sub = function
  | 0 | 1 | 2 -> Subsystem.Dsim
  | 3 | 4 | 5 -> Subsystem.Netsim
  | 6 | 7 | 8 -> Subsystem.Totem
  | 9 -> Subsystem.Gcs
  | 10 | 11 | 12 | 13 | 14 -> Subsystem.Ccs
  | 15 | 16 | 17 -> Subsystem.Hier
  | 18 | 19 | 20 -> Subsystem.Rpc
  | 21 | 22 | 23 -> Subsystem.Repl
  | _ -> Subsystem.Scenario

(* Names of the [a] / [b] payloads per kind ("" = unused). *)
let arg_names = function
  | 0 -> ("at_us", "")
  | 1 -> ("fiber", "")
  | 2 -> ("fiber", "")
  | 3 -> ("dst", "")
  | 4 -> ("src", "pos")
  | 5 -> ("src", "reason")
  | 6 -> ("seq", "aru")
  | 7 -> ("members", "")
  | 8 -> ("gen", "members")
  | 9 -> ("members", "primary")
  | 10 -> ("round", "thread")
  | 11 -> ("round", "adj_us")
  | 12 -> ("round", "")
  | 13 -> ("round", "")
  | 14 -> ("gc_us", "thread")
  | 15 -> ("round", "")
  | 16 -> ("round", "ahead_us")
  | 17 -> ("shard", "gateway")
  | 18 -> ("seq", "")
  | 19 -> ("seq", "latency_us")
  | 20 -> ("seq", "elapsed_us")
  | 21 -> ("index", "")
  | 22 | 23 -> ("upto", "")
  | _ -> ("a", "b")

(* Drop reasons mirror [Netsim.Network]'s encoding. *)
let drop_reason_name = function
  | 0 -> "loss"
  | 1 -> "partitioned"
  | 2 -> "no-port"
  | _ -> "?"

let iter t f =
  let n = length t in
  let start = if t.total <= t.cap then 0 else t.pos in
  for i = 0 to n - 1 do
    let idx = start + i in
    let idx = if idx >= t.cap then idx - t.cap else idx in
    let base = idx * stride in
    f ~kind:t.buf.(base) ~ts_us:t.buf.(base + 1) ~node:t.buf.(base + 2)
      ~a:t.buf.(base + 3) ~b:t.buf.(base + 4)
  done

(* Chrome export.  Two kinds bracket an interval and become B/E span
   pairs: a CCS round (open .. settle) and an rpc invocation (call ..
   return or timeout).  A close whose open was overwritten by ring wrap
   stays an instant, so the exported trace never ends an unopened span;
   every other record is an instant.  Rounds and invocations on one
   node are sequential per thread, so per-node depth counting pairs
   them the way the protocol nests them. *)

let span_of_kind kind =
  if kind = k_ccs_open || kind = k_ccs_settle then "ccs-round"
  else if kind = k_rpc_call || kind = k_rpc_return || kind = k_rpc_timeout
  then "rpc"
  else ""

let to_trace t =
  let depth : (int * string, int) Hashtbl.t = Hashtbl.create 16 in
  let events = ref [] in
  iter t (fun ~kind ~ts_us ~node ~a ~b ->
      let an, bn = arg_names kind in
      let args =
        if an = "" then [] else if bn = "" then [ (an, a) ] else [ (an, a); (bn, b) ]
      in
      let ph, name =
        match span_of_kind kind with
        | "" -> (Trace.Instant, kind_name kind)
        | span ->
            let key = (node, span) in
            let d = Option.value ~default:0 (Hashtbl.find_opt depth key) in
            if kind = k_ccs_open || kind = k_rpc_call then begin
              Hashtbl.replace depth key (d + 1);
              (Trace.Begin, span)
            end
            else if d > 0 then begin
              Hashtbl.replace depth key (d - 1);
              (Trace.End, span)
            end
            else (Trace.Instant, kind_name kind)
      in
      events :=
        { Trace.ph; ts_ns = ts_us * 1000; pid = node; sub = kind_sub kind; name; args }
        :: !events);
  Trace.of_list (List.rev !events)
