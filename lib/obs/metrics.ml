(* Fixed-key counters live in a plain int array indexed by the key's
   constructor number, so the hot-path [incr] is one load, one add, one
   store — no boxing, no hashing, no allocation.  Everything dynamic
   (gauges, bench sections) is find-or-create by name and only touched
   from cold code. *)

type key =
  | Engine_events
  | Fiber_spawns
  | Fiber_switches
  | Net_sent
  | Net_delivered
  | Net_dropped
  | Totem_tokens
  | Totem_views
  | Gcs_views
  | Ccs_rounds
  | Ccs_wins
  | Ccs_suppressed
  | Ccs_discards
  | Ccs_offset_updates
  | Repl_requests
  | Repl_checkpoints
  | Rpc_calls
  | Rpc_timeouts
  | Hier_rounds
  | Hier_corrections
  | Hier_elections

let key_count = 21

let key_index = function
  | Engine_events -> 0
  | Fiber_spawns -> 1
  | Fiber_switches -> 2
  | Net_sent -> 3
  | Net_delivered -> 4
  | Net_dropped -> 5
  | Totem_tokens -> 6
  | Totem_views -> 7
  | Gcs_views -> 8
  | Ccs_rounds -> 9
  | Ccs_wins -> 10
  | Ccs_suppressed -> 11
  | Ccs_discards -> 12
  | Ccs_offset_updates -> 13
  | Repl_requests -> 14
  | Repl_checkpoints -> 15
  | Rpc_calls -> 16
  | Rpc_timeouts -> 17
  | Hier_rounds -> 18
  | Hier_corrections -> 19
  | Hier_elections -> 20

let key_name = function
  | Engine_events -> "engine_events"
  | Fiber_spawns -> "fiber_spawns"
  | Fiber_switches -> "fiber_switches"
  | Net_sent -> "net_sent"
  | Net_delivered -> "net_delivered"
  | Net_dropped -> "net_dropped"
  | Totem_tokens -> "totem_tokens"
  | Totem_views -> "totem_views"
  | Gcs_views -> "gcs_views"
  | Ccs_rounds -> "ccs_rounds"
  | Ccs_wins -> "ccs_wins"
  | Ccs_suppressed -> "ccs_suppressed"
  | Ccs_discards -> "ccs_discards"
  | Ccs_offset_updates -> "ccs_offset_updates"
  | Repl_requests -> "repl_requests"
  | Repl_checkpoints -> "repl_checkpoints"
  | Rpc_calls -> "rpc_calls"
  | Rpc_timeouts -> "rpc_timeouts"
  | Hier_rounds -> "hier_rounds"
  | Hier_corrections -> "hier_corrections"
  | Hier_elections -> "hier_elections"

let all_keys =
  [
    Engine_events; Fiber_spawns; Fiber_switches; Net_sent; Net_delivered;
    Net_dropped; Totem_tokens; Totem_views; Gcs_views; Ccs_rounds; Ccs_wins;
    Ccs_suppressed; Ccs_discards; Ccs_offset_updates; Repl_requests;
    Repl_checkpoints; Rpc_calls; Rpc_timeouts; Hier_rounds;
    Hier_corrections; Hier_elections;
  ]

type hkey = Ccs_adjustment_us | Rpc_latency_us

let hkey_index = function Ccs_adjustment_us -> 0 | Rpc_latency_us -> 1
let hkey_name = function
  | Ccs_adjustment_us -> "ccs_adjustment_us"
  | Rpc_latency_us -> "rpc_latency_us"

let all_hkeys = [ Ccs_adjustment_us; Rpc_latency_us ]

let make_hist = function
  (* Group-clock adjustments are signed and µs-scale (paper §3.4). *)
  | Ccs_adjustment_us -> Stats.Histogram.create ~lo:(-500.) ~bin_width:5. ()
  (* End-to-end invocation latency sits around one token rotation. *)
  | Rpc_latency_us -> Stats.Histogram.create ~bin_width:25. ()

type section = {
  s_name : string;
  mutable s_events : int;
  mutable s_ns : float;
  mutable s_minor_words : float;
}

type t = {
  counters : int array;
  hists : Stats.Histogram.t array;
  mutable gauges : (string * float ref) list;
  mutable sections : section list;
}

let create () =
  {
    counters = Array.make key_count 0;
    hists = Array.of_list (List.map make_hist all_hkeys);
    gauges = [];
    sections = [];
  }

let incr t k =
  let i = key_index k in
  Array.unsafe_set t.counters i (Array.unsafe_get t.counters i + 1)

let add t k n =
  let i = key_index k in
  Array.unsafe_set t.counters i (Array.unsafe_get t.counters i + n)

let get t k = t.counters.(key_index k)
let observe t hk v = Stats.Histogram.add t.hists.(hkey_index hk) v

(* Each record kind's counter or histogram sample.  Kinds are matched
   as {!Recorder}'s literal numbers (named alongside), so the match is a
   jump table. *)
let record t ~kind ~b =
  match kind with
  | 0 (* step *) -> incr t Engine_events
  | 1 (* fiber-spawn *) -> incr t Fiber_spawns
  | 2 (* fiber-switch *) -> incr t Fiber_switches
  | 3 (* send *) -> incr t Net_sent
  | 4 (* deliver *) -> incr t Net_delivered
  | 5 (* drop *) -> incr t Net_dropped
  | 6 (* token *) -> incr t Totem_tokens
  | 8 (* operational *) -> incr t Totem_views
  | 9 (* view *) -> incr t Gcs_views
  | 10 (* ccs-open *) -> incr t Ccs_rounds
  | 11 (* ccs-settle *) ->
      incr t Ccs_wins;
      incr t Ccs_offset_updates;
      Stats.Histogram.add_int t.hists.(hkey_index Ccs_adjustment_us) b
  | 12 (* ccs-suppress *) -> incr t Ccs_suppressed
  | 13 (* ccs-discard *) -> incr t Ccs_discards
  | 15 (* hier-round *) -> incr t Hier_rounds
  | 16 (* hier-correct *) -> incr t Hier_corrections
  | 17 (* hier-elect *) -> incr t Hier_elections
  | 18 (* rpc-call *) -> incr t Rpc_calls
  | 19 (* rpc-return *) ->
      Stats.Histogram.add_int t.hists.(hkey_index Rpc_latency_us) b
  | 20 (* rpc-timeout *) -> incr t Rpc_timeouts
  | 21 (* repl-request *) -> incr t Repl_requests
  | 22 (* repl-checkpoint *) -> incr t Repl_checkpoints
  | _ -> ()

let hist t hk = t.hists.(hkey_index hk)

let gauge t name =
  match List.assoc_opt name t.gauges with
  | Some r -> r
  | None ->
      let r = ref 0. in
      t.gauges <- (name, r) :: t.gauges;
      r

let section t name =
  match List.find_opt (fun s -> String.equal s.s_name name) t.sections with
  | Some s -> s
  | None ->
      let s = { s_name = name; s_events = 0; s_ns = 0.; s_minor_words = 0. } in
      t.sections <- s :: t.sections;
      s

let section_record s ~events ~ns ~minor_words =
  s.s_events <- s.s_events + events;
  s.s_ns <- s.s_ns +. ns;
  s.s_minor_words <- s.s_minor_words +. minor_words

let reset t =
  Array.fill t.counters 0 key_count 0;
  List.iteri (fun i hk -> t.hists.(i) <- make_hist hk) all_hkeys;
  List.iter (fun (_, r) -> r := 0.) t.gauges;
  List.iter
    (fun s ->
      s.s_events <- 0;
      s.s_ns <- 0.;
      s.s_minor_words <- 0.)
    t.sections

(* ------------------------------------------------------------------ *)
(* JSON snapshot                                                       *)

let buf_float b v =
  (* %.17g round-trips but is noisy; %g at 12 digits is plenty for
     counters-derived rates and keeps the snapshot readable. *)
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" v)
  else Buffer.add_string b (Printf.sprintf "%.12g" v)

let hist_json b h =
  Buffer.add_string b "{\"count\":";
  Buffer.add_string b (string_of_int (Stats.Histogram.count h));
  if Stats.Histogram.count h > 0 then begin
    Buffer.add_string b ",\"mode_bin_mid\":";
    buf_float b (Stats.Histogram.bin_mid h (Stats.Histogram.mode_bin h));
    (* fig5-style latency reporting wants percentiles, not just the
       mode; resolution is the histogram's bin width *)
    List.iter
      (fun (name, q) ->
        Buffer.add_string b (Printf.sprintf ",\"%s\":" name);
        buf_float b (Stats.Histogram.quantile h q))
      [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ]
  end;
  Buffer.add_char b '}'

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"counters\": {";
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": %d" (key_name k) (get t k)))
    all_keys;
  Buffer.add_string b "},\n  \"gauges\": {";
  List.iteri
    (fun i (name, r) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": " name);
      buf_float b !r)
    (List.rev t.gauges);
  Buffer.add_string b "},\n  \"histograms\": {";
  List.iteri
    (fun i hk ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": " (hkey_name hk));
      hist_json b t.hists.(hkey_index hk))
    all_hkeys;
  Buffer.add_string b "},\n  \"sections\": {";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ", ";
      let per_event f = if s.s_events = 0 then 0. else f /. float s.s_events in
      Buffer.add_string b (Printf.sprintf "\"%s\": {\"events\": %d, \"ns_per_event\": " s.s_name s.s_events);
      buf_float b (per_event s.s_ns);
      Buffer.add_string b ", \"bytes_per_event\": ";
      buf_float b (per_event (s.s_minor_words *. 8.));
      Buffer.add_char b '}')
    (List.rev t.sections);
  Buffer.add_string b "}\n}\n";
  Buffer.contents b
