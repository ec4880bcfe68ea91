type t = {
  mutable on : bool;
  mutable steps : bool;
  mutable recorder : Recorder.t option;
  mutable health : Health.t option;
  mutable metrics : Metrics.t option;
  mutable attrib : Attrib.t option;
}

let create () =
  {
    on = false;
    steps = false;
    recorder = None;
    health = None;
    metrics = None;
    attrib = None;
  }

let refresh t =
  t.on <- t.recorder <> None || t.health <> None || t.metrics <> None

let attach ?metrics t =
  (match metrics with Some _ -> t.metrics <- metrics | None -> ());
  refresh t

let set_recorder t r =
  t.recorder <- r;
  refresh t

let set_health t h =
  t.health <- h;
  refresh t

let set_steps t v = t.steps <- v
let metrics t = t.metrics

(* One record, three consumers, each a load and a branch when absent.
   The recorder and the metrics registry take the ints as they are, so
   a sink with only those attached allocates nothing. *)
let emit t ~kind ~ts_us ~node ~a ~b =
  (match t.recorder with
  | Some r -> Recorder.emit r ~kind ~ts_us ~node ~a ~b
  | None -> ());
  (match t.metrics with Some m -> Metrics.record m ~kind ~b | None -> ());
  match t.health with
  | Some h ->
      (Health.observe h ~kind ~ts_us ~node ~a ~b
      [@ctslint.allow
        "hotpath-alloc"
          "the health monitor's invariant checks walk hashtables; \
           attaching a monitor deliberately trades the zero-alloc \
           guarantee of the recorder lane for diagnosis"])
  | None -> ()
[@@ctslint.hotpath]

(* Wall-time attribution is not a record: it measures host time, which
   a record cannot carry, so it keeps its own option.  Disabled cost is
   one load + one branch. *)

let set_attrib t a = t.attrib <- a

let attr_enter t site =
  match t.attrib with Some a -> Attrib.enter a site | None -> ()
[@@inline]

let attr_leave t =
  match t.attrib with Some a -> Attrib.leave a | None -> ()
[@@inline]
