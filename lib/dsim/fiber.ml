exception Not_in_fiber

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(* Fiber identity: set while a fiber's code runs (including after every
   resumption), cleared around it.  Fibers are cooperative, so a simple
   save/restore discipline is enough.  Both cells are domain-local: each
   domain runs its own engine (Mc.Pool gives every worker domain a private
   simulator), and fiber identity must not bleed between them. *)
let next_id_key = Domain.DLS.new_key (fun () -> ref 0)

(* Stored as a plain int (0 = not in a fiber; real ids start at 1) so
   entering/leaving a fiber on every resume allocates nothing. *)
let current_key : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let current_id () =
  match !(Domain.DLS.get current_key) with 0 -> None | id -> Some id

let fresh_id () =
  let r = Domain.DLS.get next_id_key in
  incr r;
  !r

(* Hand-rolled [Fun.protect]: this wraps every fiber body and resumption,
   so the [finally] closure is worth avoiding. *)
let with_id id f =
  let current = Domain.DLS.get current_key in
  let prev = !current in
  current := id;
  match f () with
  | v ->
      current := prev;
      v
  | exception e ->
      current := prev;
      raise e

(* Fiber probes live inside closures that already exist (the resume
   thunk and the spawn thunk), so the disabled path adds nothing beyond
   the sink's load + branch; [eng] was already captured. *)
let probe_fiber eng ~start id =
  let s = Engine.obs eng in
  if s.Obs.Sink.on then
    Obs.Sink.emit s
      ~kind:
        (if start then Obs.Recorder.k_fiber_spawn
         else Obs.Recorder.k_fiber_switch)
      ~ts_us:(Time.to_ns (Engine.now eng) / 1000)
      ~node:0 ~a:id ~b:0

let spawn eng f =
  let open Effect.Deep in
  let id = fresh_id () in
  let handler =
    {
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (b, _) continuation) ->
                  let resumed = ref false in
                  let resume () =
                    if !resumed then
                      invalid_arg "Fiber: resume called twice"
                    else begin
                      resumed := true;
                      probe_fiber eng ~start:false id;
                      with_id id (fun () -> continue k ())
                    end
                  in
                  register resume)
          | _ -> None);
    }
  in
  Engine.schedule eng Time.Span.zero (fun () ->
      probe_fiber eng ~start:true id;
      with_id id (fun () -> try_with f () handler))

let suspend register =
  try Effect.perform (Suspend register)
  with Effect.Unhandled _ -> raise Not_in_fiber

let sleep eng d =
  let register resume = Engine.schedule eng d resume in
  suspend register

let yield eng = sleep eng Time.Span.zero
