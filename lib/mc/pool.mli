(** Multicore schedule exploration.

    Fans the {!Explore} loop out over [jobs] worker domains (OCaml 5
    [Domain]s).  Every harness run is a pure function of its seed and
    controller spec, and each domain builds its own engine, network and
    RNGs, so workers share nothing but the work dispenser and the
    results.

    Reports are deterministic: for a fixed strategy, budget and seed, the
    violation list and the distinct-schedule count are identical whatever
    [jobs] is, and identical to the sequential {!Explore.explore}.

    There is one work dispenser per strategy, and no wave barrier:

    - [Random]: run [i] is a pure function of [i]
      ({!Strategy.random_run}), so workers draw indices from one shared
      atomic counter and write result slot [i], which no other worker
      touches.
    - [Bounded]: workers pop deviation-prefix specs from one
      mutex-guarded FIFO and push the children of what they ran into it,
      recording each result in a trace-keyed table; a sequential
      canonical replay then walks the exact BFS FIFO order off that table
      (running any task the workers missed on the spot), so the output is
      independent of how the tree was raced.

    The merge dedupes schedules by outcome fingerprint, orders violations
    by schedule index, and confirms/shrinks each violation sequentially
    on the calling domain ({!Explore.build_violation}).  With
    [stop_at_first], the report covers exactly the schedule prefix up to
    the first violation — domains may race a little past it, but the
    extra runs are discarded, not reported. *)

val explore :
  ?strategy:Strategy.t ->
  ?budget:int ->
  ?quantum_us:int ->
  ?stop_at_first:bool ->
  ?jobs:int ->
  Harness.config ->
  Explore.report
(** [explore ~jobs cfg] is {!Explore.explore} distributed over [jobs]
    worker domains (default 1: run everything on the calling domain, no
    domain is spawned).  Raises [Invalid_argument] if [jobs < 1]. *)
