(** Diff-based snapshot/restore of a live heap graph.

    {!capture} pairs every mutable-capable block reachable from a root
    with a shadow copy; {!restore} sweeps the pairs and writes back only
    the fields that drifted — a dirty-set rewind that allocates nothing
    and preserves the physical identity of every block, unlike a
    [Marshal] round-trip which rebuilds the whole world.

    Known limits (all degrade to a verified fallback, never to wrong
    results): custom blocks (Bigarray RNG state), lazies, objects and
    continuations are leaf-shared, not restored — the harness rewinds
    RNGs through its own reseed protocol and verifies every snapshot
    with a restore-vs-pristine probe run before trusting it, falling back
    to fresh construction when the probe fails
    ({!Harness.reuse_mode}). *)

type t

val capture : 'a -> t
(** [capture root] walks the graph reachable from [root] (running a
    [Gc.full_major] first so block addresses are stable) and records a
    shadow copy of every restorable block.  O(live graph), runs once per
    reusable world. *)

val restore : t -> int
(** Rewind every captured block to its captured contents, returning the
    number of dirty fields written.  Blocks allocated after the capture
    become unreachable (ordinary garbage) as the captured fields pointing
    at them are rewound. *)

val blocks : t -> int
(** Number of blocks recorded by the capture (diagnostics). *)
