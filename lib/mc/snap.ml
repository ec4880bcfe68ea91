(* Diff-based snapshot/restore of a live heap graph.

   [capture root] walks the object graph reachable from [root] and pairs
   every mutable-capable block with an [Obj.dup] shadow copy taken at
   capture time.  [restore] walks the recorded pairs and writes back only
   the fields that differ from their shadow — a dirty-set rewind: a run
   that touched 1% of the world costs 1% of the writes (reads are a
   single sequential sweep), and — unlike [Marshal.from_bytes] — restore
   allocates nothing and preserves the physical identity of every block,
   so pointers held outside the snapshot stay valid.

   Soundness of keying blocks by address: capture begins with
   [Gc.full_major], which promotes every reachable block to the major
   heap, and the OCaml 5 major heap never moves objects (no compaction
   unless [Gc.compact] is called, which this codebase never does).  The
   shadows allocated during the walk are young and may move, but they are
   held as ordinary values (the GC rewrites our references), never
   address-hashed.

   What is walked, by tag:
   - ordinary blocks (tag <= 243: records, tuples, variants, arrays) —
     paired, all fields walked and restorable;
   - closures (247) — paired; only the environment (from
     [Obj.Closure.info.start_env]) is walked/compared: the leading words
     are code pointers and arity words, which must never be extracted as
     values (they are naked out-of-heap pointers) and never change;
   - strings/bytes (252) — paired, restored by whole-block compare+blit;
   - flat float records/arrays (254) — paired, restored per
     [Obj.double_field];
   - everything else (customs 255 — Bigarray RNG state among them —
     lazy/forcing 246/244, forward 250, infix 249, objects 248,
     continuations 245, abstract 251, boxed doubles 253) is shared as a
     leaf: either immutable, or restored by other means (the harness
     rewinds RNG customs through its own reseed protocol), or absent from
     the worlds we snapshot.  [Harness] verifies each snapshot with a
     restore-vs-pristine probe run and falls back to fresh construction
     when a world contains unrestorable state, so incompleteness here degrades
     speed, never correctness. *)

type t = {
  lives : Obj.t array; (* block i, the live object *)
  shadows : Obj.t array; (* dup of block i at capture time *)
}

let empty_slot = Obj.repr 0

(* Raw pointer bits folded into a well-formed tagged int.  [lsr]
   immediately retags the intermediate, and nothing allocates in
   between, so the naked word never survives to a GC point. *)
let addr_hash (o : Obj.t) : int = (Obj.magic o : int) lsr 3
[@@inline]

(* Open-addressing identity set of visited blocks, keyed by address,
   probed by physical equality.  Only needed during [capture]; not
   retained in the snapshot. *)
type table = { mutable keys : Obj.t array; mutable mask : int; mutable n : int }

let rec table_add tb o =
  let keys = tb.keys in
  let mask = tb.mask in
  let rec probe i =
    let k = Array.unsafe_get keys i in
    if
      (k == empty_slot)
      [@ctslint.allow
        "phys-equality"
          "identity table: empty-slot sentinel is the immediate 0, present \
           only where no key was written"]
    then begin
      Array.unsafe_set keys i o;
      tb.n <- tb.n + 1;
      true
    end
    else if
      (k == o)
      [@ctslint.allow
        "phys-equality"
          "identity table: membership is physical identity of a \
           major-heap block, the very relation being tested"]
    then false
    else probe ((i + 1) land mask)
  in
  if 2 * tb.n >= mask then begin
    (* grow and rehash *)
    let old = tb.keys in
    let cap = 2 * (tb.mask + 1) in
    tb.keys <- Array.make cap empty_slot;
    tb.mask <- cap - 1;
    tb.n <- 0;
    Array.iter
      (fun k ->
        if
          (k != empty_slot)
          [@ctslint.allow
            "phys-equality" "identity table rehash: skip empty sentinel"]
        then ignore (table_add tb k : bool))
      old;
    table_add tb o
  end
  else probe (addr_hash o land mask)

(* Growable pair buffer. *)
type buf = { mutable a : Obj.t array; mutable len : int }

let buf_push b o =
  if b.len = Array.length b.a then begin
    let a = Array.make (max 64 (2 * b.len)) empty_slot in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- o;
  b.len <- b.len + 1

let ordinary_max_tag = Obj.last_non_constant_constructor_tag (* 243 *)

let capture root =
  Gc.full_major ();
  let tb = { keys = Array.make 65536 empty_slot; mask = 65535; n = 0 } in
  let lives = { a = Array.make 1024 empty_slot; len = 0 } in
  let shadows = { a = Array.make 1024 empty_slot; len = 0 } in
  let stack = { a = Array.make 1024 empty_slot; len = 0 } in
  let consider o =
    if Obj.is_block o then buf_push stack o
  in
  consider (Obj.repr root);
  while stack.len > 0 do
    stack.len <- stack.len - 1;
    let o = stack.a.(stack.len) in
    if table_add tb o then begin
      let tag = Obj.tag o in
      if tag <= ordinary_max_tag then begin
        let n = Obj.size o in
        if n > 0 then begin
          buf_push lives o;
          buf_push shadows (Obj.dup o);
          for j = 0 to n - 1 do
            consider (Obj.field o j)
          done
        end
      end
      else if tag = Obj.closure_tag then begin
        let start = (Obj.Closure.info o).Obj.Closure.start_env in
        let n = Obj.size o in
        if start < n then begin
          buf_push lives o;
          buf_push shadows (Obj.dup o);
          for j = start to n - 1 do
            consider (Obj.field o j)
          done
        end
      end
      else if tag = Obj.string_tag || tag = Obj.double_array_tag then begin
        buf_push lives o;
        buf_push shadows (Obj.dup o)
      end
      (* all other tags: leaf-shared, see the header comment *)
    end
  done;
  {
    lives = Array.sub lives.a 0 lives.len;
    shadows = Array.sub shadows.a 0 shadows.len;
  }

let blocks t = Array.length t.lives

(* Write back every field that drifted from its shadow; returns the
   number of fields (or string/float-array blocks) rewound. *)
let restore t =
  let dirty = ref 0 in
  let n = Array.length t.lives in
  for i = 0 to n - 1 do
    let live = Array.unsafe_get t.lives i in
    let sh = Array.unsafe_get t.shadows i in
    let tag = Obj.tag sh in
    if tag = Obj.string_tag then begin
      let lb : bytes = Obj.obj live and sb : bytes = Obj.obj sh in
      if not (Bytes.equal lb sb) then begin
        Bytes.blit sb 0 lb 0 (Bytes.length sb);
        incr dirty
      end
    end
    else if tag = Obj.double_array_tag then
      for j = 0 to Obj.size sh - 1 do
        let v = Obj.double_field sh j in
        if Obj.double_field live j <> v then begin
          Obj.set_double_field live j v;
          incr dirty
        end
      done
    else begin
      let start =
        if tag = Obj.closure_tag then (Obj.Closure.info sh).Obj.Closure.start_env
        else 0
      in
      for j = start to Obj.size sh - 1 do
        let v = Obj.field sh j in
        if
          (Obj.field live j != v)
          [@ctslint.allow
            "phys-equality"
              "dirty test: a field is rewound exactly when it no longer \
               holds the captured word; physical identity is the \
               correctness criterion, not an approximation of it"]
        then begin
          Obj.set_field live j v;
          incr dirty
        end
      done
    end
  done;
  !dirty
