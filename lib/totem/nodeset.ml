type mut
type frozen

(* Bit [b] of [words.(i)] stands for node id [32 * (base + i) + b]; only
   the low 32 bits of a word are used, so word and bit of an id are a
   shift and a mask.  The span [base, base + length words) grows to cover
   what is added and never shrinks. *)
type 'k set = { mutable base : int; mutable words : int array }
type t = mut set
type snap = frozen set

let create () = { base = 0; words = [||] }

(* Stdlib's [lnot] is a function call; this is the same bit flip inline. *)
let compl x = x lxor (-1)

(* Word [w] of [s], 0 outside the span. *)
let word_at s w =
  let i = w - s.base in
  if i >= 0 && i < Array.length s.words then Array.unsafe_get s.words i else 0

(* Bits set in a 32-bit word (SWAR; the product cannot overflow 63 bits). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

(* Widen the span to cover words [lo, hi]. *)
let grow s lo hi =
  let n = Array.length s.words in
  let nb = if n = 0 then lo else min lo s.base
  and ne = if n = 0 then hi else max hi (s.base + n - 1) in
  let a = Array.make (ne - nb + 1) 0 in
  if n > 0 then Array.blit s.words 0 a (s.base - nb) n;
  s.base <- nb;
  s.words <- a

let cover s lo hi =
  if lo < s.base || hi >= s.base + Array.length s.words then
    (grow s lo hi
    [@ctslint.allow
      "hotpath-alloc"
        "span growth: a gather's sets reach their span within the first \
         joins, after which adds and unions only update words"])

let add s id =
  let id = Netsim.Node_id.to_int id in
  let w = id lsr 5 in
  cover s w w;
  let i = w - s.base in
  Array.unsafe_set s.words i
    (Array.unsafe_get s.words i lor (1 lsl (id land 31)))
[@@ctslint.hotpath]

let remove s id =
  let id = Netsim.Node_id.to_int id in
  let i = (id lsr 5) - s.base in
  if i >= 0 && i < Array.length s.words then
    Array.unsafe_set s.words i
      (Array.unsafe_get s.words i land compl (1 lsl (id land 31)))
[@@ctslint.hotpath]

let rec clear_from words i =
  if i >= 0 then begin
    Array.unsafe_set words i 0;
    clear_from words (i - 1)
  end

let clear s = clear_from s.words (Array.length s.words - 1)
[@@ctslint.hotpath]

let mem s id =
  let id = Netsim.Node_id.to_int id in
  word_at s (id lsr 5) land (1 lsl (id land 31)) <> 0
[@@ctslint.hotpath]

let rec cardinal_from words i acc =
  if i < 0 then acc
  else cardinal_from words (i - 1) (acc + popcount (Array.unsafe_get words i))

let cardinal s = cardinal_from s.words (Array.length s.words - 1) 0
[@@ctslint.hotpath]

let rec zero_from words i =
  i < 0 || (Array.unsafe_get words i = 0 && zero_from words (i - 1))

let is_empty s = zero_from s.words (Array.length s.words - 1)

(* The first non-zero word at or after [i], and the last at or before. *)
let rec first_nonzero words i n =
  if i < n && Array.unsafe_get words i = 0 then first_nonzero words (i + 1) n
  else i

let rec last_nonzero words i =
  if i >= 0 && Array.unsafe_get words i = 0 then last_nonzero words (i - 1)
  else i

let rec or_into dst src i last =
  if i <= last then begin
    let j = src.base + i - dst.base in
    Array.unsafe_set dst.words j
      (Array.unsafe_get dst.words j lor Array.unsafe_get src.words i);
    or_into dst src (i + 1) last
  end

let union_into dst src =
  let n = Array.length src.words in
  let first = first_nonzero src.words 0 n in
  if first < n then begin
    let last = last_nonzero src.words (n - 1) in
    cover dst (src.base + first) (src.base + last);
    or_into dst src first last
  end
[@@ctslint.hotpath]

let rec subset_from a b i =
  i < 0
  || Array.unsafe_get a.words i land compl (word_at b (a.base + i)) = 0
     && subset_from a b (i - 1)

let subset a b = subset_from a b (Array.length a.words - 1)
[@@ctslint.hotpath]

let rec subset_except_from mw mbit a b i =
  i < 0
  ||
  let w = a.base + i in
  let x = Array.unsafe_get a.words i in
  let x = if w = mw then x land compl mbit else x in
  x land compl (word_at b w) = 0 && subset_except_from mw mbit a b (i - 1)

let subset_except me a b =
  let me = Netsim.Node_id.to_int me in
  subset_except_from (me lsr 5) (1 lsl (me land 31)) a b
    (Array.length a.words - 1)
[@@ctslint.hotpath]

let rec diff_subset_from a b c i =
  i < 0
  ||
  let w = a.base + i in
  Array.unsafe_get a.words i land compl (word_at b w) land compl (word_at c w)
  = 0
  && diff_subset_from a b c (i - 1)

let diff_subset a b c = diff_subset_from a b c (Array.length a.words - 1)
[@@ctslint.hotpath]

let copy s = { base = s.base; words = Array.copy s.words }
let snapshot = copy

let diff a b =
  {
    base = a.base;
    words =
      Array.mapi (fun i x -> x land compl (word_at b (a.base + i))) a.words;
  }

let singleton id =
  let s = create () in
  add s id;
  s

let of_list ids =
  match ids with
  | [] -> create ()
  | id :: _ ->
      let w id = Netsim.Node_id.to_int id lsr 5 in
      let lo, hi =
        List.fold_left
          (fun (lo, hi) id -> (min lo (w id), max hi (w id)))
          (w id, w id) ids
      in
      let s = { base = lo; words = Array.make (hi - lo + 1) 0 } in
      List.iter (add s) ids;
      s

(* Index of the single bit of [b], a power of two. *)
let bit_index b = popcount (b - 1)

(* Ascending: words low to high, and within a word lowest bit first. *)
let fold f s acc =
  let acc = ref acc in
  Array.iteri
    (fun i x ->
      let x = ref x in
      while !x <> 0 do
        let low = !x land (- !x) in
        let id = (32 * (s.base + i)) + bit_index low in
        acc := f (Netsim.Node_id.of_int id) !acc;
        x := !x lxor low
      done)
    s.words;
  !acc

let iter f s = fold (fun id () -> f id) s ()
let elements s = List.rev (fold List.cons s [])

let min_elt s =
  let n = Array.length s.words in
  let i = first_nonzero s.words 0 n in
  if i = n then raise Not_found;
  let x = s.words.(i) in
  Netsim.Node_id.of_int ((32 * (s.base + i)) + bit_index (x land (-x)))

module Table = struct
  (* [slots.(i)] holds the value of id [lo + i] when that id is in [keys];
     other slots hold some earlier value as filler and are never read. *)
  type 'a t = { keys : mut set; mutable lo : int; mutable slots : 'a array }

  let create () = { keys = create (); lo = 0; slots = [||] }

  (* Cover id [id] in 32-id blocks, the same alignment as the key words. *)
  let grow tb id v =
    let n = Array.length tb.slots in
    let blo = id land compl 31 in
    let lo = if n = 0 then blo else min blo tb.lo in
    let hi = if n = 0 then blo + 31 else max (blo + 31) (tb.lo + n - 1) in
    let a = Array.make (hi - lo + 1) v in
    if n > 0 then Array.blit tb.slots 0 a (tb.lo - lo) n;
    tb.lo <- lo;
    tb.slots <- a

  let set tb id v =
    let k = Netsim.Node_id.to_int id in
    if k < tb.lo || k >= tb.lo + Array.length tb.slots then
      (grow tb k v
      [@ctslint.allow
        "hotpath-alloc"
          "span growth: a gather's join table covers its senders after the \
           first few joins"]);
    Array.unsafe_set tb.slots (k - tb.lo) v;
    add tb.keys id
  [@@ctslint.hotpath]

  let mem tb id = mem tb.keys id

  let find tb id =
    if not (mem tb id) then raise Not_found;
    tb.slots.(Netsim.Node_id.to_int id - tb.lo)
end
