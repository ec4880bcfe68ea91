type t = {
  lo : float;
  bin_width : float;
  mutable bins : int array;
  mutable count : int;
  mutable highest : int; (* index of highest non-empty bin, -1 when empty *)
}

let create ?(lo = 0.) ~bin_width () =
  if bin_width <= 0. then invalid_arg "Histogram.create: bin_width <= 0";
  { lo; bin_width; bins = Array.make 64 0; count = 0; highest = -1 }

let index t x =
  let i = int_of_float (Float.floor ((x -. t.lo) /. t.bin_width)) in
  if i < 0 then 0 else i

let ensure t i =
  if i >= Array.length t.bins then begin
    let n = ref (Array.length t.bins) in
    while i >= !n do
      n := 2 * !n
    done;
    let bigger = Array.make !n 0 in
    Array.blit t.bins 0 bigger 0 (Array.length t.bins);
    t.bins <- bigger
  end

let add_at t i =
  t.bins.(i) <- t.bins.(i) + 1;
  t.count <- t.count + 1;
  if i > t.highest then t.highest <- i

let add t x =
  let i = index t x in
  ensure t i;
  add_at t i

(* [index] on an int sample, with no boxed float crossing a call.  For a
   non-negative quotient truncation is floor, and a negative one clamps
   to bin 0 either way, so the bin is exactly [index]'s. *)
let add_int t x =
  let i = int_of_float ((float_of_int x -. t.lo) /. t.bin_width) in
  let i = if i < 0 then 0 else i in
  if i >= Array.length t.bins then
    (ensure t i
    [@ctslint.allow
      "hotpath-alloc"
        "amortized bin-array doubling; a sample inside the bins seen so \
         far never grows"]);
  add_at t i

let count t = t.count
let bin_count t = t.highest + 1
let bin_lo t i = t.lo +. (float_of_int i *. t.bin_width)
let bin_mid t i = bin_lo t i +. (t.bin_width /. 2.)
let samples_in t i = if i <= t.highest then t.bins.(i) else 0

let density t i =
  if t.count = 0 then 0.
  else float_of_int (samples_in t i) /. float_of_int t.count

let mode_bin t =
  if t.count = 0 then invalid_arg "Histogram.mode_bin: empty";
  let best = ref 0 in
  for i = 1 to t.highest do
    if t.bins.(i) > t.bins.(!best) then best := i
  done;
  !best

let quantile t q =
  if t.count = 0 then invalid_arg "Histogram.quantile: empty";
  if q < 0. || q > 1. then invalid_arg "Histogram.quantile: q outside [0, 1]";
  (* rank of the sample we want, 1-based; q = 0 picks the first sample *)
  let target =
    let r = Float.round (q *. float_of_int t.count) in
    if r < 1. then 1. else r
  in
  let target = int_of_float target in
  let i = ref 0 and cum = ref 0 in
  while !cum + t.bins.(!i) < target do
    cum := !cum + t.bins.(!i);
    incr i
  done;
  (* linear interpolation inside the bin holding the target rank *)
  let inside = float_of_int (target - !cum) /. float_of_int t.bins.(!i) in
  bin_lo t !i +. (inside *. t.bin_width)

let rows t =
  List.init (bin_count t) (fun i -> (bin_mid t i, density t i))

let pp ppf t =
  if t.count = 0 then Format.fprintf ppf "(empty histogram)"
  else begin
    let dmax = density t (mode_bin t) in
    for i = 0 to t.highest do
      let d = density t i in
      let bar = int_of_float (d /. dmax *. 50.) in
      Format.fprintf ppf "%10.1f | %-50s %.4f@." (bin_mid t i)
        (String.make bar '#') d
    done
  end
