(** Fixed-bin-width histogram with probability-density estimation.

    Used to reproduce the paper's Figure 5 (probability density function of
    the end-to-end latency) and the token-passing-time calibration plot. *)

type t

val create : ?lo:float -> bin_width:float -> unit -> t
(** [create ~lo ~bin_width ()] makes an empty histogram whose bin [i] covers
    [\[lo + i*w, lo + (i+1)*w)].  [lo] defaults to [0.].  Raises
    [Invalid_argument] if [bin_width <= 0]. *)

val add : t -> float -> unit
(** Samples below [lo] are clamped into the first bin. *)

val add_int : t -> int -> unit
(** [add t (float_of_int x)], allocation-free once the bins cover [x]. *)

val count : t -> int
(** Total number of samples. *)

val bin_count : t -> int
(** Index of the highest non-empty bin + 1 (0 when empty). *)

val bin_lo : t -> int -> float
(** Lower edge of bin [i]. *)

val bin_mid : t -> int -> float
val samples_in : t -> int -> int

val density : t -> int -> float
(** [density t i] is the estimated probability density over bin [i]:
    fraction of samples in the bin (so densities over bins sum to 1, the
    normalization the paper's Figure 5 uses). *)

val mode_bin : t -> int
(** Index of the fullest bin.  Raises [Invalid_argument] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] estimates the [q]-quantile ([0. <= q <= 1.]) by
    scanning the cumulative bin counts and interpolating linearly
    inside the bin holding the target rank — the resolution is the bin
    width, which is what a fixed-bin histogram can honestly promise.
    Raises [Invalid_argument] when the histogram is empty or [q] is
    outside [0, 1]. *)

val rows : t -> (float * float) list
(** [(bin midpoint, density)] for every bin up to the last non-empty one. *)

val pp : Format.formatter -> t -> unit
(** ASCII rendering: one line per bin with a bar proportional to density. *)
