(** Small statistics helpers used by the benchmark harness and the
    experiment drivers (speedup aggregation, percentile reporting). *)

val mean : float list -> float
(** Arithmetic mean. Raises [Invalid_argument] on the empty list. *)

val geomean : float list -> float
(** Geometric mean; the paper reports average speedups as means of ratios,
    we expose both. All values must be positive. *)

val stddev : float list -> float
(** Population standard deviation. *)

val median : float list -> float
(** Median (lower-interpolated for even lengths is averaged). *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], linear interpolation over
    [xs] sorted in [Float.compare] order (a NaN sample sorts first).
    Raises [Invalid_argument] on an empty [xs] or a [p] outside
    [\[0,100\]], NaN included. *)

val percentiles : float list -> float list -> float list
(** [percentiles ps xs] is [List.map (fun p -> percentile p xs) ps],
    bit for bit, from one sort of [xs]; it raises as {!percentile} does
    on an empty [xs] or a [p] out of range. *)

val percentiles_array : float list -> float array -> float list
(** [percentiles_array ps xs] is [percentiles ps (Array.to_list xs)],
    bit for bit, without building the list; it raises [Invalid_argument]
    where that does. [xs] is not modified. *)

val minimum : float list -> float

val maximum : float list -> float

val sum : float list -> float

val histogram : bins:int -> float list -> (float * float * int) array
(** [histogram ~bins xs] returns [(lo, hi, count)] per bin over the value
    range of [xs]. *)

val pearson : (float * float) list -> float
(** Pearson correlation coefficient of paired samples; used to validate the
    cost model against simulated time. *)

val kendall_tau : (float * float) list -> float
(** Kendall rank correlation (τ-b, tie-corrected) of paired samples; used by
    the adaptation layer to score how well predicted costs rank simulated
    costs. Returns 0 when either variable is constant. Requires at least two
    samples. *)
