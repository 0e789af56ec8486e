(** Drift detection over prediction residuals.

    The adapter feeds one residual per observed program execution —
    [log(observed / corrected-predicted)] region-cycle totals — and asks
    whether the residual distribution has {e shifted} mid-stream. A
    two-sided Page–Hinkley test over deviations from the running mean
    answers that: a constant model bias (residuals stable around any
    value) never fires, because the running mean absorbs it; a change in
    the execution environment (residuals jump to a new level) accumulates
    deviation mass and trips the [lambda] threshold within a few
    observations. An EWMA of the residuals is tracked alongside for
    reporting. The detector self-resets when it fires.

    The constants are fixed, in log-residual units: slack
    [delta = 0.05], threshold [lambda = 0.5] and EWMA smoothing
    [alpha = 0.2], so the detector fires after a handful of observations
    once costs shift by about 20%. *)

type t

val create : unit -> t

val observe : t -> float -> bool
(** Feed one residual; returns [true] when drift is detected (the detector
    resets itself before returning). *)

val reset : t -> unit

val count : t -> int
(** Observations since the last reset/fire. *)

val mean : t -> float
(** Running mean of residuals since the last reset. *)

val ewma : t -> float
(** Exponentially-weighted residual level (0 until first observation). *)
