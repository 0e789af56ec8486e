(** Piecewise-linear functions.

    The paper's micro-kernel performance model [g_predict (t, K, H)]
    (Section 3.3) is a piecewise-linear function of the number [t] of kernel
    instances in a pipelined task, learned from measurements. This module
    provides the fitting and evaluation machinery. *)

type t
(** A piecewise-linear function over floats, defined by its breakpoints.
    Evaluation extrapolates linearly beyond the first/last breakpoint. *)

val of_points : (float * float) list -> t
(** [of_points pts] builds the function interpolating [pts] exactly.
    Points are sorted by abscissa; duplicate abscissae are rejected.
    Requires at least two points. *)

val eval : t -> float -> float
(** Evaluate at an arbitrary abscissa. *)

val breakpoints : t -> (float * float) list
(** The defining breakpoints, in increasing abscissa order. *)

val to_string : t -> string
(** The breakpoints as space-separated [x:y] pairs, [%.9g] each — the
    artifact encoding of the kernel store and calibration profiles. *)

val points_of_string : string -> (float * float) list
(** Decode {!to_string}'s encoding (points only, unvalidated). Raises
    [Failure] on a malformed pair. *)

val fit : ?max_segments:int -> ?tolerance:float -> (float * float) list -> t
(** [fit samples] learns a compact piecewise-linear approximation of the
    sampled function by greedy segment merging: starts from the exact
    interpolant and removes interior breakpoints whose removal keeps the
    relative error of every dropped sample below [tolerance] (default 0.01),
    until at most [max_segments] segments remain (default 16). *)

val max_rel_error : t -> (float * float) list -> float
(** Largest relative error of the model against the given samples. *)
