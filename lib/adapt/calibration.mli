(** Per-(hardware, micro-kernel) correction layer on top of [g_predict].

    The online cost model predicts each region as [f_wave × f_pipe]
    (Equation 2). Calibration learns, per micro-kernel tile, a monotone
    map from that raw prediction to the observed region cycles reported by
    the simulator — [Scale] when a single operating point was seen,
    least-squares [Affine] for a few, and a compact piecewise-linear
    [Knots] model once the kernel has been observed across enough distinct
    predictions. Fitting is deterministic: samples are condensed (sorted,
    same-abscissa means) before any fit, so the same observations produce
    the same curves regardless of arrival interleaving. *)

type key = int * int * int
(** A micro-kernel tile identity [(uM, uN, uK)]. *)

type curve =
  | Identity
  | Scale of float  (** x ↦ a·x *)
  | Affine of float * float  (** x ↦ a·x + b, a > 0 *)
  | Knots of Mikpoly_util.Piecewise.t

type t
(** A calibration profile: a hardware fingerprint plus one curve per
    observed kernel, sorted by {!key}. *)

val identity : fingerprint:string -> t
(** The empty profile: every kernel maps to [Identity]. *)

val of_curves : fingerprint:string -> (key * curve) list -> t
(** Build a profile from explicit curves (sorted on construction) — the
    deserialization path of {!Profile_store}. *)

val fit : fingerprint:string -> (key * (float * float) list) list -> t
(** [fit ~fingerprint samples] learns one curve per kernel from
    [(predicted, observed)] pairs. Kernels with no samples are dropped
    (implicitly [Identity]); an affine fit with non-positive slope falls
    back to the mean-ratio [Scale] so corrections stay monotone. *)

val apply : t -> key -> float -> float
(** Correct a raw region prediction for the given kernel ([Identity] for
    kernels absent from the profile). *)

val find : t -> key -> curve option

val fingerprint : t -> string

val curves : t -> (key * curve) list
(** Sorted by key. *)

val correction_for_set : t -> Mikpoly_core.Kernel_set.t -> Mikpoly_core.Kernel_set.entry -> float -> float
(** Compile the profile into the [entry -> raw -> corrected] closure
    {!Mikpoly_core.Polymerize.Calibrated} expects, pre-indexed by entry
    rank so per-candidate application is array-lookup cheap. *)

val curve_equal : curve -> curve -> bool

val equal : t -> t -> bool
(** Structural equality of fingerprint and curves (piecewise curves
    compare by breakpoints) — used by the round-trip and determinism
    tests. *)

val to_string : t -> string
(** One [kernel uM uN uK <curve>] line per entry — the body shared with
    {!Profile_store}, also handy in tests for bit-identity checks. *)
