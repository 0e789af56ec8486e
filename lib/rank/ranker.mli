(** The learned candidate ranker, an offline experiment.

    A two-stage predictor bound to the hardware it was fit on: a
    per-kernel {!Mikpoly_adapt.Calibration} of raw Eq. 2, with
    gradient-boosted stumps ({!Model}) fitted to the calibration's
    residuals over the shared {!Features}. A 0-stump ranker is exactly
    calibrated Eq. 2; boosting can only add the shape-dependent
    structure per-kernel curves cannot express. It is judged offline
    against calibrated Eq. 2 ({!Mikpoly_adapt.Ranking}); the online
    search does not use it — its measured cost is far below any serving
    budget, so it always runs to completion under Eq. 2 alone. *)

type t

val train :
  ?rounds:int -> ?learning_rate:float -> hw:Mikpoly_accel.Hardware.t ->
  Dataset.example list -> t
(** Fit from scratch on one platform's harvested examples: first the
    per-kernel calibration, then stumps on its log residuals. *)

val warm_start :
  ?rounds:int -> ?learning_rate:float -> base:t ->
  hw:Mikpoly_accel.Hardware.t -> Dataset.example list -> t
(** Cross-fingerprint transfer: the target platform gets its own
    calibration (curves key on its kernel set), while [base]'s splits on
    the hardware-independent shape features ({!Features.shape_dim}
    prefix) are kept with leaf weights scaled by 0.5 — a prior rather
    than an assertion — and boosting continues on the
    target's examples with the same free-round budget a cold fit would
    get. Where the prior contradicts the target's observations the
    continuation cancels it; where the tiny budget is silent, the
    prior's shape structure stands. At a small target budget this
    halves top-1 regret against a cold fit of the same size — the
    GPU→NPU gate of the ranking experiment. *)

val score :
  t -> m:int -> n:int -> k:int -> um:int -> un:int -> uk:int ->
  wave_capacity:int -> n_tasks:int -> pipe:float -> float
(** Predicted region cost: calibrated Eq.-2 (per-kernel curve applied to
    waves × pipe) scaled by the exponentiated boosted log-residual.
    Never negative. *)

val ranking_scorer :
  t -> int * int * int -> Mikpoly_core.Kernel_set.entry -> float -> float
(** Adapter for {!Mikpoly_adapt.Ranking.evaluate}'s [?scorer] hook:
    rebuilds {!score} from the evaluator's single-region candidate. *)

val calibration_of_examples :
  fingerprint:string -> Dataset.example list ->
  Mikpoly_adapt.Calibration.t
(** The calibrated-Eq.-2 baseline fit from the {e same} harvested
    examples the learner trains on — both the equal-information
    comparison the ranking experiment gates against and {!train}'s first
    stage. *)
