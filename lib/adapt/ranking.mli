(** Ranking-quality evaluator for the (optionally calibrated) cost model.

    The online search uses Equation 2 for exactly one decision: ranking
    candidate micro-kernel assignments for a region. This evaluator
    measures that decision directly. For each held-out shape it builds the
    single-region candidate portfolio (every micro-kernel in the set as a
    Pattern-I program), scores each candidate with the model — optionally
    through a calibration correction — and times it on the given execution
    device; it then reports the mean Kendall-τ between predicted and
    simulated cost, and the mean top-1 regret (simulated time of the
    model's pick over the true best candidate's, minus one). Under
    hardware drift the uncalibrated τ drops well below 1; a good
    calibration restores it. *)

type eval = {
  tau : float;  (** mean per-shape Kendall-τ (1 = perfect ranking) *)
  top1_regret : float;
      (** mean of sim(model's pick) / sim(best candidate) − 1; 0 = the
          model always picks the true best kernel *)
  samples : int;  (** held-out shapes evaluated *)
}

val evaluate :
  compiler:Mikpoly_core.Compiler.t ->
  exec_hw:Mikpoly_accel.Hardware.t ->
  ?correction:(Mikpoly_core.Kernel_set.entry -> float -> float) ->
  (int * int * int) list ->
  eval
(** Deterministic: candidates are enumerated in kernel-rank order and ties
    resolve to the lowest rank. τ is Kendall's τ-b
    ({!Mikpoly_util.Stats.kendall_tau}): tied predictions contribute tie
    terms, never concordances, so a constant predictor scores 0 rather
    than a spurious 1. [correction] scores each candidate through a
    per-kernel calibration of its raw Eq.-2 cost. Raises
    [Invalid_argument] on an empty shape list. *)
