(** Micro-kernel performance models [g_predict(t, K, H)] (Section 3.3).

    For each retained micro-kernel the offline stage "runs" pipelined tasks
    with t = 1…n_pred instances on one PE (at steady-state device
    occupancy) and fits a compact piecewise-linear model of the cost.
    Online, [f_pipe] evaluates this model instead of touching the
    simulator. *)

type t = {
  kernel : Mikpoly_accel.Kernel_desc.t;
  g : Mikpoly_util.Piecewise.t;  (** cycles as a function of t *)
}

val sample_points : n_pred:int -> int list
(** The t values profiled: a geometric-ish grid from 1 to [n_pred]. *)

val learn : n_pred:int -> Mikpoly_accel.Hardware.t -> Mikpoly_accel.Kernel_desc.t -> t
(** Profile t = 1…[n_pred] (5120 in the paper) and fit [g_predict]. *)

val predict_cycles : t -> t_steps:int -> float
(** Evaluate [g_predict]; clamps t below 1. *)

val max_model_error : Mikpoly_accel.Hardware.t -> t -> float
(** Largest relative error of the fitted model against fresh dense
    samples — used by tests to bound model quality. *)
