(** Offline micro-kernel generation: AutoTune + RankAndPrune of
    Algorithm 1.

    Plays the role of the static-shape auto-scheduler (TVM in the paper):
    enumerates the tile space, scores every candidate on synthetic square
    workloads of sizes [{2^i | i ∈ [0, n_syn]}] under the Pattern-I
    program, keeps the Top-[n_mik], and learns each survivor's
    [g_predict].

    Ranking concretization: each candidate's per-size performance is
    normalized by the best candidate's performance at that size, and the
    ranking score is the candidate's best ratio across sizes (so every
    per-size champion leads), tie-broken by the mean ratio. A plain TFLOPS
    average would retain only large tiles (large shapes dominate absolute
    throughput) and starve small dynamic shapes; the champion rule keeps
    the set covering the whole size spectrum, which is what the paper's
    Top-n_mik set achieves on real hardware. To avoid the closed-form
    model clustering many near-identical kernels, at most one reduction
    depth (uK) is retained per (uM, uN) footprint. *)

type tuned = {
  model : Perf_model.t;
  rank_score : float;  (** score under the chosen ranking style *)
}

type rank_style =
  | Champion  (** best normalized ratio across sizes (default; see above) *)
  | Mean_normalized  (** mean of the normalized ratios *)
  | Mean_tflops  (** plain average throughput — the naive rule *)
(** Ranking-rule ablations (see DESIGN.md §6 and the "ablations"
    experiment). *)

val synthetic_sizes : n_syn:int -> int list
(** [1, 2, 4, …, 2^n_syn]. *)

val pattern_one_cycles :
  Mikpoly_accel.Hardware.t -> Mikpoly_accel.Kernel_desc.t -> m:int -> n:int -> k:int ->
  float
(** Closed-form cost of the single-kernel Pattern-I program:
    ⌈tasks / wave capacity⌉ × pipelined-task cycles. *)

val size_tflops :
  Mikpoly_accel.Hardware.t -> Mikpoly_accel.Kernel_desc.t -> size:int -> float
(** Achieved TFLOPS of the candidate on the square synthetic workload of
    the given size. *)

val generate :
  n_gen:int -> n_syn:int -> n_mik:int -> n_pred:int ->
  dtype:Mikpoly_tensor.Dtype.t -> path:Mikpoly_accel.Hardware.compute_path ->
  codegen_eff:float -> rank_style:rank_style -> Mikpoly_accel.Hardware.t ->
  tuned list
(** The full offline stage, best-ranked first. The paper's values of the
    hyper-parameters live in [Mikpoly_core.Config.default]. Candidate
    scoring and [g_predict] learning run through
    {!Mikpoly_util.Domain_pool.map} at the process default; the returned
    list is identical for every job count. *)
