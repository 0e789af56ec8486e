(** MikPoly configuration: the paper's hyper-parameters plus search-budget
    knobs for the online stage. *)

type t = {
  n_gen : int;  (** tile candidates per dimension — 32 in the paper *)
  n_syn : int;  (** synthetic workload exponent range — 12 *)
  n_mik : int;  (** retained micro-kernels — 40 *)
  n_pred : int;  (** max pipelined-task length profiled — 5120 *)
  dtype : Mikpoly_tensor.Dtype.t;
  path : Mikpoly_accel.Hardware.compute_path;
  codegen_eff : float;  (** quality of the auto-generated kernels *)
  patterns : Pattern.t list;  (** polymerization patterns to explore *)
  max_cuts : int;  (** wave-aligned cut candidates per kernel and axis *)
  rank_style : Mikpoly_autosched.Autotuner.rank_style;
      (** offline ranking rule (ablation knob; default Champion) *)
  search_launch_term : bool;
      (** charge per-region launch overhead in the search score (ablation
          knob; default true) *)
  cut_style : [ `Wave_aligned | `Remainder_only ];
      (** split-point heuristic: wave-boundary candidates vs only the
          maximal full-tile cut (ablation knob; default wave-aligned) *)
  analytic_prune : bool;
      (** apply {!Strategy_space}'s analytic pre-pruning (kernel
          dominance, Pattern-I bound seeding, pipeline-depth floors)
          before scoring candidates (default [true]; ablation /
          soundness-oracle knob). Only active under the plain
          [Model Full] scorer, never changes the chosen program, and is
          excluded from {!cache_key}. *)
}

val default : Mikpoly_accel.Hardware.t -> t
(** The paper's configuration for the platform: (32, 12, 40, 5120); fp16
    matrix path; patterns I–II on the GPU, I–IX on the NPU. *)

val with_path : Mikpoly_accel.Hardware.compute_path -> t -> t
(** Switch compute path (e.g. CUDA cores for the DietCode comparison,
    which also lowers codegen quality to auto-scheduler grade). *)

val cache_key : t -> string
(** Stable identity of the offline stage's product, for kernel-set
    caching. *)
