(** Shared backend wiring for the experiment drivers: lazily-constructed
    compilers and library models per platform, and adapters between the
    MikPoly compiler, the {!Mikpoly_baselines.Backend} interface and the
    inference engine. *)

val gpu : unit -> Mikpoly_core.Compiler.t
(** MikPoly on the A100 model (tensor cores), memoized. *)

val npu : unit -> Mikpoly_core.Compiler.t
(** MikPoly on the Ascend 910 model, memoized. *)

val gpu_vector : unit -> Mikpoly_core.Compiler.t
(** MikPoly restricted to CUDA cores (Figure 10 / Table 5 setting),
    memoized. *)

val mikpoly_backend : Mikpoly_core.Compiler.t -> Mikpoly_baselines.Backend.t
(** Device time of the polymerized program (search overhead excluded, as
    in the operator-level figures). *)

val mikpoly_gemm : Mikpoly_core.Compiler.t -> Mikpoly_nn.Inference.gemm_backend

val mikpoly_overhead :
  Mikpoly_core.Compiler.t -> m:int -> n:int -> k:int -> float
(** Measured polymerization overhead for a shape (first compilation). *)

val backend_gemm : Mikpoly_baselines.Backend.t -> Mikpoly_nn.Inference.gemm_backend

val cublas : unit -> Mikpoly_baselines.Backend.t

val cudnn : unit -> Mikpoly_baselines.Backend.t

val cutlass : unit -> Mikpoly_baselines.Backend.t

val cutlass_vector : unit -> Mikpoly_baselines.Backend.t

val cann : unit -> Mikpoly_baselines.Backend.t

val mean_speedup :
  config:Mikpoly_core.Config.t -> cases:Mikpoly_workloads.Gemm_case.t list ->
  float
(** Mean speedup over cuBLAS across [cases] of a fresh A100 compiler
    built with [config] — the score of the ablation and hyper-parameter
    sweeps. *)

val speedup_or_skip :
  baseline:(float, string) result -> target:(float, string) result -> float option
(** baseline/target when both succeeded. *)
