(** Device-level workload description: what a lowered tensor program asks
    the accelerator to run.

    A program is a sequence of uniform {e regions}; region [i] launches
    [n_tasks] pipelined tasks, each executing [t_steps] instances of one
    fixed-size micro-kernel (the paper's [R_i] / [K_i] pairs after
    polymerization). *)

type region = {
  kernel : Kernel_desc.t;
  n_tasks : int;  (** parallel pipelined tasks — f_parallel(R_i, K_i) *)
  t_steps : int;  (** kernel instances per task — f_num(R_i, K_i) *)
}

type t = {
  regions : region list;
  footprint_bytes : float;
      (** Unique off-chip traffic of the whole operator (A + B + C once);
          lower-bounds execution via DRAM bandwidth. *)
}

val region : kernel:Kernel_desc.t -> n_tasks:int -> t_steps:int -> region
(** Raises [Invalid_argument] unless both counts are >= 1. *)

val make : regions:region list -> footprint_bytes:float -> t

val gemm_footprint_bytes : dtype:Mikpoly_tensor.Dtype.t -> m:int -> n:int -> k:int -> float
(** [(M·K + K·N + M·N) × bytes]. *)

(** {2 Tiling (paper Section 3.4, Eq. 2)}

    The one home of the tile arithmetic every lowering and cost estimate
    shares. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] = ⌈a/b⌉ for [a >= 0], [b >= 1]. *)

val tiles : Kernel_desc.t -> rows:int -> cols:int -> int
(** Pipelined tasks covering a [rows×cols] output region:
    ⌈rows/uM⌉·⌈cols/uN⌉ — the paper's [f_parallel]. *)

val k_steps : Kernel_desc.t -> k:int -> int
(** Kernel instances per task over a reduction of [k]: ⌈k/uK⌉ — the
    paper's [f_num]. *)

val waves : capacity:int -> int -> int
(** [waves ~capacity n_tasks]: ⌈n_tasks/capacity⌉ waves of tasks when
    [capacity] fit the device at once — the paper's [f_wave]. *)

val gemm : Kernel_desc.t -> m:int -> n:int -> k:int -> t
(** The single-kernel program of an (M, N, K) GEMM: one region of
    {!tiles} tasks of {!k_steps} instances, and the footprint of the
    kernel's dtype. *)

val total_tasks : t -> int
