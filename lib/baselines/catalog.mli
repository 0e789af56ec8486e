(** Vendor-library kernel catalogs.

    A vendor library ships a fixed set of hand-tuned kernel configurations
    and a shape-based selection heuristic. The heuristic minimizes an
    estimate of padded compute time — it is good at avoiding padding waste
    and picking high-throughput tiles, but (the key blind spot the paper
    exploits, Figures 1 and 15) it does not account for wave quantization
    or partial-wave load imbalance on the actual device. *)

type t = {
  name : string;
  codegen_eff : float;  (** hand-tuned kernels beat generated code *)
  tiles : (int * int * int) list;  (** (uM, uN, uK) configurations *)
}

val cublas : t
(** GEMM catalog on the GPU matrix path, efficiency 0.96. *)

val cudnn : t
(** Implicit-GEMM convolution catalog, efficiency 0.93. *)

val cann : t
(** NPU cube-unit catalog sized for the 1 MiB local buffer,
    efficiency 0.92. *)

val kernels :
  t -> Mikpoly_accel.Hardware.t -> path:Mikpoly_accel.Hardware.compute_path ->
  dtype:Mikpoly_tensor.Dtype.t -> Mikpoly_accel.Kernel_desc.t list
(** The catalog's kernels that actually fit the device. *)

val select :
  t -> Mikpoly_accel.Hardware.t -> path:Mikpoly_accel.Hardware.compute_path ->
  dtype:Mikpoly_tensor.Dtype.t -> m:int -> n:int -> k:int ->
  Mikpoly_accel.Kernel_desc.t
(** The heuristic choice for an (M, N, K) problem. Raises [Failure] if no
    catalog kernel fits the device. *)
