(** Uniform backend interface used by the evaluation harness: something
    that, given a runtime GEMM shape, either produces a device time or
    reports that it cannot handle the shape (DietCode/Nimble outside their
    declared ranges — the "invalid runs" of Table 5). *)

type run = {
  seconds : float;
  sim : Mikpoly_accel.Simulator.result;
  description : string;  (** kernels / program the backend used *)
}

type t = {
  name : string;
  gemm : m:int -> n:int -> k:int -> (run, string) result;
}

val simulate_load :
  Mikpoly_accel.Hardware.t -> description:string -> Mikpoly_accel.Load.t ->
  (run, string) result
(** Run a lowered program on the simulator and wrap the outcome. *)

val of_catalog :
  ?path:Mikpoly_accel.Hardware.compute_path -> ?dtype:Mikpoly_tensor.Dtype.t ->
  Catalog.t -> Mikpoly_accel.Hardware.t -> t
(** Vendor-library backend for the device: each GEMM runs the catalog's
    heuristic choice as a single-kernel program ({!Mikpoly_accel.Load.gemm}). *)

val conv_seconds : t -> Mikpoly_tensor.Conv_spec.t -> (float, string) result
(** Convolution through the backend's GEMM path (im2col lowering), as the
    evaluation does for all libraries (Section 5.1). *)
