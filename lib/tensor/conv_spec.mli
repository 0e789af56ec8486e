(** Convolution operator descriptions (NCHW, cross-correlation).

    The paper lowers convolution to GEMM via im2col (Section 5.1 switches
    vendor libraries to their GEMM paths for fairness); {!gemm_shape} gives
    the lowered [(M, N, K)]. *)

type t = {
  batch : int;
  in_channels : int;
  out_channels : int;
  in_h : int;
  in_w : int;
  kernel_h : int;
  kernel_w : int;
  stride_h : int;
  stride_w : int;
  pad_h : int;
  pad_w : int;
}

val make :
  ?stride:int -> ?pad:int -> batch:int -> in_channels:int -> out_channels:int ->
  in_h:int -> in_w:int -> kernel:int -> unit -> t
(** Square-kernel constructor; [stride] defaults to 1 and [pad] to
    "same"-preserving [kernel/2]. Raises on non-positive dimensions or an
    empty output. *)

val out_dim : int -> int -> int -> int -> int
(** [out_dim size kernel stride pad] — the output extent of a sliding
    window along one axis, [(size + 2·pad − kernel) / stride + 1]: the one
    conv/pool output-size formula. *)

val out_h : t -> int

val out_w : t -> int

val gemm_shape : t -> int * int * int
(** The im2col-lowered GEMM shape: [M = batch·out_h·out_w],
    [N = out_channels], [K = in_channels·kernel_h·kernel_w]. *)

val flops : t -> float
(** 2·M·N·K of the lowered GEMM. *)

val to_string : t -> string
