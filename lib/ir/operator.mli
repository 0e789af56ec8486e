(** Dynamic-shape tensor operators.

    Every operator is ultimately optimized through its GEMM form: matrix
    multiplication directly, convolution through the im2col lowering
    (the paper's GEMM-based convolution, Section 7 "Limitations"). *)

type t =
  | Gemm of { m : int; n : int; k : int; dtype : Mikpoly_tensor.Dtype.t }
  | Conv of Mikpoly_tensor.Conv_spec.t
  | Batched_gemm of {
      count : int;  (** independent instances (e.g. attention heads) *)
      m : int;
      n : int;
      k : int;
      dtype : Mikpoly_tensor.Dtype.t;
    }

val within_volume : count:int -> m:int -> n:int -> k:int -> bool
(** Whether positive [count], [m], [n] and [k] have a volume
    [count·m·n·k] of at most 2^48, decided without overflow. That is the
    bound on every GEMM: under it every integer derived from the shape
    fits OCaml's 63-bit [int] with room to spare — tile and task counts
    ([≤ count·M·N]), [⌈K/uK⌉] and [⌈K/g⌉], the element count
    [M·K + K·N + M·N] and its bytes ([< 2^53]), and the search's
    per-region memo key. Every shape of the model zoo, the conv lowering,
    the workload suites and the tests is far below it (16 384³ is
    [2^42]). *)

val gemm : ?dtype:Mikpoly_tensor.Dtype.t -> m:int -> n:int -> k:int -> unit -> t
(** Raises [Invalid_argument] on non-positive dimensions or a volume above
    2^48 ({!within_volume}). *)

val batched_gemm :
  ?dtype:Mikpoly_tensor.Dtype.t -> count:int -> m:int -> n:int -> k:int ->
  unit -> t
(** A grouped/batched GEMM: [count] independent (M,N,K) products launched
    as one grid. The per-instance program is shared; the device sees
    count× the pipelined tasks, which packs waves that a single small
    instance would leave idle (the attention GEMMs of Figures 8/11).
    Raises [Invalid_argument] like {!gemm}. *)

val conv : Mikpoly_tensor.Conv_spec.t -> t
(** The convolution through its im2col GEMM ({!gemm_shape}). Raises
    [Invalid_argument] on a non-positive dimension of that GEMM, or when
    its volume is above 2^48 — decided without overflow, even where
    [batch·out_h·out_w] or [in_channels·kernel_h·kernel_w] would not fit
    an [int]. *)

val instance_count : t -> int
(** 1 except for [Batched_gemm]. *)

val gemm_shape : t -> int * int * int
(** The [(M, N, K)] of the (possibly lowered) GEMM problem. *)

val dtype : t -> Mikpoly_tensor.Dtype.t

val flops : t -> float
(** Useful floating-point work (no padding). *)

val footprint_bytes : t -> float
(** Unique off-chip bytes touched (A + B + C once). *)

val to_string : t -> string
