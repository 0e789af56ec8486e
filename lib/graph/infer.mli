(** Request-time shape inference and propagation.

    {!bind} evaluates a graph's symbolic dimensions against one
    request's environment and propagates concrete shapes producer to
    consumer, checking per-node legality as it goes (GEMM contraction
    agreement, convolution spatial validity, elementwise shape
    equality, concat axis compatibility). The result carries every
    value's concrete dims, instance count and fp16 byte size, plus the
    lowered GEMM shape of each GEMM/conv node — the unit the online
    polymerizer compiles and the serving cache is keyed by. *)

type bound

val bind : Dag.t -> env:Symdim.env -> (bound, string) result
(** Errors name the offending node and dimension, e.g.
    ["contraction mismatch: k=768 vs 512 (node \"L0.qkv\")"], and cover
    unbound symbols, rank and shape mismatches, and convolutions whose
    output would be empty at this binding. *)

val bind_exn : Dag.t -> env:Symdim.env -> bound
(** Raises [Invalid_argument] where {!bind} returns [Error]. *)

val dag : bound -> Dag.t

val env : bound -> Symdim.env

val dims : bound -> int -> int list
(** Concrete output dims of a value. *)

val repeat : bound -> int -> int
(** Instance count of a value (a batched GEMM's output is [repeat]
    copies of its per-instance dims). *)

val bytes : bound -> int -> float
(** fp16 bytes of a value, instance count included. *)

val gemm_shape : bound -> int -> ((int * int * int) * int) option
(** [(m, n, k), repeat] for a GEMM/conv node (convolutions via their
    im2col lowering); [None] for everything else. *)

val distinct_shapes : bound -> (int * int * int) list
(** Sorted distinct GEMM shapes the bound graph launches — what one
    end-to-end pass must polymerize. *)

val shape_launches : bound -> ((int * int * int) * int) list
(** Distinct shapes with their per-pass launch counts (instances
    summed over nodes), sorted by shape. *)
