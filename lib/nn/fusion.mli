(** Graph-level epilogue fusion (extension — paper Section 7 lists
    combining MikPoly with operator fusion as future work).

    An elementwise operator (ReLU, bias, residual add over the same
    activation) that immediately follows a GEMM/convolution can be fused
    into the producer's write-back: the values are still in the PE's
    registers when the C tile is stored, so the separate kernel's launch
    and its read-modify-write traffic disappear. The rewrite is
    conservative: a [Mem] node is fused only when its traffic is
    commensurate with the producer's output (at most 4 times the output
    bytes, covering read+write plus a residual input), i.e. when it
    really is an elementwise epilogue and not a pooling/softmax-style
    operator over different data. *)

type result = {
  graph : Op.graph;
  fused_ops : int;  (** operators folded into a producer's write-back *)
  fused_bytes : float;  (** their DRAM traffic, eliminated by fusion *)
}

val fuse : Op.graph -> result
(** Fuse eligible [Mem] successors into their producers. The
    graph is renamed ["<name>+fused"] only when at least one operator
    actually fused; a zero-fusion graph keeps its name. *)

val fuse_epilogues : Op.graph -> Op.graph
(** [(fuse g).graph]. *)

val fused_ops : original:Op.graph -> fused:Op.graph -> int
(** Number of operators the rewrite removed. *)
