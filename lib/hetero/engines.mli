(** Engines for the mixed GEMM+conv trace the hetero experiment serves.

    One fleet, two request families, split by token count: a step whose
    (bucketed) token count is below [cnn_cut] is an LLM continuous-
    batching step (the {!Mikpoly_serve.Scheduler.mikpoly_engine} Llama
    GEMMs); at or above it, the step is a CNN inference batch — a small
    residual-style conv stack lowered to GEMM via im2col
    ({!Mikpoly_tensor.Conv_spec.gemm_shape}) at image batch
    [tokens / cnn_cut]. A heavy-tail prompt distribution then yields
    mostly-small LLM steps with a tail of large conv jobs — shapes
    different enough that GPU and NPU genuinely disagree on where each
    runs cheapest, which is what the router exploits. *)

val mixed_engine :
  ?cnn_cut:int -> Mikpoly_core.Compiler.t -> Mikpoly_serve.Scheduler.engine
(** [cnn_cut] defaults to 64 tokens. Step times and compile stalls are
    modeled through the compiler (memoized per shape), so runs are
    deterministic and independent of [--jobs]. *)
