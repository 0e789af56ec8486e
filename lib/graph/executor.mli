(** Whole-graph execution with compile/execute pipelining.

    Executes a bound graph's device schedule against a cost backend.
    GEMM/conv nodes are priced by the backend's per-shape device time
    (repeat instances summed) and pay the backend's online compile cost
    the first time their lowered shape appears in the run (a per-run
    shape cache — later launches of the same shape hit). Every other
    node is bandwidth-bound on the backend's DRAM (or wire, for [Comm])
    rate, and chained GEMMs ({!Dag.node.chain}) discount the DRAM round
    trip their on-chip operand skips.

    Two arms share the exact same per-node costs:
    - sequential: each cache-missing node waits for its own compile
      before executing, so end-to-end = Σ exec + Σ compile;
    - pipelined ([overlap], the default): a host compile stream runs
      ahead of the device in schedule order, so node [i+1]'s
      polymerization overlaps node [i]'s execution and the device
      stalls only when it outruns the compiler. End-to-end =
      Σ exec + Σ stall, and [hidden = compile − stall] is exactly the
      latency the pipeline removed.

    All quantities are simulated (modeled search seconds, modeled
    device time) — bit-identical across runs and [--jobs]. *)

type backend = {
  bk_name : string;
  bk_compile : int * int * int -> float;
      (** online polymerization cost of one lowered GEMM shape *)
  bk_gemm : int * int * int -> float;
      (** device seconds of one compiled instance of the shape *)
  bk_precompile : jobs:int -> (int * int * int) list -> int;
      (** warm the backend's compile path for a whole shape list in one
          batched search ({!Mikpoly_core.Compiler.warm} for the mikpoly
          backend; a no-op for synthetic ones); returns fresh compiles.
          [jobs = 0] inherits the default worker count. Wall-clock
          optimization only — charged costs are unchanged. *)
  bk_launch : float;  (** per-node launch overhead, seconds *)
  bk_dram_bps : float;  (** device DRAM bandwidth, bytes/second *)
}

val mikpoly_backend : Mikpoly_core.Compiler.t -> backend
(** Charges compiles via [Compiler.compile] +
    [Polymerize.modeled_search_seconds] and device time via
    [Compiler.operator_seconds], both memoized per shape (the compiler
    re-simulates per call); launch overhead and DRAM rate come from the
    compiler's hardware model. *)

val synthetic_backend : unit -> backend
(** Closed-form backend for tests: every shape costs 5e-4 s to compile
    and [m*n*k / 1e12] s to run; a launch costs 1 µs and DRAM moves
    100 GB/s. *)

type node_cost = {
  nc_id : int;
  nc_label : string;
  nc_kind : string;
  nc_shape : ((int * int * int) * int) option;
      (** lowered GEMM shape and repeat, for GEMM/conv nodes *)
  nc_exec_seconds : float;  (** device time, launch included *)
  nc_compile_seconds : float;
      (** full (uncached) compile cost of the node's shape; 0 for
          non-GEMM nodes. {!execute} applies the per-run shape cache on
          top of this. *)
  nc_fused_bytes : float;
      (** DRAM bytes the node's fused epilogue write-back saves *)
  nc_chain_bytes : float;
      (** DRAM bytes the node's chained operand saves (already
          discounted from [nc_exec_seconds]) *)
}

val node_costs : backend -> Infer.bound -> node_cost list
(** Per-device-node costs in schedule order — exposed so serving can
    replay the same operators as a per-op request stream. *)

type run = {
  r_graph : string;
  r_overlap : bool;
  r_e2e_seconds : float;
  r_exec_seconds : float;
  r_compile_seconds : float;  (** charged compile time (cache misses) *)
  r_hidden_seconds : float;
      (** compile time overlapped with execution; 0 in the sequential
          arm *)
  r_stall_seconds : float;
      (** compile time the device actually waited for;
          [stall + hidden = compile] in both arms *)
  r_compiles : int;  (** per-run shape-cache misses *)
  r_cache_hits : int;  (** GEMM/conv nodes served from the run cache *)
  r_fused_bytes : float;  (** Σ epilogue bytes saved *)
  r_nodes : int;  (** device nodes executed *)
}

val execute : ?overlap:bool -> backend -> Infer.bound -> run
(** [overlap] defaults to [true]. With tracing enabled, emits compile
    (lane 0) and execute (lane 1) spans on the virtual ["graph"] track
    (simulated seconds, 1.0 units/s) and bumps the always-on
    [graph.executions] / [graph.compiles] / [graph.cache_hits]
    counters. *)
