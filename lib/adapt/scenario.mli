(** End-to-end drift scenario: the repeatable harness behind the [adapt]
    CLI subcommand, the [adaptation] experiment and the tests.

    The scenario serves a deterministic trace of GEMM shapes through an
    adapter-instrumented compiler; halfway through, the execution hardware
    degrades non-uniformly ({!drifted_hardware}) while the compiler's
    model stays stale. The adapter's scheduled refits recalibrate and
    recompile along the way; ranking quality on a held-out shape set
    (disjoint from the training pool) is evaluated before and after
    calibration against the drifted device. *)

type result = {
  adapter : Adapter.t;  (** for further inspection / profile persistence *)
  before : Ranking.eval;  (** stale model vs the drifted device *)
  after : Ranking.eval;  (** calibrated model vs the drifted device *)
  stall_seconds : float;  (** modeled recompilation time accumulated *)
  trace_length : int;
  holdout : (int * int * int) list;
}

val drifted_hardware :
  ?severity:float -> Mikpoly_accel.Hardware.t -> Mikpoly_accel.Hardware.t
(** Degrade the device non-uniformly: fabric bandwidth by [severity]
    (default 0.35), DRAM by 0.7·severity, vector throughput by
    0.5·severity, launch overhead up by 2·severity — shifts that reorder
    kernels rather than scaling all costs equally (a uniform scale would
    leave rankings intact and give calibration nothing to win).
    Residency-relevant fields (slots, local memory) are untouched so every
    tuned kernel still fits. Requires [0 <= severity < 1]. *)

val run :
  ?seed:int -> ?severity:float -> ?trace:int -> ?pool:int -> ?holdout:int ->
  Mikpoly_core.Compiler.t -> result
(** [run compiler] drives the scenario: a [trace]-step (default 48)
    observation trace drawn from a [pool] (default 12) of distinct shapes,
    drift injected at the midpoint, then ranking evaluation on [holdout]
    (default 8) unseen shapes. Post-trace
    {!Adapter.probe} sweeps across the shape range plus an explicit
    recalibration give the final correction full kernel and operating-point
    coverage. Fully deterministic in [seed] and the
    compiler's configuration — including across [--jobs] counts. *)
