(** Program-level performance simulator.

    Given a lowered program ({!Load.t}) and a device ({!Hardware.t}),
    predicts execution time and utilization metrics. This plays the role of
    the real A100/Ascend hardware in the paper's evaluation: every backend
    (MikPoly, vendor libraries, DietCode, Nimble) is timed on it, while
    MikPoly's own decisions use only the lightweight Equation-2 cost model
    plus the learned [g_predict]. *)

type result = {
  cycles : float;  (** end-to-end device cycles, incl. launches & DRAM floor *)
  seconds : float;
  sm_efficiency : float;
      (** Fraction of PE-time with at least one resident task (the
          profiler metric of Table 9), from the scheduler makespan. *)
  grid_size : int;  (** total pipelined tasks (thread blocks) *)
  waves : float;  (** ceil(total warp demand / device warp capacity) *)
  sched_cycles : float;  (** scheduler makespan before floors/overheads *)
  dram_bound : bool;  (** true when the DRAM footprint floor dominates *)
  exact : bool;  (** scheduler ran event-driven (vs analytic fallback) *)
}

type region_obs = {
  obs_kernel : Kernel_desc.t;
  obs_n_tasks : int;
  obs_t_steps : int;
  obs_cycles : float;
      (** Observed region duration in device cycles: the envelope from the
          region's first task start to its last task finish (event-driven
          scheduler), or the analytic per-region makespan on the fallback
          path. Excludes launch overheads and the DRAM floor — the same
          quantity [Cost_model.region_cost] predicts. *)
}
(** One per-region execution observation, fed to the adaptation layer. *)

exception Kernel_does_not_fit of string
(** Raised when a region's kernel cannot be resident on the device. *)

val region_work : Hardware.t -> Load.region -> Sched.region_work
(** What the schedulers dispatch for one program region: per-task
    duration at nominal occupancy, warps, residency and task count.
    Raises {!Kernel_does_not_fit}. *)

val run :
  ?observe:(region_obs list -> unit) -> ?faults:Mikpoly_fault.Device.t ->
  Hardware.t -> Load.t -> result
(** Simulate the program. When [observe] is given it is called once with
    one {!region_obs} per non-empty program region — the residual-feedback
    hook the [lib/adapt] calibration layer builds on; the per-region
    envelope machinery only runs when observation or tracing is active.
    When the global telemetry tracer is enabled
    ({!Mikpoly_telemetry.Tracer.enable}), additionally emits one span
    per program region on the virtual [device/<hw.name>] track (units:
    device cycles) covering the region's first task start to last task
    finish — the device-side view of a polymerized program on the
    shared timeline. With tracing off this path adds a single boolean
    check and no allocation.

    [faults] injects a {!Mikpoly_fault.Device} fault model: transient
    launch failures each re-pay the region's launch overhead, and a
    straggler PE stretches its region by the configured slowdown.
    Faults are stateless seed-keyed draws, so the charged penalty is
    deterministic and independent of simulation order; they never
    change task results, only cycles (and the always-on
    [fault.device.*] counters). *)

val tflops : result -> useful_flops:float -> float
(** Achieved useful TFLOPS given the operator's true flop count. *)
