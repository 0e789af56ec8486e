(** The online adaptation loop.

    An adapter watches a {!Mikpoly_core.Compiler}: every simulated
    execution reports per-region (predicted, observed) cycle pairs through
    the compiler's observer hook. The adapter accumulates them in bounded
    per-kernel windows and, on every 16th observation, (1) refits the
    per-kernel {!Calibration} from the windows, (2) installs the corrected
    scorer on the compiler, (3) invalidates every cached program whose
    ranking used a since-changed kernel correction, (4) eagerly
    recompiles the hottest invalidated shapes, accumulating their modeled
    search time in a stall account the serving scheduler drains onto its
    event clock, and (5) empties the windows, so each scheduled refit
    sees only the samples gathered since the previous one.

    Everything is deterministic: windows, hot-shape ordering and fitting
    are sorted, and observations arrive from sequential simulation loops —
    so the same observation stream yields a bit-identical calibration
    profile and recompiled programs at every [--jobs] count.

    The tuning is fixed: a refit every 16 observations, 64-sample
    per-kernel windows and 8 hot shapes recompiled per refit. A refit
    runs directly on the observing call: fitting is plain arithmetic on
    the windows and a recompile is one search, so neither fails on any
    input, and a refit that raises is a bug, which propagates. *)

type stats = {
  observations : int;
  recalibrations : int;
      (** scheduled refits, explicit {!calibrate} calls and
          {!load_profile} installs *)
  recompiles : int;  (** hot shapes recompiled eagerly *)
  invalidated : int;  (** cached programs dropped by recalibrations *)
  calibrated_kernels : int;
}

type t

val create : Mikpoly_core.Compiler.t -> t
(** [create compiler] builds an adapter for the compiler and installs it
    as the compiler's observer, so every [Compiler.simulate] — including
    the serving engine's — feeds it. *)

val compiler : t -> Mikpoly_core.Compiler.t

val set_execution_hardware : t -> Mikpoly_accel.Hardware.t -> unit
(** Inject a divergent execution device: subsequent {!observe_shape} calls
    simulate on it while predictions still come from the compiler's model —
    the drift calibration exists to absorb. Calibrations fitted afterwards
    carry this device's fingerprint. *)

val observe_shape : t -> int * int * int -> Mikpoly_accel.Simulator.result * Mikpoly_core.Compiler.observation
(** Compile (cached) and simulate one GEMM shape on the execution
    hardware, feeding the resulting observation — one step of an
    observation trace. *)

val calibrate : t -> unit
(** Force a recalibration from the current windows without waiting for the
    next scheduled refit (also invalidates and recompiles, like one). The
    windows keep their samples. *)

val probe : t -> int * int * int -> unit
(** Active profiling at the given GEMM shape: execute one single-kernel
    program per micro-kernel on the execution device and window the
    resulting (predicted, observed) pairs — without counting toward the
    refit schedule — so the next recalibration covers the whole kernel
    set. *)

val calibration : t -> Calibration.t

val correction : t -> (Mikpoly_core.Kernel_set.entry -> float -> float) option
(** The correction currently installed on the compiler, if any. *)

val drain_stall_seconds : t -> float
(** Return and zero the accumulated modeled recompilation time. The
    serving scheduler calls this after each step and charges the result on
    the serving replica's event clock, so adaptation work is paid for like
    any other stall. *)

val stats : t -> stats

val save_profile : t -> path:string -> unit
(** Persist the current calibration for the execution hardware via
    {!Profile_store}. *)

val load_profile : t -> path:string -> (unit, string) result
(** Restore and install a persisted calibration (warm start). Fails — and
    installs nothing — when the artifact was recorded on different
    hardware. *)
