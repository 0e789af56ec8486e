(** The online adaptation loop.

    An adapter watches a {!Mikpoly_core.Compiler}: every simulated
    execution reports per-region (predicted, observed) cycle pairs through
    the compiler's observer hook. The adapter accumulates them in bounded
    per-kernel windows, tracks the program-level residual
    [log(observed / corrected-predicted)] through a Page–Hinkley
    {!Drift} detector, and when the detector fires it (1) refits the
    per-kernel {!Calibration} from the windows, (2) installs the corrected
    scorer on the compiler, (3) invalidates every cached program whose
    ranking used a since-changed kernel correction, and (4) eagerly
    recompiles the hottest invalidated shapes, accumulating their modeled
    search time in a stall account the serving scheduler drains onto its
    event clock.

    Everything is deterministic: windows, hot-shape ordering and fitting
    are sorted, and observations arrive from sequential simulation loops —
    so the same observation stream yields a bit-identical calibration
    profile and recompiled programs at every [--jobs] count.

    The tuning is fixed: 64-observation per-kernel windows, no
    recalibration before the 4th observation, 8 hot shapes recompiled
    per reaction, and a circuit breaker around the reaction. After 3
    consecutive failed reactions (a fit exception) further drift fires
    are skipped — serving continues on the current calibration — for
    256 {e observations}; the first fire past the cooldown runs as a
    half-open probe. *)

type stats = {
  observations : int;
  drift_events : int;  (** detector fires that triggered recalibration *)
  recalibrations : int;  (** includes explicit {!calibrate} calls *)
  recompiles : int;  (** hot shapes recompiled eagerly *)
  invalidated : int;  (** cached programs dropped by recalibrations *)
  calibrated_kernels : int;
  residual_ewma : float;  (** log-space; ≈0 when the model tracks reality *)
  breaker_state : string;  (** "closed" / "open" / "half-open" *)
  breaker_trips : int;
  breaker_skipped : int;
      (** drift fires skipped because the breaker was open; also on the
          [adapt.breaker.skipped] telemetry counter *)
}

type t

val create : ?register:bool -> Mikpoly_core.Compiler.t -> t
(** [create compiler] builds an adapter for the compiler. With [register]
    (the default) it installs itself as the compiler's observer, so every
    [Compiler.simulate] — including the serving engine's — feeds it. *)

val compiler : t -> Mikpoly_core.Compiler.t

val set_execution_hardware : t -> Mikpoly_accel.Hardware.t -> unit
(** Inject a divergent execution device: subsequent {!observe_shape} calls
    simulate on it while predictions still come from the compiler's model —
    the drift the detector exists to catch. Calibrations fitted afterwards
    carry this device's fingerprint. *)

val observe : t -> Mikpoly_core.Compiler.observation -> bool
(** Feed one observation directly (the observer hook path does this
    automatically); returns whether a drift reaction ran. *)

val observe_shape : t -> int * int * int -> Mikpoly_accel.Simulator.result * Mikpoly_core.Compiler.observation
(** Compile (cached) and simulate one GEMM shape on the execution
    hardware, feeding the resulting observation — one step of an
    observation trace. *)

val calibrate : t -> unit
(** Force a recalibration from the current windows without waiting for the
    detector (also invalidates and recompiles, like a drift reaction). *)

val probe : t -> int * int * int -> unit
(** Active profiling at the given GEMM shape: execute one single-kernel
    program per micro-kernel on the execution device and window the
    resulting (predicted, observed) pairs — without feeding the drift
    detector — so the next recalibration covers the whole kernel set. *)

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
