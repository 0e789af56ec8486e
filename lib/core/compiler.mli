(** MikPoly compiler front-end: offline stage at construction, online
    polymerization per runtime shape, with a per-shape program cache
    (compiled programs for a shape already seen are reused, as a serving
    system would). *)

type t

val create :
  ?config:Config.t -> ?cache_capacity:int -> Mikpoly_accel.Hardware.t -> t
(** Runs (or reuses) the offline stage for the platform. Default
    configuration is {!Config.default}. [cache_capacity] bounds the
    per-shape program memo: when full, the least-recently-used entry is
    evicted (hits refresh recency, like [Serve.Shape_cache]) and counted
    in {!cache_stats}. The default [0] keeps the memo unbounded, the
    seed behaviour. *)

val create_resilient :
  ?config:Config.t -> ?cache_capacity:int -> store_path:string ->
  Mikpoly_accel.Hardware.t -> t * string option
(** Like {!create} but sourcing the kernel set from a {!Kernel_store}
    artifact instead of a tuning pass. When the artifact is unusable
    (missing, corrupted, checksum mismatch, wrong platform…), instead of
    failing — or worse, silently re-tuning, which a degraded production
    host may not have the budget for — the compiler comes up in safe
    mode on {!Kernel_set.safe_generic} and serves every shape on the
    ladder's last rung. Returns the rejection reason in that case. *)

val safe_mode : t -> bool
(** Whether the compiler is running on the guaranteed-safe generic set
    ({!create_resilient} with an unusable artifact). *)

type ladder_stats = {
  full_search : int;  (** the complete configured search ran *)
  best_effort : int;
      (** always [0]: the search has no deadline, so no compile stops
          at a best-so-far program. Kept because [bench/perf] reads it. *)
  single_pattern : int;
      (** the full search failed; a Pattern-I-only retry succeeded *)
  safe_generic : int;
      (** search on the configured kernel set was impossible or failed
          twice: compiled against {!Kernel_set.safe_generic} *)
}

val ladder_stats : t -> ladder_stats
(** Degradation-ladder rung counts across this compiler's cache-miss
    compiles (cache hits take no rung). Mirrored on the always-on
    [compiler.ladder.*] telemetry counters, and annotated on the
    compile span as [ladder.rung] when tracing. Every compile lands on
    some rung and returns a program — the ladder is why MikPoly serving
    has no "compilation failed" outcome. *)

val hardware : t -> Mikpoly_accel.Hardware.t

val fingerprint : t -> string
(** {!Mikpoly_accel.Hardware.fingerprint} of this compiler's hardware —
    the key every on-disk artifact (kernel stores, calibration
    profiles, rank models) and the heterogeneous fleet's per-class
    stores are indexed by. *)

val config : t -> Config.t

val kernels : t -> Kernel_set.t

val compile : t -> Mikpoly_ir.Operator.t -> Polymerize.compiled
(** On-the-fly polymerization for the operator's runtime shape; memoized
    per shape. Hit/miss/eviction counts feed both {!cache_stats} and the
    global [compiler.cache.*] telemetry counters; with the telemetry
    tracer enabled each call additionally records a [compiler.compile]
    span annotated with the shape and cache outcome.

    Domain-safe: the memo is mutex-guarded, with the search itself run
    outside the lock so concurrent compiles of distinct shapes overlap.
    Two domains racing on the same uncached shape may both search (the
    deterministic search makes either result correct); exactly one
    insertion wins and both count a miss. *)

val cached : t -> Mikpoly_ir.Operator.t -> bool
(** Whether the operator's shape already has a compiled program (i.e. a
    new execution would pay no polymerization overhead). *)

val warm : ?jobs:int -> t -> (int * int * int) list -> int
(** [warm t shapes] precompiles every shape not already in the memo —
    the distinct misses go through one {!Polymerize.search_batch}
    (per-shape pool units; [jobs] resolves and clamps like there), with
    per-shape fallback to the full degradation ladder if the batch
    fails — so a warmed program is exactly what the first cache-miss
    compile would have produced, and later [compile] calls for those
    shapes are pure hits. Returns the number of fresh compiles
    performed. The fleet warm store and the graph executor's compile
    stage use this to pay compile cost off the request critical path. *)

type cache_stats = {
  hits : int;  (** [compile] calls served from the per-shape memo *)
  misses : int;  (** [compile] calls that ran the online search *)
  evictions : int;  (** entries dropped by the [cache_capacity] bound *)
  invalidations : int;
      (** entries dropped explicitly via {!invalidate} / {!invalidate_if}
          (counted separately from capacity evictions) *)
  size : int;  (** distinct shapes currently cached *)
}

val cache_stats : t -> cache_stats
(** Observability for the per-shape memo, so serving metrics and tests
    can measure memoization instead of inferring it. [cached] and
    [compile_fresh] do not touch the counters. *)

val reset_cache_stats : t -> unit
(** Zero the hit/miss/eviction/invalidation counters (cache contents are
    kept) — test isolation for a shared compiler. *)

val invalidate : t -> int * int * int -> bool
(** [invalidate t (m, n, k)] drops the cached program for that shape, if
    any; returns whether an entry was removed. Counted in
    [cache_stats.invalidations] and the [compiler.cache.invalidations]
    telemetry counter, separately from capacity evictions. *)

val invalidate_if :
  t -> (int * int * int -> Polymerize.compiled -> bool) -> int
(** [invalidate_if t pred] drops every cached entry satisfying [pred];
    returns the number removed. Used by the adaptation layer to invalidate
    the programs whose ranking relied on a since-recalibrated kernel. *)

val set_correction : t -> (Kernel_set.entry -> float -> float) option -> unit
(** Install (or clear) the per-kernel cost correction: subsequent
    cache-miss compiles and default [compile_fresh] calls rank candidates
    with {!Polymerize.Calibrated} instead of the raw Equation-2 model.
    Programs already cached are untouched — pair with {!invalidate_if}. *)

val correction : t -> (Kernel_set.entry -> float -> float) option

type region_observation = {
  ro_kernel : Mikpoly_accel.Kernel_desc.t;
  ro_n_tasks : int;
  ro_t_steps : int;
  ro_predicted : float;
      (** the model's raw (uncorrected) f_wave × f_pipe for this region, in
          the compiler's own hardware model's cycles *)
  ro_observed : float;  (** the simulator's region envelope, in cycles *)
}

type observation = {
  ob_shape : int * int * int;
  ob_hw_fingerprint : string;  (** device the program actually ran on *)
  ob_regions : region_observation list;
  ob_predicted : float;  (** Σ region predictions (launches excluded) *)
  ob_observed : float;  (** Σ region envelopes (launches excluded) *)
}
(** One execution's residual-feedback record: per-region predicted vs
    observed cycles for a simulated program run. *)

val set_observer : t -> (observation -> unit) option -> unit
(** Install (or clear) the residual-feedback hook: every {!simulate} and
    {!simulate_observed} call reports its observation to the hook (called
    without the compiler lock held, so the hook may invalidate or
    recalibrate). With no observer, [simulate] skips the per-region
    envelope machinery entirely. *)

val compile_fresh :
  ?scorer:Polymerize.scorer -> ?instrument:bool -> t ->
  Mikpoly_ir.Operator.t -> Polymerize.compiled
(** Uncached compilation, optionally with an ablated or oracle scorer
    (Figure 12b). When [scorer] is omitted, uses the calibrated model if a
    correction is installed (like [compile]), else [Model Full].
    [instrument] is passed to {!Polymerize.polymerize}. *)

val simulate : t -> Polymerize.compiled -> Mikpoly_accel.Simulator.result
(** Time the compiled program on the platform simulator. *)

val simulate_observed :
  ?hw:Mikpoly_accel.Hardware.t -> t -> Polymerize.compiled ->
  Mikpoly_accel.Simulator.result * observation
(** Like {!simulate} but additionally returns the residual observation,
    and executes on [hw] when given (the compiler's own device otherwise)
    while predictions still come from the compiler's model — how the
    adaptation layer measures hardware drift. Feeds the observer hook. *)

val operator_seconds : t -> Mikpoly_ir.Operator.t -> float
(** Device time of the best program for the operator (excluding online
    search overhead). *)

val operator_seconds_with_overhead : t -> Mikpoly_ir.Operator.t -> float
(** Device time plus the measured polymerization overhead — what an
    end-to-end run pays the first time it meets a shape. *)
