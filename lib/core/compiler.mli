(** MikPoly compiler front-end: offline stage at construction, online
    polymerization per runtime shape, with a per-shape program cache
    (compiled programs for a shape already seen are reused, as a serving
    system would). *)

type t

val create : ?config:Config.t -> Mikpoly_accel.Hardware.t -> t
(** Runs (or reuses) the offline stage for the platform. Default
    configuration is {!Config.default}. The per-shape program memo is
    unbounded: a compiler holds one program per distinct shape it has
    compiled, until {!invalidate} drops it. *)

val create_resilient :
  ?config:Config.t -> store_path:string -> Mikpoly_accel.Hardware.t ->
  t * string option
(** Like {!create} but sourcing the kernel set from a {!Kernel_store}
    artifact instead of a tuning pass. When the artifact is unusable
    (missing, corrupted, checksum mismatch, wrong platform…), instead of
    failing — or worse, silently re-tuning, which a degraded production
    host may not have the budget for — the compiler comes up in safe
    mode on {!Kernel_set.safe_generic} and every cache-miss compile
    searches that set. Returns the rejection reason in that case. *)

val safe_mode : t -> bool
(** Whether the compiler is running on the guaranteed-safe generic set
    ({!create_resilient} with an unusable artifact). *)

type ladder_stats = {
  full_search : int;  (** cache-miss searches of the tuned kernel set *)
  best_effort : int;
      (** always [0]: the search has no deadline, so no compile stops
          at a best-so-far program. Kept because [bench/perf] reads it. *)
  single_pattern : int;
      (** always [0]: a search cannot fail, so no compile retries with
          Pattern I alone. Kept because [bench/perf] reads it. *)
  safe_generic : int;
      (** cache-miss searches of {!Kernel_set.safe_generic}, in safe
          mode *)
}

val ladder_stats : t -> ladder_stats
(** The rung counts of this compiler's searches ({!compile} misses and
    {!warm}'s fresh compiles; cache hits take no rung). A cache miss is
    one {!Polymerize.polymerize} of the compiler's one kernel set, so the
    rung is the compiler's mode: every search counts as [full_search],
    or as [safe_generic] in {!safe_mode}. Pattern I over any kernel tiles
    the whole output, so every compile returns a program — why MikPoly
    serving has no "compilation failed" outcome — and a search that
    raises is a bug, which propagates. Mirrored on the always-on
    [compiler.ladder.full_search] and [compiler.ladder.safe_generic]
    telemetry counters, and annotated on the compile span as
    [ladder.rung] when tracing. *)

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
    per shape. Hit/miss counts feed both {!cache_stats} and the
    global [compiler.cache.*] telemetry counters; with the telemetry
    tracer enabled each call additionally records a [compiler.compile]
    span annotated with the shape and cache outcome.

    Domain-safe: the memo is mutex-guarded, with the search itself run
    outside the lock so concurrent compiles of distinct shapes overlap.
    Two domains racing on the same uncached shape may both search (the
    deterministic search makes either result correct); exactly one
    insertion wins and both count a miss. *)

val gemm : t -> int * int * int -> Mikpoly_ir.Operator.t
(** The GEMM operator of an (M, N, K) shape in the compiler's dtype: the
    one shape-to-operator rule of every engine and backend. *)

val compile_seconds : t -> int * int * int -> float
(** The modeled compile cost of a shape: {!compile} of its {!gemm},
    priced at {!Polymerize.modeled_search_seconds} — what the serving
    engines charge on a program-cache miss. *)

val cached : t -> Mikpoly_ir.Operator.t -> bool
(** Whether the operator's shape already has a compiled program (i.e. a
    new execution would pay no polymerization overhead). *)

val warm : ?jobs:int -> t -> (int * int * int) list -> int
(** [warm t shapes] precompiles every shape not already in the memo: the
    distinct misses go through one {!Polymerize.search_batch} on the
    compiler's kernel set (whole shapes over the domain pool; [jobs] is
    passed to it), in both modes. A warmed program is exactly what the
    first cache-miss compile would have produced, each counts as one
    search in {!ladder_stats}, and later [compile] calls for those
    shapes are pure hits. Warming counts no cache hit or miss. Returns
    the number of fresh compiles performed. The fleet warm store and the
    graph executor's compile stage use this to pay compile cost off the
    request critical path. *)

type cache_stats = {
  hits : int;  (** [compile] calls served from the per-shape memo *)
  misses : int;  (** [compile] calls that ran the online search *)
  invalidations : int;
      (** entries dropped via {!invalidate} / {!invalidate_if} *)
  size : int;  (** distinct shapes currently cached *)
}

val cache_stats : t -> cache_stats
(** Observability for the per-shape memo, so serving metrics and tests
    can measure memoization instead of inferring it. [cached] and
    [compile_fresh] do not touch the counters. *)

val invalidate : t -> int * int * int -> bool
(** [invalidate t (m, n, k)] drops the cached program for that shape, if
    any; returns whether an entry was removed. Counted in
    [cache_stats.invalidations] and the [compiler.cache.invalidations]
    telemetry counter. *)

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
