(** On-the-fly micro-kernel polymerization (paper Section 3.4 and
    Algorithm 1, lines 8–14).

    Once the operator's shape is known, the polymerizer explores the
    configured patterns; for each pattern it pins a primary micro-kernel,
    derives wave-aligned cut candidates from that kernel's tile and wave
    capacity (the heuristic narrowing of Algorithm 1), fills the remaining
    regions with their best single kernels, scores every candidate with
    the lightweight cost model — pruning a candidate as soon as its
    partial cost exceeds the best found — and emits the winning program. *)

type scorer =
  | Model of Cost_model.objective
      (** Equation-2 scoring (or an ablated variant); supports pruning. *)
  | Calibrated of (Kernel_set.entry -> float -> float)
      (** Equation-2 scoring with a per-kernel online correction applied to
          each region's [f_wave × f_pipe] product (launch terms excluded).
          The correction is clamped non-negative so pruning stays sound.
          Built by [lib/adapt] from observed/predicted residuals. *)
  | Simulate
      (** MikPoly-Oracle: every candidate is scored on the full simulator
          (the paper's "runtime measurement"), no pruning. Free regions
          beyond the first are resolved with the cost model to bound the
          combinatorics. *)
  | Simulate_on of Mikpoly_accel.Hardware.t
      (** Like [Simulate], but every candidate is timed on the given device
          instead of the kernel set's — the ground-truth oracle under
          hardware drift, used by the adaptation ranking evaluator. *)

type compiled = {
  program : Mikpoly_ir.Program.t;
  predicted_cost : float;  (** winner's score under the scorer *)
  pattern : Pattern.t;
  candidates : int;  (** polymerization strategies examined (scored) *)
  pruned : int;  (** strategies abandoned mid-scoring by the cost bound *)
  pruned_analytic : int;
      (** strategies ruled out by {!Strategy_space} before any scoring:
          dominated kernels, and candidates whose pinned cost plus
          pipeline-depth floors already exceeded an achievable bound.
          Never affects the chosen program ([Selfcheck.check_prune]);
          [0] when [Config.analytic_prune] is off or the scorer is not
          the plain [Model Full]. *)
  search_seconds : float;  (** wall-clock online overhead *)
  first_hit : int;
      (** how many candidates had been scored when the eventual winner
          was first recorded (1-based; counted across the whole search in
          visitation order) *)
}

val row_cuts :
  ?style:[ `Wave_aligned | `Remainder_only ] -> Kernel_set.entry -> rows:int ->
  cols:int -> max_cuts:int -> int list
(** Wave-aligned row cut candidates for a primary kernel on a
    [rows×cols] region: multiples of uM whose full-width strip above the
    cut fills close to an integer number of waves, plus the maximal
    full-tile cut. Exposed for tests. *)

val col_cuts :
  ?style:[ `Wave_aligned | `Remainder_only ] -> Kernel_set.entry -> rows:int ->
  cols:int -> max_cuts:int -> int list

val polymerize :
  ?scorer:scorer -> ?instrument:bool -> Kernel_set.t -> Config.t ->
  Mikpoly_ir.Operator.t -> compiled
(** Raises [Invalid_argument] on an empty kernel set. The result is always
    a valid program for the exact runtime shape — MikPoly has no
    out-of-range failure mode.

    One search runs its patterns sequentially in configuration order,
    each over its primary kernels in Pattern-I cost order; parallelism is
    across shapes ({!search_batch}). The chosen program, [predicted_cost]
    and every tally are therefore deterministic. The winner is the global
    [(cost, tie_key)] minimum over recorded candidates, and every skip
    (analytic, bound, partial-sum) is a strict comparison against an
    achievable cost.

    With [Config.analytic_prune] (default) and the plain [Model Full]
    scorer, {!Strategy_space}'s filters — kernel dominance,
    Pattern-I bound seeding and pipeline-depth floors — skip most of the
    candidate space before scoring ([pruned_analytic] counts them);
    all three preserve the total tie-break order, so the chosen program
    is bit-identical with pruning on or off.

    Every search feeds the always-on [polymerize.*] metrics (search
    count, candidate and wall-time histograms, and the
    [polymerize.pruned_analytic] / [polymerize.pruned_bound] counters);
    with the telemetry tracer enabled it additionally records a
    [polymerize.search] span with one child span per explored pattern.
    [instrument:false] disables both — the uninstrumented baseline for
    the telemetry overhead benchmark. *)

val search_batch :
  ?scorer:scorer -> ?instrument:bool -> ?jobs:int -> ?min_chunk:int ->
  Kernel_set.t -> Config.t -> Mikpoly_ir.Operator.t array -> compiled array
(** Search a whole suite of shapes with the domain pool at per-shape
    granularity: element [i] of the result is exactly what
    [polymerize ops.(i)] returns (each shape's search is independent and
    deterministic, so the array is bit-identical at every job count).
    [jobs] (default: [Config.search_jobs], resolved through
    {!Mikpoly_util.Domain_pool.resolve_jobs}) is clamped to the
    host's concurrency ({!Mikpoly_util.Domain_pool.effective_jobs}) —
    worker domains beyond the core count only add dispatch overhead.
    Chunks carry at least [min_chunk] shapes (default 4) so dispatch
    amortizes across many searches; batches of [<= min_chunk] shapes (or
    an effective job count of 1) run inline with zero pool dispatches.
    This is the entry the compiler's precompile paths, the fleet warm
    store and the graph executor's compile stage go through. *)

val prune_counter_values : unit -> int * int
(** Current process-wide ([polymerize.pruned_analytic],
    [polymerize.pruned_bound]) counter values — the split the serve and
    fleet compile-stall tables display. *)

val modeled_search_seconds : compiled -> float
(** Online overhead charged to end-to-end runs: a fixed dispatch cost plus
    a per-candidate scoring cost, calibrated so that a production-grade
    implementation of this search (the paper measures ~2us in C++) is
    modeled rather than the wall-clock of this research harness —
    [search_seconds] still reports the latter. *)
