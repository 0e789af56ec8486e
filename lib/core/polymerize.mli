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

    The floors also reject whole subtrees before their leaves exist.
    Before a split pattern with R regions is enumerated, one comparison
    of [Strategy_space.subtree_floor] (R launches plus
    [max(R·min_pipe, icount·m·n·vol_rate)]) against the incumbent
    decides it; under Patterns VII–IX each (primary, first cut) subtree
    is decided the same way from the pinned strip's exact cost plus the
    floor of the rest. A region's exact cost is at least its own floor,
    so the subtree floor bounds every leaf's gate; it is shaved by a
    relative 1e-12, far above the rounding of a gate's three- or
    four-term float sum, so it never exceeds a leaf's {e computed}
    gate. A rejected subtree therefore holds only leaves the leaf gate
    would have rejected one by one, none of which records anything, so
    the incumbent does not move while it is skipped. The skipped leaves
    are counted, not built, and without walking any cuts: each primary's
    cuts come in closed form ([Strategy_space.fill_row_cuts]), filled
    once per search and axis into an int array; a skipped II or III adds
    the primaries' cut counts, IV–VI the products of their row and
    column counts; under VII–IX the leaves under a first cut are the
    secondaries' two-cut counts of the rest, a step function of the one
    rest extent the first cut moves ([Strategy_space.step_count], two
    thresholds per secondary built once per search), and a skipped
    pattern sums them over the distinct first-cut values, weighted by
    how many primaries cut there. [pruned_analytic], [candidates],
    [pruned] and [first_hit] are exactly what a leaf-by-leaf walk
    gives. Surviving leaves are gated from their cut positions alone; a
    [choice] is built only for a candidate whose cost can win, and the
    12 primaries are picked in (Pattern-I cost, rank) order without
    sorting the set.

    A search starts from a setup that depends on the shape only through
    the class [⌈K/g⌉], g the gcd of the set's uK values: each kernel's
    [f_pipe] and, under analytic pruning, the K half of the dominance
    view. Setups are shared across searches, compilers and domains
    through one table per (kernel set's [entries], launch term, analytic
    flag) holding classes 1 to 512 (K up to 8 192 at g = 16); a slot is
    filled on first use, never at set creation, and classes past the
    range are built per search. {b Memory bound}: at most 8 tables are
    kept, newest first, and the ninth-newest is dropped, so however
    kernel sets churn ([Kernel_set.clear_cache],
    [Kernel_set.safe_generic], [Kernel_store.load]) the tables hold at
    most 8 × 512 setups. A full table of a 40-kernel set is about 32 k
    words (0.25 MiB), so the tables hold at most about 2 MiB, plus the
    [entries] arrays the 8 tables keep alive.

    Every search feeds the always-on [polymerize.*] metrics (search
    count, candidate and wall-time histograms, and the
    [polymerize.pruned_analytic] / [polymerize.pruned_bound] counters);
    with the telemetry tracer enabled it additionally records a
    [polymerize.search] span with one child span per explored pattern.
    [instrument:false] disables both — the uninstrumented baseline for
    the telemetry overhead benchmark. *)

val search_batch :
  ?scorer:scorer -> ?instrument:bool -> ?jobs:int ->
  Kernel_set.t -> Config.t -> Mikpoly_ir.Operator.t array -> compiled array
(** Search a whole suite of shapes with one
    {!Mikpoly_util.Domain_pool.map} over whole shapes, at least 4 per
    chunk: element [i] of the result is exactly what
    [polymerize ops.(i)] returns (each shape's search is independent and
    deterministic, so the array is bit-identical at every job count).
    [jobs] (default [0], the process default) is passed to the map
    unchanged. The shapes share their setups through the same table as
    every other search, so a batch builds nothing of its own before the
    map. This is the entry the compiler's precompile paths, the fleet
    warm store and the graph executor's compile stage go through. *)

val search_setup :
  Kernel_set.t -> Config.t -> k:int -> float array * Strategy_space.view option
(** The setup a plain-model search of reduction extent [k] uses: each
    entry's [f_pipe] ([pipe.(i)] for entry [i]) and, under analytic
    pruning, the dominance view ([None] otherwise). Both are shared with
    every search of the class and must not be mutated. Exposed so a test
    can compare them with a fresh build. Raises [Invalid_argument] on an
    empty set. *)

val modeled_search_seconds : compiled -> float
(** Online overhead charged to end-to-end runs: a fixed dispatch cost plus
    a per-candidate scoring cost, calibrated so that a production-grade
    implementation of this search (the paper measures ~2us in C++) is
    modeled rather than the wall-clock of this research harness —
    [search_seconds] still reports the latter. *)
