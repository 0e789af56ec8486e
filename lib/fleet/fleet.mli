(** Multi-tenant continuous-batching fleet.

    One fleet-wide weighted-fair queue ({!Wfq}) feeds N
    {!Mikpoly_serve.Replica} slots. The replica step — in-flight batch,
    token advance, program lookup ladder, crash requeue and the
    next-event pick — is the one {!Mikpoly_serve.Scheduler.run} uses
    (DESIGN.md §7), with the same contract: bit-identical outcomes for a
    given (config, engine, trace, fault plan), independent of [--jobs]
    and of wall-clock time. The fleet adds only its policies: the shared
    queue with owner affinity and stealing, and three compile-aware
    planes:

    - {b Shape-aware coalescing} ([coalesce]): each admission pulls a
      group of requests sharing one bucketed shape signature, so the
      whole group costs at most one compile stall; signatures are sticky
      to the replica that last served them (owner affinity) with a
      [steal_age] bound so no request waits forever for a busy owner.
    - {b Learned warm store} ([warm]): a decayed per-tenant histogram
      ({!Learner}) ranks hot signatures; a serialized background worker
      precompiles their step shapes into a fleet-shared cache whose
      entries carry a ready-at time. A replica missing its own cache
      takes a warm program stall-free once the background compile has
      finished; an on-path compile publishes fleet-wide so each shape is
      compiled at most once across the fleet.
    - {b Autoscaling} ([autoscale]): periodic {!Autoscaler} ticks over
      queue depth, running SLO attainment and stall ratio spawn or
      retire replicas with hysteresis; crashed replicas count against
      capacity and never read as scale-down signals. *)

type warm_config = {
  warm_top_k : int;  (** signatures refreshed per interval *)
  warm_interval : float;  (** seconds between learner-driven refreshes *)
  warm_half_life : float;  (** decay half-life of the shape histogram *)
  warm_capacity : int;  (** warm-store LRU capacity (shapes) *)
}

val default_warm : warm_config

type config = {
  replicas : int;  (** initial fleet size (clamped to autoscale bounds) *)
  batcher : Mikpoly_serve.Batcher.policy;
  bucketing : Mikpoly_serve.Bucketing.policy;
  cache_capacity : int;  (** per-replica program-cache LRU capacity *)
  coalesce : bool;  (** group admissions by shape signature *)
  steal_age : float;
      (** seconds after which a request may be served by a non-owner
          replica — the starvation bound on owner affinity *)
  warm : warm_config option;  (** [None] disables the warm store *)
  autoscale : Autoscaler.config option;  (** [None] pins the fleet size *)
  ratelimit : Ratelimit.config option;
      (** base (weight-1) token bucket per tenant, scaled by tier weight
          via {!Ratelimit.for_tier}; shedding happens at arrival, before
          the WFQ and the warm-store learner. [None] admits everything. *)
}

val validate : config -> unit
(** Raises [Invalid_argument] on nonsensical settings. *)

type tier_metrics = {
  tm_tier : Tenant.tier;
  tm_requests : int;  (** trace requests from tenants of this tier *)
  tm_completed : int;
  tm_slo_met : int;
  tm_attainment : float;  (** slo_met / requests (dropped count against) *)
}

type outcome = {
  completed : Mikpoly_serve.Scheduler.completed list;  (** finish order *)
  dropped : Mikpoly_serve.Request.t list;  (** shed by the SLO batcher *)
  rate_limited : Mikpoly_serve.Request.t list;
      (** refused at the door by the per-tenant token bucket *)
  steps : int;
  makespan : float;
  compile_stall_seconds : float;  (** on-path (request-visible) only *)
  actual_tokens : int;
  padded_tokens : int;
  cache : Mikpoly_serve.Shape_cache.stats list;
      (** live replica caches in slot order, then retired/crashed ones *)
  warm_stats : Mikpoly_serve.Shape_cache.stats option;
  warm_hits : int;  (** replica misses served stall-free by the warm store *)
  warm_compiles : int;  (** background compiles off the critical path *)
  warm_background_seconds : float;
  coalesced_groups : int;  (** admissions of >1 request, one signature *)
  queue_depth_sum : int;
  queue_samples : int;
  crashes : int;
  injected_faults : int;
  requeues : int;  (** in-flight requests bounced back to their lanes *)
  scale_ups : int;
  scale_downs : int;
  peak_replicas : int;
  replica_seconds : float;  (** Σ per-replica active time — the cost side *)
  lanes : Wfq.lane_stats list;
  tiers : tier_metrics list;
}

val slo_met : Mikpoly_serve.Scheduler.completed -> bool
(** Both the TTFT and the end-to-end budget were met. *)

val tier_table :
  Tenant.tagged list ->
  Mikpoly_serve.Scheduler.completed list ->
  tier_metrics list
(** One row per tier over a tagged trace and its completions (in any
    order): dropped and rate-limited requests count against attainment. *)

(** {2 Tenant front end}

    The WFQ-side pieces {!run} shares with [Mikpoly_hetero.Hetero]. *)

val by_arrival : Tenant.tagged list -> Tenant.tagged list
(** Stable sort by arrival time. *)

val limiter : Ratelimit.config option -> Ratelimit.t option
(** Per-tenant buckets scaled by tier ({!Ratelimit.for_tier}). *)

val aged_time :
  Mikpoly_serve.Batcher.policy -> Wfq.t -> in_flight:int -> Tenant.tagged ->
  float
(** Policy-aging instant of a queued request, mirroring the
    {!Mikpoly_serve.Batcher} predicates over a shared queue: a Timeout
    batcher holds a request back for its window unless the queue plus
    [in_flight] can fill the batch. *)

val earliest : Wfq.t -> (Tenant.tagged -> float) -> float option
(** The minimum of [time] over the queue; [None] when it is empty. *)

val grant :
  Mikpoly_serve.Batcher.policy ->
  Wfq.t ->
  now:float ->
  in_flight:int ->
  Tenant.tagged list ->
  Mikpoly_serve.Batcher.decision * (Mikpoly_serve.Request.t -> Tenant.tagged)
(** Let the batcher rule on an offer taken from the queue: deferred
    requests return to their lane heads; the decision comes back with
    the map from each offered request to its tagged form. *)

val scheduler_outcome :
  completed:Mikpoly_serve.Scheduler.completed list ->
  dropped:Mikpoly_serve.Request.t list ->
  rate_limited:Mikpoly_serve.Request.t list ->
  cache:Mikpoly_serve.Shape_cache.stats list ->
  Mikpoly_serve.Replica.counters ->
  Mikpoly_serve.Scheduler.outcome
(** The tenant fleets' projection onto the scheduler outcome, shared
    with [Mikpoly_hetero.Hetero]: rate-limited requests surface as
    rejections (reason ["rate-limited"]); fields a fleet does not model
    — retry budgets, timeouts, adaptation — are zero/empty. *)

val run :
  ?faults:Mikpoly_fault.Plan.t ->
  config ->
  Mikpoly_serve.Scheduler.engine ->
  Tenant.tagged list ->
  outcome
(** Serve a tagged multi-tenant trace to completion. Deterministic:
    event ties break crash < arrival < warm-refresh < autoscale-tick <
    replica step, then lowest replica index. *)

val to_scheduler_outcome : outcome -> Mikpoly_serve.Scheduler.outcome
(** Project onto the single-tenant outcome record so the
    {!Mikpoly_serve.Metrics} report pipeline applies unchanged:
    rate-limited requests surface as rejections (reason
    ["rate-limited"]); fields the fleet does not model — retry budgets,
    timeouts — are zero/empty. *)
