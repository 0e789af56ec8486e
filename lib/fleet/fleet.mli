(** Multi-tenant continuous-batching fleet: the one tenant event loop.

    Replicas are {!Mikpoly_serve.Replica} slots grouped into device
    classes; each class has its own weighted-fair queue ({!Wfq}), its
    own {!Health.t} and, optionally, a class-shared program store — the
    lookup ladder's second rung. The replica step is the one
    {!Mikpoly_serve.Scheduler.run} uses (DESIGN.md §7), with the same
    contract: bit-identical outcomes for a given (config, placement,
    trace, fault plan), independent of [--jobs] and of wall-clock time.

    {!run} is the one-class configuration: one shared queue, failover
    off, no hedging. [Mikpoly_hetero.Hetero] is the multi-class one: a
    {!Router} places arrivals, breakers drain tripped classes and hedges
    clone late gold requests — with no warm plane, no autoscaler and
    [steal_age = 0]. Whatever the configuration, one ledger gives every
    trace request exactly one terminal status, and the control planes
    are event sources of the same loop:

    - {b Shape-aware coalescing} ([coalesce]): each admission pulls a
      group of requests sharing one bucketed shape signature, so the
      whole group costs at most one compile stall; signatures are sticky
      to the replica that last served them (owner affinity) with a
      [steal_age] bound so no request waits forever for a busy owner.
    - {b Learned warm store} ([warm]): a decayed per-tenant histogram
      ({!Learner}) ranks hot signatures; a serialized background worker
      precompiles their step shapes into the class-shared store, whose
      entries carry a ready-at time. A replica missing its own cache
      takes a warm program stall-free once the background compile has
      finished; an on-path compile publishes class-wide so each shape is
      compiled at most once per class.
    - {b Autoscaling} ([autoscale]): periodic {!Autoscaler} ticks over
      queue depth, running SLO attainment and stall ratio spawn or
      retire replicas with hysteresis; crashed replicas count against
      capacity and never read as scale-down signals.
    - {b Failover and hedging} ({!placement}): see
      [Mikpoly_hetero.Hetero].

    Metric scopes: the [fleet.*] and [hetero.*] counters count every
    loop run, whichever configuration — [fleet.steps],
    [fleet.completed], [fleet.dropped], [fleet.crashes] and
    [fleet.replicas] include mixed-fleet runs, [fleet.warm.hits] counts
    hits in any class-shared store, and [hetero.routed] counts every
    admitted arrival, including one-class fleets'. *)

type warm_config = {
  warm_top_k : int;  (** signatures refreshed per interval *)
  warm_interval : float;  (** seconds between learner-driven refreshes *)
}
(** The learned warm plane. Its shape histogram decays with a one-second
    half-life and its store holds 4096 shapes. *)

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
(** Raises [Invalid_argument] on nonsensical settings, the batcher
    policy's and NaN ones included. *)

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
      (** per class: live replica caches in slot order, then
          retired/crashed ones *)
  warm_stats : Mikpoly_serve.Shape_cache.stats option;
      (** the first class's warm store *)
  warm_hits : int;  (** replica misses served stall-free by a shared store *)
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

val run :
  ?faults:Mikpoly_fault.Plan.t ->
  config ->
  Mikpoly_serve.Scheduler.engine ->
  Tenant.tagged list ->
  outcome
(** Serve a tagged multi-tenant trace to completion on one device
    class: {!serve} with failover off, no hedging and no class store
    beyond the warm plane's. The fault plan's device-class windows for
    class 0 apply to the whole fleet. Deterministic: event ties break
    crash < arrival < warm-refresh < autoscale-tick < replica step, then
    lowest replica index. *)

val to_scheduler_outcome : outcome -> Mikpoly_serve.Scheduler.outcome
(** Project onto the single-tenant outcome record so the
    {!Mikpoly_serve.Metrics} report pipeline applies unchanged:
    rate-limited requests surface as rejections (reason
    ["rate-limited"]); fields the fleet does not model — retry budgets,
    timeouts — are zero/empty. *)

(** {2 Device classes} *)

type hedge_config = {
  hedge_tiers : Tenant.tier list;
  hedge_slack : float;
      (** fraction of the TTFT budget after which a still-queued
          request is hedged, in (0, 1] *)
}

type status =
  | Completed
  | Dropped  (** shed by the SLO batcher *)
  | Rate_limited  (** refused at the door by the token bucket *)
      (** Terminal status of one request: exactly one per trace request,
          whatever hedging, re-routing and re-queueing did in between. *)

val status_name : status -> string

type placement = {
  devices : (Mikpoly_serve.Scheduler.engine * int) list;
      (** device classes in index order: engine and replica count *)
  class_store : bool;
      (** every class gets an LRU program store shared by its replicas
          (the warm plane, when on, supplies its own store instead) *)
  health : Health.config;
  degraded_max_tokens : int;
      (** a [Degraded] class only takes requests whose bucketed token
          count is ≤ this *)
  hedge : hedge_config option;
  failover : bool;
      (** [true]: the router reads health and a breaker trip drains the
          class; [false]: health is recorded but never acted on *)
}

(** One device class's loop state, readable after {!serve}. *)
type cls = private {
  c_idx : int;
  c_engine : Mikpoly_serve.Scheduler.engine;
  c_slots : Tenant.tagged Mikpoly_serve.Replica.slot array;
      (** global slot indices, class order *)
  mutable c_q : Wfq.t;
  c_health : Health.t;
  c_store : float Mikpoly_serve.Shape_cache.t option;
  mutable c_retired : Mikpoly_serve.Shape_cache.stats list;
      (** caches of crashed or retired replicas, newest first *)
  mutable c_routed : int;  (** placements here, probes and hedges incl. *)
  mutable c_completed : int;
  mutable c_steps : int;
  mutable c_stall : float;
  mutable c_service : float;  (** Σ step durations *)
  mutable c_requeues : int;  (** in-class bounces (step faults, crashes) *)
  mutable c_rr_out : int;  (** requests drained away by a breaker trip *)
  mutable c_rr_in : int;
  mutable c_hedges_in : int;
  mutable c_forced : int;  (** routed here with no healthy class *)
  mutable c_drains : int;
  mutable c_brownout_steps : int;
}

type ledger = {
  classes : cls array;
  status_of : int -> status option;  (** a request id's terminal status *)
  resolved : int;  (** requests with a terminal status *)
  reroutes : int;  (** requests moved across classes by trip drains *)
  hedges : int;  (** hedge clones created *)
  hedge_cancels : int;  (** losing copies discarded at grant *)
}

val serve :
  ?faults:Mikpoly_fault.Plan.t ->
  config ->
  placement ->
  Tenant.tagged list ->
  outcome * ledger
(** The loop itself. [config.replicas] is only validated; each class's
    replica count comes from [placement.devices] (clamped to the
    autoscale bounds). Device-class indices in the fault plan's outage
    and brown-out windows refer to [placement.devices] order. Event ties
    break crash < arrival < hedge < warm-refresh < autoscale-tick <
    replica step, then class index, then slot index. *)
