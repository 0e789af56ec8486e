(** Heterogeneous mixed-fleet serving: GPU and NPU device classes in
    one fleet, with cost-model routing and fault-plane-integrated
    cross-device failover.

    Each {!Backend.t} contributes {!Mikpoly_serve.Replica} slots of one
    device class, stepped exactly as in the scheduler and the fleet
    (DESIGN.md §7) with the class-shared program store as the lookup
    ladder's second rung; this module adds only the policies below.
    Every class has its own WFQ, its own {!Health.t} (circuit breaker +
    brown-out ladder) and that store, keyed by the class hardware
    fingerprint. A {!Router} places each arrival on the
    class where the calibrated cost model predicts its bucketed shape
    runs cheapest — subject to live queue state, the class store's
    warm-cache contents, and per-class health.

    Robustness planes, all on the deterministic event clock:

    - {b circuit breaker}: a class outage ({!Mikpoly_fault.Plan}
      device-class schedules) fails its steps; at the breaker threshold
      the class trips — in-flight work drains back through WFQ
      [push_front] and the waiting queue re-routes to the surviving
      class, where recompile-on-arrival is charged as ordinary warm-miss
      compile stalls. After the cooldown one request is committed as
      the half-open probe; its success re-closes the class.
    - {b brown-out ladder}: sustained slowdown moves a class
      [Healthy → Degraded] (router sends only cheap shapes) and back
      with hysteresis; eviction is the breaker's rung.
    - {b hedged dispatch}: a gold-tier request still queued at
      [arrival + hedge_slack · TTFT-budget] is cloned onto the best
      other class; whichever copy is admitted first wins and the loser
      is discarded at grant — exactly one terminal status per request.
    - {b rate limiting}: the {!Mikpoly_fleet.Ratelimit} token bucket
      sheds per-tenant overload at the door, before any queue.

    Determinism contract: identical (config, trace, fault plan) produce
    bit-identical outcomes, independent of wall clock and [--jobs] —
    every tie in the event loop breaks on fixed priorities, then class
    index, then slot index. *)

type hedge_config = {
  hedge_tiers : Mikpoly_fleet.Tenant.tier list;
  hedge_slack : float;
      (** fraction of the TTFT budget after which a still-queued
          request is hedged, in (0, 1] *)
}

val default_hedge : hedge_config
(** Gold only, at 50% of the TTFT budget. *)

type config = {
  backends : Backend.t list;  (** class order = class index order *)
  batcher : Mikpoly_serve.Batcher.policy;
  bucketing : Mikpoly_serve.Bucketing.policy;
  cache_capacity : int;  (** per-replica program-cache LRU capacity *)
  coalesce : bool;  (** same-signature group admission, as in the fleet *)
  health : Health.config;
  degraded_max_tokens : int;
      (** brown-out ladder middle rung: a [Degraded] class only takes
          requests whose bucketed token count is ≤ this *)
  hedge : hedge_config option;  (** [None] disables hedged dispatch *)
  failover : bool;
      (** [false] = the chaos baseline arm: the router ignores health,
          breakers never drain, hedging stays off — an outage stalls the
          class's own queue instead of degrading capacity *)
  ratelimit : Mikpoly_fleet.Ratelimit.config option;
}

val validate : config -> unit

type status =
  | Completed
  | Dropped  (** shed by the SLO batcher *)
  | Rate_limited  (** refused at the door by the token bucket *)
      (** Terminal status of one request: exactly one per trace request,
          whatever hedging, re-routing and re-queueing did in between —
          the conservation invariant behind [o_status_digest]. *)

val status_name : status -> string

type class_stats = {
  cs_backend : string;
  cs_kind : string;  (** ["gpu"] / ["npu"] *)
  cs_fingerprint : string;
  cs_replicas : int;
  cs_pes : int;  (** replicas × PEs per replica *)
  cs_routed : int;  (** arrivals the router placed here (probes incl.) *)
  cs_completed : int;
  cs_steps : int;
  cs_stall_seconds : float;  (** on-path compile stalls charged here *)
  cs_service_seconds : float;  (** Σ step durations on this class *)
  cs_requeues : int;  (** in-class bounces (step faults, crashes) *)
  cs_reroutes_out : int;  (** requests drained away by a breaker trip *)
  cs_reroutes_in : int;
  cs_hedges_in : int;  (** hedge clones placed on this class *)
  cs_forced : int;  (** routed here with no healthy class available *)
  cs_probes : int;
  cs_trips : int;
  cs_drains : int;  (** trip-drain events (may exceed 1: probe re-trips) *)
  cs_brownout_steps : int;  (** steps inside a brown-out window *)
  cs_degraded_entries : int;
  cs_level_transitions : int;
  cs_final_level : string;
  cs_cache : Mikpoly_serve.Shape_cache.stats list;
      (** live replica caches in slot order, then crash-retired ones *)
  cs_store : Mikpoly_serve.Shape_cache.stats;  (** class-shared store *)
}

type outcome = {
  o_completed : Mikpoly_serve.Scheduler.completed list;
  o_dropped : Mikpoly_serve.Request.t list;
  o_rate_limited : Mikpoly_serve.Request.t list;
  o_steps : int;
  o_makespan : float;
  o_stall_seconds : float;
  o_actual_tokens : int;
  o_padded_tokens : int;
  o_queue_depth_sum : int;
  o_queue_samples : int;
  o_crashes : int;
  o_injected_faults : int;
  o_requeues : int;
  o_reroutes : int;  (** requests moved across classes by trip drains *)
  o_hedges : int;  (** hedge clones created *)
  o_hedge_cancels : int;  (** losing copies discarded at grant *)
  o_classes : class_stats list;  (** backend order *)
  o_tiers : Mikpoly_fleet.Fleet.tier_metrics list;
  o_statuses : (Mikpoly_serve.Request.t * status) list;
      (** one terminal status per trace request, trace order *)
  o_status_digest : string;
      (** FNV-1a over the sorted (id, status) set — byte-comparable
          across arms and [--jobs] counts *)
  o_conserved : bool;
      (** every trace request has exactly one terminal status *)
}

val run :
  ?faults:Mikpoly_fault.Plan.t ->
  config ->
  Mikpoly_fleet.Tenant.tagged list ->
  outcome
(** Serve a tagged multi-tenant trace to completion on the mixed
    fleet. Device-class indices in the fault plan's outage/brown-out
    windows refer to [config.backends] order. Event ties break
    crash < arrival < hedge < replica step, then class index, then
    slot index. *)

val to_scheduler_outcome : outcome -> Mikpoly_serve.Scheduler.outcome
(** Project onto the single-fleet outcome record so the
    {!Mikpoly_serve.Metrics} pipeline (including
    {!Mikpoly_serve.Metrics.cache_table} with per-class labels) applies
    unchanged; rate-limited requests surface as rejections. *)

val cache_labels : outcome -> string list
(** One label per cache entry of {!to_scheduler_outcome}'s [cache]
    list, attributing each replica cache (and crash-retired cache) to
    its device class — e.g. ["gpu-0"; "npu-0"; "npu-1";
    "crashed-npu-0"]. Feed to {!Mikpoly_serve.Metrics.cache_table}. *)

val class_stalls : outcome -> (string * float) list
(** Per-class compile-stall rows for
    {!Mikpoly_serve.Metrics.cache_table}'s [stalls]. *)
