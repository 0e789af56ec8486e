module Sch = Mikpoly_serve.Scheduler
module Replica = Mikpoly_serve.Replica
module Request = Mikpoly_serve.Request
module Batcher = Mikpoly_serve.Batcher
module Bucketing = Mikpoly_serve.Bucketing
module Shape_cache = Mikpoly_serve.Shape_cache
module Tenant = Mikpoly_fleet.Tenant
module Ratelimit = Mikpoly_fleet.Ratelimit
module Health = Mikpoly_fleet.Health
module Fleet = Mikpoly_fleet.Fleet

type hedge_config = Fleet.hedge_config = {
  hedge_tiers : Tenant.tier list;
  hedge_slack : float;
}

let default_hedge = { hedge_tiers = [ Tenant.Gold ]; hedge_slack = 0.5 }

type config = {
  backends : Backend.t list;
  batcher : Batcher.policy;
  bucketing : Bucketing.policy;
  cache_capacity : int;
  coalesce : bool;
  health : Health.config;
  degraded_max_tokens : int;
  hedge : hedge_config option;
  failover : bool;
  ratelimit : Ratelimit.config option;
}

(* The rate limit is validated by the fleet loop, with the rest of the
   fleet configuration. *)
let validate config =
  if config.backends = [] then invalid_arg "Hetero: no backends";
  if config.cache_capacity < 0 then
    invalid_arg "Hetero: negative cache capacity";
  if config.degraded_max_tokens < 1 then
    invalid_arg "Hetero: degraded_max_tokens must be >= 1";
  Health.validate config.health;
  match config.hedge with
  | Some h ->
    if h.hedge_slack <= 0. || h.hedge_slack > 1. then
      invalid_arg "Hetero: hedge_slack must be in (0, 1]";
    if h.hedge_tiers = [] then invalid_arg "Hetero: empty hedge_tiers"
  | None -> ()

type status = Fleet.status = Completed | Dropped | Rate_limited

let status_name = Fleet.status_name

type class_stats = {
  cs_backend : string;
  cs_kind : string;
  cs_fingerprint : string;
  cs_replicas : int;
  cs_pes : int;
  cs_routed : int;
  cs_completed : int;
  cs_steps : int;
  cs_stall_seconds : float;
  cs_service_seconds : float;
  cs_requeues : int;
  cs_reroutes_out : int;
  cs_reroutes_in : int;
  cs_hedges_in : int;
  cs_forced : int;
  cs_probes : int;
  cs_trips : int;
  cs_drains : int;
  cs_brownout_steps : int;
  cs_degraded_entries : int;
  cs_level_transitions : int;
  cs_final_level : string;
  cs_cache : Shape_cache.stats list;
  cs_store : Shape_cache.stats;
}

type outcome = {
  o_completed : Sch.completed list;
  o_dropped : Request.t list;
  o_rate_limited : Request.t list;
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
  o_reroutes : int;
  o_hedges : int;
  o_hedge_cancels : int;
  o_classes : class_stats list;
  o_tiers : Fleet.tier_metrics list;
  o_statuses : (Request.t * status) list;
  o_status_digest : string;
  o_conserved : bool;
}

let class_stats (b : Backend.t) (c : Fleet.cls) =
  let bstats = Health.breaker_stats c.c_health in
  {
    cs_backend = b.Backend.bk_name;
    cs_kind = Backend.kind_name b.Backend.bk_kind;
    cs_fingerprint = b.Backend.bk_fingerprint;
    cs_replicas = b.Backend.bk_replicas;
    cs_pes = b.Backend.bk_replicas * b.Backend.bk_pes;
    cs_routed = c.c_routed;
    cs_completed = c.c_completed;
    cs_steps = c.c_steps;
    cs_stall_seconds = c.c_stall;
    cs_service_seconds = c.c_service;
    cs_requeues = c.c_requeues;
    cs_reroutes_out = c.c_rr_out;
    cs_reroutes_in = c.c_rr_in;
    cs_hedges_in = c.c_hedges_in;
    cs_forced = c.c_forced;
    cs_probes = bstats.Mikpoly_fault.Breaker.probes;
    cs_trips = bstats.Mikpoly_fault.Breaker.trips;
    cs_drains = c.c_drains;
    cs_brownout_steps = c.c_brownout_steps;
    cs_degraded_entries = Health.degraded_entries c.c_health;
    cs_level_transitions = Health.transitions c.c_health;
    cs_final_level = Health.level_name (Health.level c.c_health);
    cs_cache =
      (Array.to_list c.c_slots
      |> List.map (fun (s : _ Replica.slot) -> Shape_cache.stats s.cache))
      @ List.rev c.c_retired;
    cs_store = Shape_cache.stats (Option.get c.c_store);
  }

(* The mixed fleet is a configuration of the fleet loop: one device
   class per backend, each with its class-shared program store, the
   cost router and the health planes — and no warm plane, no
   autoscaler and [steal_age = 0] (owner affinity never defers). *)
let run ?faults config trace =
  validate config;
  let fleet =
    {
      Fleet.replicas = 1;
      batcher = config.batcher;
      bucketing = config.bucketing;
      cache_capacity = config.cache_capacity;
      coalesce = config.coalesce;
      steal_age = 0.;
      warm = None;
      autoscale = None;
      ratelimit = config.ratelimit;
    }
  in
  let placement =
    {
      Fleet.devices =
        List.map
          (fun (b : Backend.t) -> (b.Backend.bk_engine, b.Backend.bk_replicas))
          config.backends;
      class_store = true;
      health = config.health;
      degraded_max_tokens = config.degraded_max_tokens;
      hedge = config.hedge;
      failover = config.failover;
    }
  in
  let o, l = Fleet.serve ?faults fleet placement trace in
  let statuses =
    List.filter_map
      (fun (tg : Tenant.tagged) ->
        let req = tg.Tenant.req in
        Option.map (fun st -> (req, st)) (l.Fleet.status_of req.Request.id))
      trace
  in
  let digest =
    Mikpoly_serve.Resilience.digest
      (List.map
         (fun ((req : Request.t), st) -> (req.Request.id, status_name st))
         statuses)
  in
  let n = List.length trace in
  {
    o_completed = o.Fleet.completed;
    o_dropped = o.Fleet.dropped;
    o_rate_limited = o.Fleet.rate_limited;
    o_steps = o.Fleet.steps;
    o_makespan = o.Fleet.makespan;
    o_stall_seconds = o.Fleet.compile_stall_seconds;
    o_actual_tokens = o.Fleet.actual_tokens;
    o_padded_tokens = o.Fleet.padded_tokens;
    o_queue_depth_sum = o.Fleet.queue_depth_sum;
    o_queue_samples = o.Fleet.queue_samples;
    o_crashes = o.Fleet.crashes;
    o_injected_faults = o.Fleet.injected_faults;
    o_requeues = o.Fleet.requeues;
    o_reroutes = l.Fleet.reroutes;
    o_hedges = l.Fleet.hedges;
    o_hedge_cancels = l.Fleet.hedge_cancels;
    o_classes =
      List.map2 class_stats config.backends (Array.to_list l.Fleet.classes);
    o_tiers = o.Fleet.tiers;
    o_statuses = statuses;
    o_status_digest = digest;
    o_conserved =
      List.length statuses = n
      && List.length o.Fleet.completed + List.length o.Fleet.dropped
         + List.length o.Fleet.rate_limited
         = n
      && l.Fleet.resolved = n;
  }

let to_scheduler_outcome (o : outcome) =
  Sch.project
    {
      Replica.steps = o.o_steps;
      makespan = o.o_makespan;
      stall = o.o_stall_seconds;
      actual_tokens = o.o_actual_tokens;
      padded_tokens = o.o_padded_tokens;
      queue_depth_sum = o.o_queue_depth_sum;
      queue_samples = o.o_queue_samples;
      crashes = o.o_crashes;
      injected = o.o_injected_faults;
      requeues = o.o_requeues;
    }
    ~completed:o.o_completed ~dropped:o.o_dropped
    ~rejected:(List.map (fun r -> (r, "rate-limited")) o.o_rate_limited)
    ~timed_out:[] ~failed:[] ~adapt_stall_seconds:0.
    ~cache:(List.concat_map (fun cs -> cs.cs_cache) o.o_classes)

let cache_labels (o : outcome) =
  List.concat_map
    (fun cs ->
      let live =
        List.init cs.cs_replicas (fun i ->
            cs.cs_backend ^ "-" ^ string_of_int i)
      in
      let retired = List.length cs.cs_cache - cs.cs_replicas in
      live
      @ List.init (max 0 retired) (fun i ->
            "crashed-" ^ cs.cs_backend ^ "-" ^ string_of_int i))
    o.o_classes

let class_stalls (o : outcome) =
  List.map (fun cs -> (cs.cs_backend, cs.cs_stall_seconds)) o.o_classes
