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
  o_fleet : Fleet.outcome;
  o_reroutes : int;
  o_hedges : int;
  o_hedge_cancels : int;
  o_classes : class_stats list;
  o_statuses : (Request.t * status) list;
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
  let n = List.length trace in
  {
    o_fleet = o;
    o_reroutes = l.Fleet.reroutes;
    o_hedges = l.Fleet.hedges;
    o_hedge_cancels = l.Fleet.hedge_cancels;
    o_classes =
      List.map2 class_stats config.backends (Array.to_list l.Fleet.classes);
    o_statuses = statuses;
    o_conserved =
      List.length statuses = n
      && List.length o.Fleet.completed + List.length o.Fleet.dropped
         + List.length o.Fleet.rate_limited
         = n
      && l.Fleet.resolved = n;
  }

let status_digest (o : outcome) =
  Mikpoly_serve.Resilience.digest
    (List.map
       (fun ((req : Request.t), st) -> (req.Request.id, status_name st))
       o.o_statuses)

(* A mixed fleet has no autoscaler, so every slot stays live and the
   fleet's cache list is the classes' [cs_cache] lists in order. *)
let to_scheduler_outcome (o : outcome) = Fleet.to_scheduler_outcome o.o_fleet

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
