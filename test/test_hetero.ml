(* Unit tests for the heterogeneous mixed-fleet plane: fault-plan
   device-class windows, door-side rate limiting, breaker probe purity,
   the brown-out ladder's hysteresis, deadline-aware routing, and the
   hetero event loop's conservation / determinism invariants — in
   particular the circuit-breaker × crash-requeue interplay: however
   many copies trips, drains, crashes and hedges put in flight, every
   admitted request ends with exactly one terminal status. *)

open Mikpoly_hetero
module Tenant = Mikpoly_fleet.Tenant
module Ratelimit = Mikpoly_fleet.Ratelimit
module Health = Mikpoly_fleet.Health
module Router = Mikpoly_fleet.Router
module Request = Mikpoly_serve.Request
module Batcher = Mikpoly_serve.Batcher
module Bucketing = Mikpoly_serve.Bucketing
module Scheduler = Mikpoly_serve.Scheduler
module Plan = Mikpoly_fault.Plan
module Breaker = Mikpoly_fault.Breaker
module Hardware = Mikpoly_accel.Hardware

let gold = { Tenant.tenant_id = 0; tenant_name = "gold"; tier = Tenant.Gold }

let silver =
  { Tenant.tenant_id = 1; tenant_name = "silver"; tier = Tenant.Silver }

let be =
  { Tenant.tenant_id = 2; tenant_name = "batch"; tier = Tenant.Best_effort }

let req ?(ttft = 0.25) ?(e2e = 2.0) ~id ~arrival ?(prompt = 8) ?(output = 2) ()
    =
  {
    Request.id;
    arrival;
    prompt_len = prompt;
    output_len = output;
    slo = { Request.ttft; e2e };
  }

let tag tenant r = { Tenant.req = r; tenant }

(* Synthetic engines: fixed step time, one shape per bucket, near-free
   compiles — the event loop's control flow without compiler cost.
   Under the deadline-aware router both classes fit the default 250 ms
   TTFT budget, so the SLOWEST-service class (the "slow" backend,
   class 1) soaks the traffic — fault windows below target class 1. *)
let engine ?(step = 0.001) name =
  {
    Scheduler.engine_name = name;
    step_seconds = (fun ~tokens:_ ~kv_tokens:_ -> step);
    step_shapes = (fun ~tokens -> [ ((tokens, 64, 64), 1) ]);
    compile_seconds = (fun _ -> 1e-6);
    precompile_batch = (fun ~jobs:_ shapes -> List.length shapes);
  }

let fast_backend ?(replicas = 1) () =
  Backend.make ~hw:Hardware.a100 ~replicas (engine ~step:0.001 "fast")

let slow_backend ?(replicas = 1) () =
  Backend.make ~hw:Hardware.ascend910 ~replicas (engine ~step:0.002 "slow")

let config ?hedge ?(failover = true) ?ratelimit backends =
  {
    Hetero.backends;
    batcher = Batcher.Greedy { max_batch = 4 };
    bucketing = Bucketing.Pow2;
    cache_capacity = 32;
    coalesce = false;
    health =
      {
        Health.default with
        breaker = { Breaker.failure_threshold = 2; cooldown = 0.01 };
        min_dwell = 0.002;
      };
    degraded_max_tokens = 16;
    hedge;
    failover;
    ratelimit;
  }

let trace ?(count = 6) () =
  Tenant.trace ~seed:11 ~max_prompt:32 ~max_output:4
    [
      { Tenant.tenant = gold; rate = 200.; count };
      { Tenant.tenant = silver; rate = 200.; count };
      { Tenant.tenant = be; rate = 200.; count };
    ]
    ()

(* --- Fault plan device-class windows --- *)

let test_plan_class_windows () =
  let plan =
    Plan.make
      ~outages:[ Plan.outage ~cls:0 ~start:0.01 ~stop:0.02 ]
      ~brownouts:[ Plan.brownout ~cls:1 ~start:0.01 ~stop:0.03 ~slowdown:3. ]
      ~seed:7 ()
  in
  Alcotest.(check bool)
    "down inside window" true
    (Plan.class_down plan ~cls:0 ~now:0.015);
  Alcotest.(check bool)
    "up before window" false
    (Plan.class_down plan ~cls:0 ~now:0.005);
  Alcotest.(check bool)
    "stop is exclusive" false
    (Plan.class_down plan ~cls:0 ~now:0.02);
  Alcotest.(check bool)
    "other class unaffected" false
    (Plan.class_down plan ~cls:1 ~now:0.015);
  Alcotest.(check (float 1e-9))
    "brown-out multiplier" 3.
    (Plan.class_slowdown plan ~cls:1 ~now:0.02);
  Alcotest.(check (float 1e-9))
    "nominal outside" 1.
    (Plan.class_slowdown plan ~cls:1 ~now:0.05)

(* --- Rate limiting at the door --- *)

let test_ratelimit_sheds_after_burst () =
  let base = { Ratelimit.rl_rate = 10.; rl_burst = 2. } in
  let l =
    Ratelimit.create ~rate_for:(fun t -> Ratelimit.for_tier ~base t.Tenant.tier)
  in
  let tg i = tag be (req ~id:i ~arrival:0. ()) in
  (* burst of 2 admitted, the third refused, a refill admits again *)
  Alcotest.(check bool) "first" true (Ratelimit.admit l ~now:0. (tg 0));
  Alcotest.(check bool) "second" true (Ratelimit.admit l ~now:0. (tg 1));
  Alcotest.(check bool) "third shed" false (Ratelimit.admit l ~now:0. (tg 2));
  Alcotest.(check bool)
    "refill admits" true
    (Ratelimit.admit l ~now:0.2 (tg 3));
  (* gold's bucket is 4x the base burst *)
  let gg i = tag gold (req ~id:(100 + i) ~arrival:0. ()) in
  let admitted =
    List.init 8 (fun i -> Ratelimit.admit l ~now:0. (gg i))
    |> List.filter (fun b -> b)
    |> List.length
  in
  Alcotest.(check int) "gold burst is 4x base" 8 admitted;
  let stats = Ratelimit.stats l in
  Alcotest.(check int) "sheds counted" 1 stats.Ratelimit.rl_shed;
  Alcotest.(check int) "tenants tracked" 2 stats.Ratelimit.rl_tenants

(* --- Breaker: half-open probe peek is pure --- *)

let test_breaker_would_allow_pure () =
  let b =
    Breaker.create ~policy:{ Breaker.failure_threshold = 2; cooldown = 0.01 } ()
  in
  Breaker.record_failure b ~now:0.;
  Breaker.record_failure b ~now:0.001;
  Alcotest.(check string)
    "tripped" "open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool)
    "not ready inside cooldown" false
    (Breaker.would_allow b ~now:0.005);
  (* peeking twice must not consume the probe slot *)
  Alcotest.(check bool) "ready" true (Breaker.would_allow b ~now:0.02);
  Alcotest.(check bool) "peek is pure" true (Breaker.would_allow b ~now:0.02);
  Alcotest.(check string)
    "still open after peeks" "open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "commit" true (Breaker.allow b ~now:0.02);
  Alcotest.(check string)
    "half-open after commit" "half-open"
    (Breaker.state_name (Breaker.state b));
  Breaker.record_success b;
  Alcotest.(check string)
    "probe success re-closes" "closed"
    (Breaker.state_name (Breaker.state b))

(* --- Health ladder hysteresis --- *)

let test_health_ladder_hysteresis () =
  let h =
    Health.create
      {
        Health.breaker = Breaker.default;
        ewma_alpha = 0.5;
        degrade_enter = 2.0;
        degrade_exit = 1.2;
        min_dwell = 0.01;
      }
  in
  Alcotest.(check string)
    "starts healthy" "healthy"
    (Health.level_name (Health.level h));
  (* sustained slowdown crosses the enter threshold *)
  ignore (Health.observe h ~now:0.001 ~slowdown:4. ~failed:false);
  ignore (Health.observe h ~now:0.002 ~slowdown:4. ~failed:false);
  Alcotest.(check string)
    "degrades" "degraded"
    (Health.level_name (Health.level h));
  (* EWMA back under the exit threshold before the dwell: pinned *)
  ignore (Health.observe h ~now:0.004 ~slowdown:0.1 ~failed:false);
  ignore (Health.observe h ~now:0.005 ~slowdown:0.1 ~failed:false);
  Alcotest.(check string)
    "dwell pins the level" "degraded"
    (Health.level_name (Health.level h));
  (* after the dwell it recovers *)
  ignore (Health.observe h ~now:0.02 ~slowdown:0.1 ~failed:false);
  Alcotest.(check string)
    "recovers after dwell" "healthy"
    (Health.level_name (Health.level h));
  Alcotest.(check int) "one degraded entry" 1 (Health.degraded_entries h);
  Alcotest.(check int) "two transitions" 2 (Health.transitions h)

(* --- Router --- *)

let view ?(cls = 0) ?(level = Health.Healthy) ?(probe_ready = false)
    ?(replicas = 1) ?(queue = 0) ?(inflight = 0) ?(service = 0.001)
    ?(cold = 0.) ?(backlog = 0.) () =
  {
    Router.cv_class = cls;
    cv_level = level;
    cv_probe_ready = probe_ready;
    cv_replicas = replicas;
    cv_queue = queue;
    cv_inflight = inflight;
    cv_service = service;
    cv_cold_compile = cold;
    cv_backlog = backlog;
  }

let test_router_cheapest_without_budget () =
  let a = view ~cls:0 ~service:0.002 () in
  let b = view ~cls:1 ~service:0.001 () in
  let d = Router.route ~tokens:8 [ a; b ] in
  Alcotest.(check int) "cheapest wins" 1 d.Router.d_class;
  (* backlog is amortized over replicas: 1ms + 8ms/8 beats an idle
     2.5ms class, but the same backlog on one replica does not *)
  let loaded replicas =
    view ~cls:0 ~service:0.001 ~backlog:0.008 ~replicas ()
  in
  let idle = view ~cls:1 ~service:0.0025 () in
  let d = Router.route ~tokens:8 [ loaded 8; idle ] in
  Alcotest.(check int) "replicas amortize backlog" 0 d.Router.d_class;
  let d = Router.route ~tokens:8 [ loaded 1; idle ] in
  Alcotest.(check int) "one replica eats it all" 1 d.Router.d_class

let test_router_deadline_awareness () =
  (* fast class misses the budget under backlog; slow idle class fits *)
  let fast = view ~cls:0 ~service:0.001 ~backlog:0.02 () in
  let slow = view ~cls:1 ~service:0.002 () in
  let d = Router.route ~ttft_budget:0.005 ~tokens:8 [ fast; slow ] in
  Alcotest.(check int) "fitting outranks missing" 1 d.Router.d_class;
  (* both fit: the slowest-service class takes it, reserving the fast
     machine for work that actually needs it *)
  let fast = view ~cls:0 ~service:0.001 () in
  let slow = view ~cls:1 ~service:0.002 () in
  let d = Router.route ~ttft_budget:0.1 ~tokens:8 [ fast; slow ] in
  Alcotest.(check int) "slowest fitting wins" 1 d.Router.d_class;
  (* both miss: plain cheapest cost *)
  let fast = view ~cls:0 ~service:0.001 ~backlog:0.01 () in
  let slow = view ~cls:1 ~service:0.002 ~backlog:0.02 () in
  let d = Router.route ~ttft_budget:0.001 ~tokens:8 [ fast; slow ] in
  Alcotest.(check int) "cheapest among missing" 0 d.Router.d_class

let test_router_health_gating () =
  let healthy = view ~cls:0 ~service:0.01 () in
  let degraded = view ~cls:1 ~level:Health.Degraded ~service:0.001 () in
  (* degraded takes cheap shapes only *)
  let d =
    Router.route ~degraded_max_tokens:16 ~tokens:8 [ healthy; degraded ]
  in
  Alcotest.(check int) "degraded takes cheap shape" 1 d.Router.d_class;
  let d =
    Router.route ~degraded_max_tokens:16 ~tokens:64 [ healthy; degraded ]
  in
  Alcotest.(check int) "degraded refuses big shape" 0 d.Router.d_class;
  (* evicted is skipped unless probe-ready, then the placement is the
     half-open probe *)
  let evicted = view ~cls:1 ~level:Health.Evicted ~service:0.001 () in
  let d = Router.route ~tokens:8 [ healthy; evicted ] in
  Alcotest.(check int) "evicted skipped" 0 d.Router.d_class;
  Alcotest.(check bool) "not a probe" false d.Router.d_probe;
  let ready =
    view ~cls:1 ~level:Health.Evicted ~probe_ready:true ~service:0.001 ()
  in
  let d = Router.route ~tokens:8 [ healthy; ready ] in
  Alcotest.(check int) "probe-ready evicted eligible" 1 d.Router.d_class;
  Alcotest.(check bool) "flagged as probe" true d.Router.d_probe;
  (* nothing eligible: forced fallback, availability over perfection *)
  let down0 = view ~cls:0 ~level:Health.Evicted ~service:0.002 () in
  let down1 = view ~cls:1 ~level:Health.Evicted ~service:0.001 () in
  let d = Router.route ~tokens:8 [ down0; down1 ] in
  Alcotest.(check bool) "forced" true d.Router.d_forced;
  Alcotest.(check int) "forced to cheapest" 1 d.Router.d_class

(* --- Tenant profiles and the banded length distribution --- *)

let test_tenant_profiles_override () =
  let profiles = function
    | Tenant.Gold ->
      {
        Tenant.no_profile with
        Tenant.p_ttft = Some 0.015;
        p_max_prompt = Some 16;
        p_max_output = Some 2;
      }
    | Tenant.Silver -> Tenant.no_profile
    | Tenant.Best_effort ->
      {
        Tenant.no_profile with
        Tenant.p_ttft = Some 0.5;
        p_max_prompt = Some 256;
        p_max_output = Some 1;
        p_length_dist = Some (Request.Log_uniform_band { lo = 64 });
      }
  in
  let tagged =
    Tenant.trace ~profiles ~seed:3 ~max_prompt:32 ~max_output:4
      [
        { Tenant.tenant = gold; rate = 100.; count = 12 };
        { Tenant.tenant = silver; rate = 100.; count = 12 };
        { Tenant.tenant = be; rate = 100.; count = 12 };
      ]
      ()
  in
  List.iter
    (fun (tg : Tenant.tagged) ->
      match tg.Tenant.tenant.Tenant.tier with
      | Tenant.Gold ->
        Alcotest.(check (float 1e-9))
          "gold ttft override" 0.015 tg.Tenant.req.Request.slo.Request.ttft;
        Alcotest.(check bool)
          "gold prompt capped" true
          (tg.Tenant.req.Request.prompt_len <= 16)
      | Tenant.Silver ->
        Alcotest.(check bool)
          "silver keeps trace-wide caps" true
          (tg.Tenant.req.Request.prompt_len <= 32)
      | Tenant.Best_effort ->
        let p = tg.Tenant.req.Request.prompt_len in
        Alcotest.(check bool)
          "banded length in [lo, max]" true
          (p >= 64 && p <= 256);
        Alcotest.(check int)
          "single-token output" 1 tg.Tenant.req.Request.output_len)
    tagged

let test_log_uniform_band_validates () =
  Alcotest.check_raises "lo must be >= 1"
    (Invalid_argument "Request: Log_uniform_band lo must be >= 1") (fun () ->
      ignore
        (Request.poisson
           ~length_dist:(Request.Log_uniform_band { lo = 0 })
           ~seed:1 ~rate:10. ~count:1 ~max_prompt:64 ~max_output:2 ()))

(* --- Hetero event loop --- *)

let statuses_cover_trace tagged (o : Hetero.outcome) =
  let ids =
    List.sort_uniq compare
      (List.map (fun (tg : Tenant.tagged) -> tg.Tenant.req.Request.id) tagged)
  in
  let status_ids =
    List.sort compare
      (List.map (fun (r, _) -> r.Request.id) o.Hetero.o_statuses)
  in
  ids = status_ids

let test_hetero_conserves_and_is_deterministic () =
  let tagged = trace () in
  let cfg () = config [ fast_backend (); slow_backend () ] in
  let o1 = Hetero.run (cfg ()) tagged in
  let o2 = Hetero.run (cfg ()) tagged in
  Alcotest.(check bool) "conserved" true o1.Hetero.o_conserved;
  Alcotest.(check bool)
    "statuses cover the trace exactly once" true
    (statuses_cover_trace tagged o1);
  Alcotest.(check string)
    "bit-identical digests across runs" o1.Hetero.o_status_digest
    o2.Hetero.o_status_digest;
  Alcotest.(check int)
    "all completed on a quiet plan"
    (List.length tagged)
    (List.length o1.Hetero.o_completed)

let test_hetero_digest_stable_across_jobs () =
  let tagged = trace () in
  let saved = Mikpoly_util.Domain_pool.default_jobs () in
  let run_at jobs =
    Mikpoly_util.Domain_pool.set_default_jobs jobs;
    Hetero.run
      ~faults:
        (Plan.make
           ~outages:[ Plan.outage ~cls:1 ~start:0.002 ~stop:0.012 ]
           ~seed:7 ())
      (config [ fast_backend (); slow_backend () ])
      tagged
  in
  Fun.protect
    ~finally:(fun () -> Mikpoly_util.Domain_pool.set_default_jobs saved)
    (fun () ->
      let o1 = run_at 1 in
      let o4 = run_at 4 in
      Alcotest.(check string)
        "breaker probes and drains don't depend on --jobs"
        o1.Hetero.o_status_digest o4.Hetero.o_status_digest;
      Alcotest.(check bool) "conserved at jobs=1" true o1.Hetero.o_conserved;
      Alcotest.(check bool) "conserved at jobs=4" true o4.Hetero.o_conserved)

let test_hetero_outage_trips_and_fails_over () =
  let tagged = trace ~count:8 () in
  let plan =
    Plan.make
      ~outages:[ Plan.outage ~cls:1 ~start:0.001 ~stop:0.015 ]
      ~seed:7 ()
  in
  let o =
    Hetero.run ~faults:plan (config [ fast_backend (); slow_backend () ]) tagged
  in
  let sick = List.nth o.Hetero.o_classes 1 in
  Alcotest.(check bool) "breaker tripped" true (sick.Hetero.cs_trips > 0);
  Alcotest.(check bool)
    "trip drained work to the surviving class" true
    (o.Hetero.o_reroutes > 0);
  Alcotest.(check bool) "conserved under failover" true o.Hetero.o_conserved;
  Alcotest.(check int)
    "every request still completes"
    (List.length tagged)
    (List.length o.Hetero.o_completed)

let test_hetero_breaker_crash_interplay () =
  (* A replica crash in the middle of the outage-and-drain window: the
     crash requeues in-flight copies via push_front while the breaker
     is rerouting the same queue — the ledger must still end with
     exactly one terminal status per request, identically on every
     run. *)
  let tagged = trace ~count:8 () in
  let plan =
    Plan.make
      ~outages:[ Plan.outage ~cls:1 ~start:0.001 ~stop:0.015 ]
      ~crashes:[ (0.004, 0); (0.006, 2) ]
      ~restart_delay:0.003 ~seed:7 ()
  in
  let run () =
    Hetero.run ~faults:plan
      (config ~hedge:Hetero.default_hedge
         [ fast_backend ~replicas:2 (); slow_backend ~replicas:2 () ])
      tagged
  in
  let o1 = run () in
  let o2 = run () in
  Alcotest.(check bool) "crashes injected" true (o1.Hetero.o_crashes > 0);
  Alcotest.(check bool)
    "conserved under breaker x crash" true o1.Hetero.o_conserved;
  Alcotest.(check bool)
    "statuses cover the trace exactly once" true
    (statuses_cover_trace tagged o1);
  Alcotest.(check string)
    "digest deterministic under chaos" o1.Hetero.o_status_digest
    o2.Hetero.o_status_digest

let test_hetero_no_failover_keeps_class_queues () =
  let tagged = trace ~count:8 () in
  let plan =
    Plan.make
      ~outages:[ Plan.outage ~cls:1 ~start:0.001 ~stop:0.01 ]
      ~seed:7 ()
  in
  let o =
    Hetero.run ~faults:plan
      (config ~failover:false [ fast_backend (); slow_backend () ])
      tagged
  in
  Alcotest.(check int) "no cross-class drains" 0 o.Hetero.o_reroutes;
  Alcotest.(check int) "no hedges" 0 o.Hetero.o_hedges;
  Alcotest.(check bool) "still conserved" true o.Hetero.o_conserved;
  Alcotest.(check int)
    "outage retries complete after the window"
    (List.length tagged)
    (List.length o.Hetero.o_completed)

let test_hetero_ratelimit_statuses () =
  let tagged = trace ~count:8 () in
  let o =
    Hetero.run
      (config
         ~ratelimit:{ Ratelimit.rl_rate = 10.; rl_burst = 2. }
         [ fast_backend (); slow_backend () ])
      tagged
  in
  Alcotest.(check bool)
    "door sheds under the tiny bucket" true
    (List.length o.Hetero.o_rate_limited > 0);
  Alcotest.(check bool)
    "shed requests stay in the ledger" true o.Hetero.o_conserved;
  Alcotest.(check int)
    "completed + shed covers the trace"
    (List.length tagged)
    (List.length o.Hetero.o_completed + List.length o.Hetero.o_rate_limited)

let test_hetero_scheduler_projection () =
  let tagged = trace () in
  let o = Hetero.run (config [ fast_backend (); slow_backend () ]) tagged in
  let s = Hetero.to_scheduler_outcome o in
  Alcotest.(check int)
    "completed projected"
    (List.length o.Hetero.o_completed)
    (List.length s.Scheduler.completed);
  Alcotest.(check int)
    "cache labels match cache list"
    (List.length s.Scheduler.cache)
    (List.length (Hetero.cache_labels o))

(* An outage, two crashes and hedging on the mixed fleet, reduced to a
   pinned fingerprint: status digest, steps, the exact bits of makespan
   and stall, and every replica cache's and class store's hits/misses. *)
let test_hetero_pinned () =
  let plan =
    Plan.make
      ~outages:[ Plan.outage ~cls:1 ~start:0.001 ~stop:0.015 ]
      ~crashes:[ (0.004, 0); (0.006, 2) ]
      ~restart_delay:0.003 ~seed:7 ()
  in
  let o =
    Hetero.run ~faults:plan
      (config ~hedge:Hetero.default_hedge
         [ fast_backend ~replicas:2 (); slow_backend ~replicas:2 () ])
      (trace ~count:8 ())
  in
  let caches =
    List.concat_map
      (fun cs -> cs.Hetero.cs_cache @ [ cs.Hetero.cs_store ])
      o.Hetero.o_classes
  in
  Alcotest.(check string)
    "fingerprint"
    "63880c8a738694bf steps=50 makespan=0x1.a598ec56a407dp-5 \
     stall=0x1.92a737110e455p-17 caches=2/4;8/5;0/2;6/5;11/5;9/3;0/1;3/6"
    (Printf.sprintf "%s steps=%d makespan=%h stall=%h caches=%s"
       o.Hetero.o_status_digest o.Hetero.o_steps o.Hetero.o_makespan
       o.Hetero.o_stall_seconds
       (String.concat ";"
          (List.map
             (fun (s : Mikpoly_serve.Shape_cache.stats) ->
               Printf.sprintf "%d/%d" s.hits s.misses)
             caches)))

(* --- One loop, one ledger: conservation over random chaos --- *)

module Fleet = Mikpoly_fleet.Fleet
module Autoscaler = Mikpoly_fleet.Autoscaler

(* A random scenario: trace seed and size (three tenants of 1..21
   requests, so at most 63, with TTFT budgets tight enough that gold
   requests get hedged), up to three replica crashes, and one
   device-class outage window. *)
let scenario_gen =
  QCheck.(
    quad (int_bound 100_000) (int_range 1 21)
      (list_of_size (Gen.int_bound 3)
         (pair (float_bound_inclusive 0.05) (int_bound 7)))
      (pair (float_bound_inclusive 0.03) (float_range 0.001 0.02)))

let scenario ~cls (seed, per_tenant, crashes, (start, len)) =
  let tagged =
    Tenant.trace ~seed ~ttft_budget:0.004 ~max_prompt:32 ~max_output:4
      (List.map
         (fun tenant -> { Tenant.tenant; rate = 200.; count = per_tenant })
         [ gold; silver; be ])
      ()
  in
  let plan =
    Plan.make ~crashes ~restart_delay:0.003
      ~outages:[ Plan.outage ~cls ~start ~stop:(start +. len) ]
      ~seed ()
  in
  (tagged, plan)

(* Every trace request has exactly one terminal status, completions are
   distinct, and each completion's clock is monotone. *)
let ledger_holds tagged ~completed ~dropped ~rate_limited =
  let id (r : Request.t) = r.Request.id in
  let completed_ids =
    List.map (fun (c : Scheduler.completed) -> id c.Scheduler.request) completed
  in
  List.sort compare (List.map (fun (tg : Tenant.tagged) -> id tg.Tenant.req) tagged)
  = List.sort compare
      (completed_ids @ List.map id dropped @ List.map id rate_limited)
  && List.length (List.sort_uniq compare completed_ids)
     = List.length completed_ids
  && List.for_all
       (fun (c : Scheduler.completed) ->
         c.Scheduler.request.Request.arrival <= c.Scheduler.first_token
         && c.Scheduler.first_token <= c.Scheduler.finish)
       completed

let prop_fleet_conserves =
  let engine = Scheduler.synthetic_engine ~compile:1e-3 ~shape_families:2 () in
  let config =
    {
      Fleet.replicas = 2;
      batcher = Batcher.Greedy { max_batch = 4 };
      bucketing = Bucketing.Pow2;
      cache_capacity = 32;
      coalesce = true;
      steal_age = 0.005;
      warm = Some { Fleet.warm_top_k = 8; warm_interval = 0.01 };
      autoscale =
        Some
          {
            Autoscaler.min_replicas = 1;
            max_replicas = 4;
            up_queue_depth = 4.;
            down_queue_depth = 1.;
            cooldown = 0.02;
            interval = 0.01;
          };
      ratelimit = Some { Ratelimit.rl_rate = 100.; rl_burst = 3. };
    }
  in
  QCheck.Test.make ~name:"fleet full config conserves" ~count:40 scenario_gen
    (fun s ->
      let tagged, faults = scenario ~cls:0 s in
      let o = Fleet.run ~faults config engine tagged in
      ledger_holds tagged ~completed:o.Fleet.completed ~dropped:o.Fleet.dropped
        ~rate_limited:o.Fleet.rate_limited
      && o = Fleet.run ~faults config engine tagged)

let prop_hetero_conserves ~failover =
  QCheck.Test.make
    ~name:(Printf.sprintf "hetero failover=%b conserves" failover)
    ~count:40 scenario_gen
    (fun s ->
      let tagged, faults = scenario ~cls:1 s in
      let run () =
        Hetero.run ~faults
          (config ~hedge:Hetero.default_hedge ~failover
             ~ratelimit:{ Ratelimit.rl_rate = 100.; rl_burst = 3. }
             [ fast_backend ~replicas:2 (); slow_backend ~replicas:2 () ])
          tagged
      in
      let o = run () in
      o.Hetero.o_conserved
      && ledger_holds tagged ~completed:o.Hetero.o_completed
           ~dropped:o.Hetero.o_dropped ~rate_limited:o.Hetero.o_rate_limited
      && o = run ())

let () =
  Alcotest.run "hetero"
    [
      ( "plan",
        [ Alcotest.test_case "class windows" `Quick test_plan_class_windows ]
      );
      ( "ratelimit",
        [
          Alcotest.test_case "sheds after burst" `Quick
            test_ratelimit_sheds_after_burst;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "would_allow is pure" `Quick
            test_breaker_would_allow_pure;
        ] );
      ( "health",
        [
          Alcotest.test_case "ladder hysteresis" `Quick
            test_health_ladder_hysteresis;
        ] );
      ( "router",
        [
          Alcotest.test_case "cheapest without budget" `Quick
            test_router_cheapest_without_budget;
          Alcotest.test_case "deadline awareness" `Quick
            test_router_deadline_awareness;
          Alcotest.test_case "health gating" `Quick test_router_health_gating;
        ] );
      ( "tenant",
        [
          Alcotest.test_case "profiles override" `Quick
            test_tenant_profiles_override;
          Alcotest.test_case "banded dist validates" `Quick
            test_log_uniform_band_validates;
        ] );
      ( "hetero",
        [
          Alcotest.test_case "conservation and determinism" `Quick
            test_hetero_conserves_and_is_deterministic;
          Alcotest.test_case "digest stable across jobs" `Quick
            test_hetero_digest_stable_across_jobs;
          Alcotest.test_case "outage trips and fails over" `Quick
            test_hetero_outage_trips_and_fails_over;
          Alcotest.test_case "breaker x crash interplay" `Quick
            test_hetero_breaker_crash_interplay;
          Alcotest.test_case "no-failover stays in class" `Quick
            test_hetero_no_failover_keeps_class_queues;
          Alcotest.test_case "ratelimit statuses" `Quick
            test_hetero_ratelimit_statuses;
          Alcotest.test_case "scheduler projection" `Quick
            test_hetero_scheduler_projection;
          Alcotest.test_case "pinned chaos outcome" `Quick test_hetero_pinned;
        ] );
      ( "one loop",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fleet_conserves;
            prop_hetero_conserves ~failover:true;
            prop_hetero_conserves ~failover:false;
          ] );
    ]
