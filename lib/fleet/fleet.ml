module Sch = Mikpoly_serve.Scheduler
module Replica = Mikpoly_serve.Replica
module Request = Mikpoly_serve.Request
module Batcher = Mikpoly_serve.Batcher
module Bucketing = Mikpoly_serve.Bucketing
module Shape_cache = Mikpoly_serve.Shape_cache
module Plan = Mikpoly_fault.Plan
module Tm = Mikpoly_telemetry

(* Always-on fleet metrics, alongside the serve.* family. The replica
   gauge uses the lock-free relative adjustment so concurrent fleets in
   one process never lose a +1/-1. *)
let m_steps = Tm.Metrics.counter "fleet.steps"

let m_completed = Tm.Metrics.counter "fleet.completed"

let m_dropped = Tm.Metrics.counter "fleet.dropped"

let m_warm_hits = Tm.Metrics.counter "fleet.warm.hits"

let m_warm_compiles = Tm.Metrics.counter "fleet.warm.compiles"

let m_scale_ups = Tm.Metrics.counter "fleet.scale.ups"

let m_scale_downs = Tm.Metrics.counter "fleet.scale.downs"

let m_crashes = Tm.Metrics.counter "fleet.crashes"

let g_replicas = Tm.Metrics.gauge "fleet.replicas"

let m_routed = Tm.Metrics.counter "hetero.routed"

let m_reroutes = Tm.Metrics.counter "hetero.reroutes"

let m_trips = Tm.Metrics.counter "hetero.trips"

let m_hedges = Tm.Metrics.counter "hetero.hedges"

type warm_config = {
  warm_top_k : int;
  warm_interval : float;
}

(* Warm-store capacity in shapes. *)
let warm_capacity = 4096

type config = {
  replicas : int;
  batcher : Batcher.policy;
  bucketing : Bucketing.policy;
  cache_capacity : int;
  coalesce : bool;
  steal_age : float;
  warm : warm_config option;
  autoscale : Autoscaler.config option;
  ratelimit : Ratelimit.config option;
}

(* Range checks are written [not (x >= bound)] so that NaN fails them:
   a NaN interval or age would never let the event clock move on. *)
let validate config =
  if config.replicas < 1 then invalid_arg "Fleet: replicas must be >= 1";
  Batcher.validate config.batcher;
  (match config.ratelimit with
  | Some rl -> Ratelimit.validate rl
  | None -> ());
  if config.cache_capacity < 0 then
    invalid_arg "Fleet: negative cache capacity";
  if not (config.steal_age >= 0.) then
    invalid_arg "Fleet: steal_age must be >= 0";
  (match config.warm with
  | Some w ->
    if w.warm_top_k < 0 then invalid_arg "Fleet: warm_top_k must be >= 0";
    if not (w.warm_interval > 0.) then
      invalid_arg "Fleet: warm_interval must be > 0"
  | None -> ());
  match config.autoscale with
  | Some a -> Autoscaler.validate a
  | None -> ()

type tier_metrics = {
  tm_tier : Tenant.tier;
  tm_requests : int;
  tm_completed : int;
  tm_slo_met : int;
  tm_attainment : float;
}

type outcome = {
  completed : Sch.completed list;
  dropped : Request.t list;
  rate_limited : Request.t list;
  steps : int;
  makespan : float;
  compile_stall_seconds : float;
  actual_tokens : int;
  padded_tokens : int;
  cache : Shape_cache.stats list;
  warm_stats : Shape_cache.stats option;
  warm_hits : int;
  warm_compiles : int;
  warm_background_seconds : float;
  coalesced_groups : int;
  queue_depth_sum : int;
  queue_samples : int;
  crashes : int;
  injected_faults : int;
  requeues : int;
  scale_ups : int;
  scale_downs : int;
  peak_replicas : int;
  replica_seconds : float;
  lanes : Wfq.lane_stats list;
  tiers : tier_metrics list;
}

let tier_table trace completed =
  let tenant_of = Tenant.lookup trace in
  List.map
    (fun tier ->
      let of_tier (t : Tenant.t) = t.Tenant.tier = tier in
      let reqs =
        List.length
          (List.filter (fun (tg : Tenant.tagged) -> of_tier tg.Tenant.tenant) trace)
      in
      let comps =
        List.filter
          (fun (c : Sch.completed) -> of_tier (tenant_of c.Sch.request.Request.id))
          completed
      in
      let met = List.length (List.filter Mikpoly_serve.Metrics.slo_met comps) in
      {
        tm_tier = tier;
        tm_requests = reqs;
        tm_completed = List.length comps;
        tm_slo_met = met;
        tm_attainment =
          (if reqs = 0 then 1. else float_of_int met /. float_of_int reqs);
      })
    Tenant.tiers

let to_scheduler_outcome (o : outcome) =
  Sch.project
    {
      Replica.steps = o.steps;
      makespan = o.makespan;
      stall = o.compile_stall_seconds;
      actual_tokens = o.actual_tokens;
      padded_tokens = o.padded_tokens;
      queue_depth_sum = o.queue_depth_sum;
      queue_samples = o.queue_samples;
      crashes = o.crashes;
      injected = o.injected_faults;
      requeues = o.requeues;
    }
    ~completed:o.completed ~dropped:o.dropped
    ~rejected:(List.map (fun r -> (r, "rate-limited")) o.rate_limited)
    ~timed_out:[] ~failed:[] ~adapt_stall_seconds:0. ~cache:o.cache

type hedge_config = {
  hedge_tiers : Tenant.tier list;
  hedge_slack : float;
}

type status = Completed | Dropped | Rate_limited

let status_name = function
  | Completed -> "completed"
  | Dropped -> "dropped"
  | Rate_limited -> "rate-limited"

type placement = {
  devices : (Sch.engine * int) list;
  class_store : bool;
  health : Health.config;
  degraded_max_tokens : int;
  hedge : hedge_config option;
  failover : bool;
}

(* NaN-safe like [validate]: a NaN hedge slack would otherwise pass
   both bounds and silently never hedge. *)
let validate_placement p =
  if p.devices = [] then invalid_arg "Fleet: no device classes";
  if p.degraded_max_tokens < 1 then
    invalid_arg "Fleet: degraded_max_tokens must be >= 1";
  Health.validate p.health;
  match p.hedge with
  | Some h ->
    if not (h.hedge_slack > 0. && h.hedge_slack <= 1.) then
      invalid_arg "Fleet: hedge_slack must be in (0, 1]";
    if h.hedge_tiers = [] then invalid_arg "Fleet: empty hedge_tiers"
  | None -> ()

type slot = Tenant.tagged Replica.slot

type cls = {
  c_idx : int;
  c_engine : Sch.engine;
  c_slots : slot array;
  mutable c_q : Wfq.t;
  c_health : Health.t;
  c_store : float Shape_cache.t option;
  mutable c_retired : Shape_cache.stats list;
  mutable c_routed : int;
  mutable c_completed : int;
  mutable c_steps : int;
  mutable c_stall : float;
  mutable c_service : float;
  mutable c_requeues : int;
  mutable c_rr_out : int;
  mutable c_rr_in : int;
  mutable c_hedges_in : int;
  mutable c_forced : int;
  mutable c_drains : int;
  mutable c_brownout_steps : int;
}

type ledger = {
  classes : cls array;
  status_of : int -> status option;
  resolved : int;
  reroutes : int;
  hedges : int;
  hedge_cancels : int;
}

(* Request ids and shape signatures key the loop's tables. They are
   plain ints, so they hash as themselves instead of through the
   polymorphic hash. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x = x land max_int
end)

let by_arrival trace =
  List.stable_sort
    (fun (a : Tenant.tagged) (b : Tenant.tagged) ->
      Request.compare_arrival a.Tenant.req b.Tenant.req)
    trace

(* Earliest [time signature arrival] over a queue's requests, where
   [time] is non-decreasing in [arrival] for each signature: the minimum
   then sits at each signature's oldest request, so one evaluation per
   signature gives the float a fold over every request would (a float
   minimum does not depend on order). *)
let earliest q time =
  if Wfq.is_empty q then None
  else
    Some
      (Wfq.fold_oldest q
         (fun s arrival _ acc -> Float.min acc (time s arrival))
         infinity)

(* Let the batcher rule on an offer taken from the queue (distinct ids):
   deferred requests return to their lane heads. *)
let grant batcher q ~now ~in_flight offer =
  let table = Ids.create 8 in
  List.iter (fun tg -> Ids.replace table tg.Tenant.req.Request.id tg) offer;
  let tagged_of (req : Request.t) = Ids.find table req.Request.id in
  let d, deferred =
    Batcher.admit_list batcher ~now ~in_flight
      (List.map (fun tg -> tg.Tenant.req) offer)
  in
  List.iter
    (fun req -> Wfq.push_front q (tagged_of req))
    (List.rev deferred);
  (d, tagged_of)

(* Event kinds in tie priority order: a crash preempts the arrival it
   races, arrivals land before the control planes act, and replica
   steps go last so they see the freshest queues — all fixed, so the
   interleaving is deterministic. A one-class fleet has no hedges and
   the mixed fleet no refresh or tick, so each keeps its own order:
   crash < arrival < refresh < tick < step, and
   crash < arrival < hedge < step. *)
let consider n t ev =
  Replica.consider n t
    (match ev with
    | `Crash _ -> 0
    | `Arrival -> 1
    | `Hedge _ -> 2
    | `Refresh _ -> 3
    | `Tick _ -> 4
    | `Step _ -> 5)
    ev

let serve ?(faults = Plan.none) config p trace =
  validate config;
  validate_placement p;
  Request.validate_trace ~caller:"Fleet" (fun tg -> tg.Tenant.req) trace;
  let sizes n =
    match config.autoscale with
    | Some a ->
      ( max n a.Autoscaler.max_replicas,
        max a.Autoscaler.min_replicas (min n a.Autoscaler.max_replicas) )
    | None -> (n, n)
  in
  let sized = List.map (fun (engine, n) -> (engine, sizes n)) p.devices in
  let n_slots = List.fold_left (fun acc (_, (n, _)) -> acc + n) 0 sized in
  (* Per slot, by global index: in service or not and since when (the
     autoscaler's state), and the slot's class. *)
  let live = Array.make n_slots false in
  let spawned = Array.make n_slots 0. in
  let cls_of = Array.make n_slots 0 in
  let learner = Option.map (fun _ -> Learner.create ()) config.warm in
  (* Warm-store admission is mass-aware, not LRU: a warm entry's weight
     is its bucket's decayed learner mass at the moment an admission
     decision is made, so a scan of cold buckets churns among the cold
     entries and can never evict a heavy-tail tenant's hot bucket.
     [warm_sig] remembers which bucket produced each warm shape (filled
     wherever [step_shapes] expands a bucket) and [warm_now] tracks the
     event clock the decay is evaluated at. Without the warm plane a
     class may still share an LRU store among its replicas. *)
  let warm_sig : (Shape_cache.key, int) Hashtbl.t = Hashtbl.create 64 in
  let warm_now = ref 0. in
  let store () =
    match (config.warm, learner) with
    | Some _, Some l ->
      let weight shape =
        match Hashtbl.find_opt warm_sig shape with
        | Some s -> Learner.mass l ~now:!warm_now ~signature:s
        | None -> 0.
      in
      Some (Shape_cache.create_weighted ~weight ~capacity:warm_capacity)
    | _ when p.class_store -> Some (Shape_cache.create ~capacity:config.cache_capacity)
    | _ -> None
  in
  let signature tg =
    Bucketing.bucket config.bucketing tg.Tenant.req.Request.prompt_len
  in
  let next_index = ref 0 in
  let classes =
    Array.of_list
      (List.mapi
         (fun i (engine, (total, active)) ->
           let slot j =
             let index = !next_index in
             incr next_index;
             live.(index) <- j < active;
             cls_of.(index) <- i;
             Replica.slot ~index ~capacity:config.cache_capacity
           in
           {
             c_idx = i;
             c_engine = engine;
             c_slots = Array.init total slot;
             c_q = Wfq.create ~signature;
             c_health = Health.create p.health;
             c_store = store ();
             c_retired = [];
             c_routed = 0;
             c_completed = 0;
             c_steps = 0;
             c_stall = 0.;
             c_service = 0.;
             c_requeues = 0;
             c_rr_out = 0;
             c_rr_in = 0;
             c_hedges_in = 0;
             c_forced = 0;
             c_drains = 0;
             c_brownout_steps = 0;
           })
         sized)
  in
  let n_classes = Array.length classes in
  let slots = Array.concat (List.map (fun c -> c.c_slots) (Array.to_list classes)) in
  let live_slots () =
    List.filter (fun (s : slot) -> live.(s.index)) (Array.to_list slots)
  in
  let peak = ref (List.length (live_slots ())) in
  Tm.Metrics.gauge_add g_replicas (float_of_int !peak);
  let pending = ref (by_arrival trace) in
  let limiter =
    Option.map
      (fun base ->
        Ratelimit.create ~rate_for:(fun t -> Ratelimit.for_tier ~base t.Tenant.tier))
      config.ratelimit
  in
  (* The request ledger: exactly one terminal status per trace request,
     however many copies hedging and trip drains put in flight.
     [copies] counts live copies (queued or running); [running] marks
     the admitted copy so a sibling reaching a grant is discarded;
     [statuses] is write-once. *)
  let copies : int Ids.t = Ids.create 256 in
  let running : unit Ids.t = Ids.create 64 in
  let hedged : unit Ids.t = Ids.create 64 in
  let statuses : status Ids.t = Ids.create 256 in
  (* Coalescing affinity, per class: signature -> the slot that last led
     a group for it. *)
  let owners = Array.map (fun _ -> Ids.create 32) classes in
  (* The router's predicted service per class: signature -> one
     [kv_tokens = 0] step of it. Engines are deterministic, so a value
     filled on first use is the float every later call would return. *)
  let services = Array.map (fun _ -> Ids.create 32) classes in
  let k = Replica.counters () in
  let completed = ref [] and dropped = ref [] and rate_limited = ref [] in
  let warm_hits = ref 0 and warm_compiles = ref 0 in
  let warm_bg_clock = ref 0. and warm_bg_seconds = ref 0. in
  let coalesced_groups = ref 0 and met_count = ref 0 in
  let scale_ups = ref 0 and scale_downs = ref 0 and replica_acc = ref 0. in
  let reroutes = ref 0 and hedges = ref 0 and hedge_cancels = ref 0 in
  let crashes_left = ref faults.Plan.crashes in
  let floor_now = ref 0. and last_change = ref 0. in
  let next_refresh =
    ref (match config.warm with Some w -> w.warm_interval | None -> infinity)
  in
  let next_tick =
    ref (match config.autoscale with Some a -> a.Autoscaler.interval | None -> infinity)
  in
  let step_shapes c ~tokens =
    let shapes = c.c_engine.Sch.step_shapes ~tokens in
    if Option.is_some learner then
      List.iter (fun (shape, _) -> Hashtbl.replace warm_sig shape tokens) shapes;
    shapes
  in
  let inflight c =
    Array.fold_left (fun acc (s : slot) -> acc + List.length s.act) 0 c.c_slots
  in
  let queued_total () =
    Array.fold_left (fun acc c -> acc + Wfq.length c.c_q) 0 classes
  in
  let work_remains () =
    !pending <> []
    || Array.exists (fun c -> not (Wfq.is_empty c.c_q)) classes
    || Array.exists (fun (s : slot) -> live.(s.index) && s.act <> []) slots
  in
  let set_status (req : Request.t) st =
    if not (Ids.mem statuses req.Request.id) then begin
      Ids.replace statuses req.Request.id st;
      Ids.remove copies req.Request.id;
      match st with
      | Completed -> ()
      | Dropped ->
        dropped := req :: !dropped;
        Tm.Metrics.incr m_dropped
      | Rate_limited -> rate_limited := req :: !rate_limited
    end
  in
  let add_copies (req : Request.t) d =
    let n = d + Option.value ~default:1 (Ids.find_opt copies req.Request.id) in
    Ids.replace copies req.Request.id n;
    n
  in
  (* Evicted in-flight copies stop running and go back to a lane head,
     uncharged — progress (tokens, KV) is lost, the requests are not. *)
  let requeue_into q (tg : Tenant.tagged) =
    Ids.remove running tg.Tenant.req.Request.id;
    Wfq.push_front q tg
  in
  (* A failed step's batch bounces back to its own class's lanes. *)
  let bounce c s =
    let n = Replica.evict s ~requeue:(requeue_into c.c_q) in
    c.c_requeues <- c.c_requeues + n;
    k.requeues <- k.requeues + n
  in
  let service_of c s =
    let table = services.(c.c_idx) in
    match Ids.find table s with
    | v -> v
    | exception Not_found ->
      let v = c.c_engine.Sch.step_seconds ~tokens:s ~kv_tokens:0 in
      Ids.replace table s v;
      v
  in
  (* Snapshot one class for the router: predicted service for this
     bucketed shape, recompile-on-arrival cost for the shapes missing
     from the class store, live backlog, and the health verdict (the
     no-failover arm routes health-blind — its whole point). With one
     class there is only one place a request can go: the router still
     applies the health gate (probe commit, forced flag), but the cost
     terms — the backlog is an O(queue) fold — cannot change its pick,
     so they are left at zero. The backlog is summed in queue order on
     every placement, not kept as a running total: a total updated on
     push and grant would round differently and route differently. *)
  let view_of ~now ~btokens c =
    let engine = c.c_engine in
    let service, cold, backlog =
      if n_classes = 1 then (0., 0., 0.)
      else
        let service = service_of c btokens in
        let cold =
          List.fold_left
            (fun acc (shape, _) ->
              match c.c_store with
              | Some st when Shape_cache.mem st shape -> acc
              | _ -> acc +. engine.Sch.compile_seconds shape)
            0.
            (engine.Sch.step_shapes ~tokens:btokens)
        in
        let queued =
          Wfq.fold c.c_q (fun acc tg' -> acc +. service_of c (signature tg')) 0.
        in
        ( service,
          cold,
          Array.fold_left
            (fun acc (s : slot) ->
              List.fold_left
                (fun acc (a : _ Replica.active) ->
                  acc +. service_of c (signature a.item))
                acc s.act)
            queued c.c_slots )
    in
    {
      Router.cv_class = c.c_idx;
      cv_level = (if p.failover then Health.level c.c_health else Health.Healthy);
      cv_probe_ready = p.failover && Health.probe_ready c.c_health ~now;
      cv_replicas = Array.length c.c_slots;
      cv_queue = Wfq.length c.c_q;
      cv_inflight = inflight c;
      cv_service = service;
      cv_cold_compile = cold;
      cv_backlog = backlog;
    }
  in
  (* Route [tg] among the classes other than [except] and queue it on
     the pick, unless the router was forced and [forced_ok] is not —
     a hedge only goes to a class willing to take the shape, since a
     forced fallback would just double the load on a sick fleet. *)
  let place ~now ~except ~forced_ok tg =
    let b = signature tg in
    let views =
      Array.to_list classes
      |> List.filter (fun o -> o.c_idx <> except)
      |> List.map (fun o -> view_of ~now ~btokens:b o)
    in
    let d =
      Router.route ~degraded_max_tokens:p.degraded_max_tokens
        ~ttft_budget:tg.Tenant.req.Request.slo.Request.ttft ~tokens:b views
    in
    if forced_ok || not d.Router.d_forced then begin
      let c = classes.(d.Router.d_class) in
      if d.Router.d_probe then ignore (Health.admit_probe c.c_health ~now);
      if d.Router.d_forced then c.c_forced <- c.c_forced + 1;
      c.c_routed <- c.c_routed + 1;
      Tm.Metrics.incr m_routed;
      Wfq.push c.c_q tg;
      Some c
    end
    else None
  in
  let do_arrival tg ~now =
    let admitted =
      match limiter with Some l -> Ratelimit.admit l ~now tg | None -> true
    in
    if not admitted then
      (* Shed at the door, before any queue, router or cache — and
         before the learner: rate-limited traffic must not train the
         warm store. *)
      set_status tg.Tenant.req Rate_limited
    else begin
      (match learner with
      | Some l ->
        Learner.observe l ~now ~tenant:tg.Tenant.tenant.Tenant.tenant_id
          ~signature:(signature tg)
          ~weight:(float_of_int (Tenant.weight tg.Tenant.tenant.Tenant.tier))
      | None -> ());
      Ids.replace copies tg.Tenant.req.Request.id 1;
      ignore (place ~now ~except:(-1) ~forced_ok:true tg)
    end
  in
  (* Hedged dispatch: a hedge-tier request still queued at
     [arrival + slack · TTFT-budget] gets a clone on the best other
     class; the first copy to reach an admission grant wins. *)
  let hedge_plane =
    match p.hedge with
    | Some h when p.failover && n_classes > 1 -> Some h
    | _ -> None
  in
  let hedge_next h =
    Array.fold_left
      (fun best c ->
        Wfq.fold c.c_q
          (fun best (tg : Tenant.tagged) ->
            let req = tg.Tenant.req in
            let id = req.Request.id in
            if
              List.mem tg.Tenant.tenant.Tenant.tier h.hedge_tiers
              && (not (Ids.mem hedged id))
              && not (Ids.mem statuses id)
            then begin
              let t =
                Float.max !floor_now
                  (req.Request.arrival +. (h.hedge_slack *. req.Request.slo.Request.ttft))
              in
              match best with
              | Some (bt, _, (b : Tenant.tagged))
                when bt < t || (bt = t && b.Tenant.req.Request.id <= id) -> best
              | _ -> Some (t, c, tg)
            end
            else best)
          best)
      None classes
  in
  let do_hedge c tg ~now =
    let req = tg.Tenant.req in
    Ids.replace hedged req.Request.id ();
    match place ~now ~except:c.c_idx ~forced_ok:false tg with
    | None -> ()
    | Some tgt ->
      ignore (add_copies req 1);
      tgt.c_hedges_in <- tgt.c_hedges_in + 1;
      incr hedges;
      Tm.Metrics.incr m_hedges
  in
  (* Breaker trip: drain the whole class — every replica's in-flight
     batch back through [push_front] (they were already admitted once),
     then the waiting queue in WFQ order — onto the least-loaded
     surviving class, non-evicted first. Recompile-on-arrival is charged
     there naturally, as ordinary class-store misses on the event
     clock. *)
  let drain c =
    c.c_drains <- c.c_drains + 1;
    Tm.Metrics.incr m_trips;
    let target =
      Array.fold_left
        (fun best o ->
          let key () =
            ( p.failover && Health.level o.c_health = Health.Evicted,
              Wfq.length o.c_q + inflight o )
          in
          if o.c_idx = c.c_idx then best
          else
            match best with
            | Some (bk, _) when bk <= key () -> best
            | _ -> Some (key (), o))
        None classes
    in
    match target with
    | None ->
      (* Single-class fleet: nothing to fail over to — bounce in-flight
         work back to the class's own lanes. *)
      Array.iter (bounce c) c.c_slots
    | Some (_, tgt) ->
      let moved n =
        c.c_rr_out <- c.c_rr_out + n;
        tgt.c_rr_in <- tgt.c_rr_in + n;
        reroutes := !reroutes + n;
        Tm.Metrics.add m_reroutes n
      in
      Array.iter
        (fun s -> moved (Replica.evict s ~requeue:(requeue_into tgt.c_q)))
        c.c_slots;
      let waiting = c.c_q in
      c.c_q <- Wfq.create ~signature;
      moved (Wfq.length waiting);
      Wfq.fold waiting (fun () tg -> Wfq.push tgt.c_q tg) ()
  in
  let do_crash target ~now =
    match live_slots () with
    | [] -> ()
    | actives ->
      let (s : slot) = List.nth actives (target mod List.length actives) in
      let c = classes.(cls_of.(s.index)) in
      Tm.Metrics.incr m_crashes;
      c.c_requeues <- c.c_requeues + List.length s.act;
      c.c_retired <-
        Replica.crash k s ~now ~restart_delay:faults.Plan.restart_delay
          ~requeue:(requeue_into c.c_q)
        :: c.c_retired
  in
  (* Policy-aging instant of a queued request, mirroring the Batcher
     predicates over a shared queue: a Timeout batcher holds a request
     back for its window unless the queue plus [in_flight] can fill the
     batch. *)
  let aged_time c in_flight arrival =
    match config.batcher with
    | Batcher.Greedy _ | Batcher.Slo_aware _ -> arrival
    | Batcher.Timeout { window; max_batch } ->
      if Wfq.length c.c_q + in_flight >= max_batch then arrival
      else arrival +. window
  in
  (* Earliest instant slot [r] may take a request as a group leader,
     from the request's signature [s] and [arrival].
     Coalescing affinity: a signature is sticky to the slot that last
     led a group for it, within its class, until that owner retires or
     the request ages past [steal_age]. Affinity never un-work-conserves
     the fleet: a busy or down owner is stolen from immediately (its
     cache locality is moot — it cannot serve now, and the shared store
     shares programs anyway); only an idle, live owner — which is about
     to take the request itself — is deferred to. Owner state is read
     at evaluation time; the event loop recomputes slot wake-ups every
     iteration, so the answer is always current.
     At [steal_age = 0] this is exactly [aged_time]: the deferral ends
     at [max aged (arrival + 0)] and [aged >= arrival] (the Timeout
     window is never negative), so [Wfq.take]'s [~first] filter equals
     its [~eligible] one — the mixed fleet runs that way, and skips the
     owner lookup.
     For a fixed signature and owner state the result is non-decreasing
     in [arrival], which is what lets [earliest] read only each
     signature's oldest request: [aged] is [arrival] or [arrival +.
     window] with one branch for the whole queue, and rounding is
     monotone; the deferral applies from the first arrival whose [aged]
     reaches the owner's [down_until] onward, and only raises the
     value. *)
  let affinity_time c (r : slot) in_flight s arrival =
    let aged = aged_time c in_flight arrival in
    if (not config.coalesce) || config.steal_age = 0. then aged
    else
      match Ids.find_opt owners.(c.c_idx) s with
      | Some i when live.(i) && i <> r.index ->
        let o = slots.(i) in
        if o.act <> [] || o.down_until > aged then aged
        else Float.max aged (arrival +. config.steal_age)
      | _ -> aged
  in
  let slot_next_time c (r : slot) =
    if not live.(r.index) then None
    else Replica.ready_at r (fun () -> earliest c.c_q (affinity_time c r 0))
  in
  let do_refresh w l ~now =
    warm_now := now;
    let top = Learner.top_k l ~now ~k:w.warm_top_k in
    Array.iter
      (fun c ->
        match c.c_store with
        | None -> ()
        | Some ws ->
          let engine = c.c_engine in
          (* Batch prewarm (wall clock only): every shape this refresh
             will compile goes through one coarse batched search, so the
             modeled [compile_seconds] lookups below are memo hits. The
             simulated event-clock math is unchanged — the background
             worker still charges each shape's modeled cost serially on
             its own clock. *)
          let missing =
            List.concat_map
              (fun (signature, _) ->
                List.filter_map
                  (fun (shape, _) ->
                    if Shape_cache.mem ws shape then None else Some shape)
                  (step_shapes c ~tokens:signature))
              top
          in
          if missing <> [] then ignore (engine.Sch.precompile_batch ~jobs:0 missing);
          List.iter
            (fun (signature, _) ->
              List.iter
                (fun (shape, _) ->
                  if not (Shape_cache.mem ws shape) then begin
                    (* One background worker compiles serially, off
                       every replica's critical path; the program only
                       becomes warm once its compile finishes on that
                       clock. *)
                    let cost = engine.Sch.compile_seconds shape in
                    warm_bg_clock := Float.max !warm_bg_clock now +. cost;
                    warm_bg_seconds := !warm_bg_seconds +. cost;
                    Shape_cache.add ws shape !warm_bg_clock;
                    incr warm_compiles;
                    Tm.Metrics.incr m_warm_compiles
                  end)
                (step_shapes c ~tokens:signature))
            top)
      classes
  in
  let spawn ~now =
    match List.find_opt (fun (s : slot) -> not live.(s.index)) (Array.to_list slots) with
    | None -> false
    | Some r ->
      live.(r.index) <- true;
      spawned.(r.index) <- now;
      r.clock <- now;
      r.down_until <- 0.;
      incr scale_ups;
      Tm.Metrics.incr m_scale_ups;
      Tm.Metrics.gauge_add g_replicas 1.;
      peak := max !peak (List.length (live_slots ()));
      true
  in
  let retire ~now =
    (* Retire the youngest idle, healthy replica; if every replica is
       busy or down, hold — never kill in-flight work for efficiency. *)
    match
      List.rev
        (List.filter (fun (r : slot) -> r.act = [] && r.down_until <= now) (live_slots ()))
    with
    | [] -> false
    | r :: _ ->
      let c = classes.(cls_of.(r.index)) in
      live.(r.index) <- false;
      replica_acc := !replica_acc +. (now -. spawned.(r.index));
      c.c_retired <- Replica.retire r :: c.c_retired;
      incr scale_downs;
      Tm.Metrics.incr m_scale_downs;
      Tm.Metrics.gauge_add g_replicas (-1.);
      true
  in
  let do_tick a ~now =
    let up, down =
      List.partition (fun (r : slot) -> r.down_until <= now) (live_slots ())
    in
    let n_up = max 1 (List.length up) in
    let resolved = Ids.length statuses in
    let signal =
      {
        Autoscaler.queue_depth = float_of_int (queued_total ()) /. float_of_int n_up;
        slo_attainment =
          (if resolved = 0 then 1.
           else float_of_int !met_count /. float_of_int resolved);
        stall_ratio =
          (if now <= 0. then 0. else k.stall /. (now *. float_of_int n_up));
        live_replicas = List.length up;
        down_replicas = List.length down;
      }
    in
    match Autoscaler.decide a ~last_change:!last_change ~now signal with
    | Autoscaler.Hold -> ()
    | Autoscaler.Scale_up -> if spawn ~now then last_change := now
    | Autoscaler.Scale_down -> if retire ~now then last_change := now
  in
  let do_step c (r : slot) ~now =
    (* Admission: pull an offer from the class queue in WFQ order (the
       first grant is affinity-restricted when coalescing), then let the
       Batcher policy rule on it. By construction the offer is already
       policy-eligible, so the batcher admits or sheds — a deferral
       would only mean the queue-level aging predicate and the batcher
       disagreed, and then the request simply returns to its lane. *)
    let in_flight = List.length r.act in
    let cap = Batcher.max_batch config.batcher - in_flight in
    let offer =
      if cap <= 0 || Wfq.is_empty c.c_q then []
      else
        Wfq.take c.c_q ~max:cap
          ~eligible:(fun tg ->
            aged_time c in_flight tg.Tenant.req.Request.arrival <= now)
          ~first:(fun tg ->
            affinity_time c r in_flight (signature tg) tg.Tenant.req.Request.arrival
            <= now)
          ~group:(fun leader tg ->
            (not config.coalesce) || signature leader = signature tg)
          ()
    in
    (match offer with
    | leader :: _ when config.coalesce ->
      let s = signature leader in
      Ids.replace owners.(c.c_idx) s r.index;
      if List.length offer > 1 && List.for_all (fun tg -> signature tg = s) offer
      then incr coalesced_groups
    | _ -> ());
    (* Cancel-at-grant: a copy whose sibling is already running (or
       whose request already resolved) is discarded here, before the
       batcher ever sees it — the hedge's loser, or work drained twice.
       A duplicate inside one offer keeps only its first copy. *)
    let seen = Ids.create 8 in
    let fresh, stale =
      List.partition
        (fun (tg : Tenant.tagged) ->
          let id = tg.Tenant.req.Request.id in
          let dup = Ids.mem seen id in
          Ids.replace seen id ();
          (not dup) && (not (Ids.mem running id)) && not (Ids.mem statuses id))
        offer
    in
    List.iter
      (fun (tg : Tenant.tagged) ->
        ignore (add_copies tg.Tenant.req (-1));
        incr hedge_cancels)
      stale;
    let d, tagged_of = grant config.batcher c.c_q ~now ~in_flight fresh in
    List.iter
      (fun (req : Request.t) ->
        (* The batcher shed one copy; the request only resolves as
           dropped when no sibling copy remains in flight. *)
        if add_copies req (-1) <= 0 then set_status req Dropped
        else incr hedge_cancels)
      d.Batcher.dropped;
    List.iter
      (fun (req : Request.t) -> Ids.replace running req.Request.id ())
      d.Batcher.admitted;
    Replica.admit r ~item:tagged_of d.Batcher.admitted;
    if r.act = [] then Replica.idle r ~now ~shed:(d.Batcher.dropped <> [])
    else begin
      let engine = c.c_engine in
      let b =
        Replica.batch k r ~queued:(queued_total ()) ~bucketing:config.bucketing
          ~coalesce:config.coalesce ~step_shapes:(step_shapes c)
      in
      (* Program lookup ladder: replica cache, then the class-shared
         store (stall-free if its background or publishing compile
         finished by [now]), then an on-path compile that stalls this
         step and publishes class-wide — so no sibling replica compiles
         this shape again, while another device class, with its own
         fingerprint and micro-kernels, never sees it. Publishes to a
         warm store are admitted at the learner masses of [now]. *)
      warm_now := now;
      let stall =
        Replica.lookup r ~now ~compile:engine.Sch.compile_seconds ~store:c.c_store
          ~on_store_hit:(fun () ->
            incr warm_hits;
            Tm.Metrics.incr m_warm_hits)
          b.shapes
      in
      let step_idx = Replica.next_step r in
      let base_slow = Plan.step_slowdown faults ~replica:r.index ~step:step_idx in
      if base_slow > 1. then k.injected <- k.injected + 1;
      let cls_slow = Plan.class_slowdown faults ~cls:c.c_idx ~now in
      if cls_slow > 1. then begin
        k.injected <- k.injected + 1;
        c.c_brownout_steps <- c.c_brownout_steps + 1
      end;
      let slowdown = base_slow *. cls_slow in
      let dt =
        (engine.Sch.step_seconds ~tokens:b.btokens ~kv_tokens:b.kv_tokens +. stall)
        *. slowdown
      in
      k.stall <- k.stall +. stall;
      c.c_stall <- c.c_stall +. stall;
      c.c_service <- c.c_service +. dt;
      c.c_steps <- c.c_steps + 1;
      Tm.Metrics.incr m_steps;
      let fin = now +. dt in
      let down = Plan.class_down faults ~cls:c.c_idx ~now in
      if down then k.injected <- k.injected + 1;
      let fails = down || Plan.step_fails faults ~replica:r.index ~step:step_idx in
      if fails && not down then k.injected <- k.injected + 1;
      (* Health sees every step, whether or not failover acts on it —
         the no-failover arm records the same trips. *)
      let verdict = Health.observe c.c_health ~now:fin ~slowdown ~failed:fails in
      if fails then begin
        if p.failover && verdict = `Tripped then
          (* The trip edge: this replica's batch and everything else the
             class holds drains to the surviving class. *)
          drain c
        else
          (* A transient step fault: device time elapses, the step's
             work is lost, and the batch bounces back to its lanes for a
             fresh attempt (progress restarts, like a crash). *)
          bounce c r
      end
      else
        Replica.advance r ~fin ~on_done:(fun _ done_ ->
            let req = done_.Sch.request in
            Ids.remove running req.Request.id;
            completed := done_ :: !completed;
            c.c_completed <- c.c_completed + 1;
            if Mikpoly_serve.Metrics.slo_met done_ then incr met_count;
            Tm.Metrics.incr m_completed;
            set_status req Completed);
      Replica.close_step k r ~clock:fin
    end
  in
  Replica.drive
    ~candidates:(fun n ->
      (match !crashes_left with (t, i) :: _ -> consider n t (`Crash i) | [] -> ());
      (match !pending with
      | tg :: _ -> consider n tg.Tenant.req.Request.arrival `Arrival
      | [] -> ());
      (match Option.bind hedge_plane hedge_next with
      | Some (t, c, tg) -> consider n t (`Hedge (c, tg))
      | None -> ());
      if work_remains () then begin
        (match (config.warm, learner) with
        | Some w, Some l -> consider n !next_refresh (`Refresh (w, l))
        | _ -> ());
        match config.autoscale with
        | Some a -> consider n !next_tick (`Tick a)
        | None -> ()
      end;
      Array.iter
        (fun c ->
          Array.iter
            (fun r ->
              match slot_next_time c r with
              | Some t -> consider n t (`Step (c, r))
              | None -> ())
            c.c_slots)
        classes)
    ~fire:(fun t ev ->
      floor_now := Float.max !floor_now t;
      match ev with
      | `Crash i ->
        crashes_left := List.tl !crashes_left;
        do_crash i ~now:t
      | `Arrival ->
        let tg = List.hd !pending in
        pending := List.tl !pending;
        do_arrival tg ~now:t
      | `Hedge (c, tg) -> do_hedge c tg ~now:t
      | `Refresh (w, l) ->
        do_refresh w l ~now:t;
        next_refresh := !next_refresh +. w.warm_interval
      | `Tick a ->
        do_tick a ~now:t;
        next_tick := !next_tick +. a.Autoscaler.interval
      | `Step (c, r) -> do_step c r ~now:t);
  let actives = live_slots () in
  Tm.Metrics.gauge_add g_replicas (-.float_of_int (List.length actives));
  ( {
      completed = List.rev !completed;
      dropped = List.rev !dropped;
      rate_limited = List.rev !rate_limited;
      steps = k.steps;
      makespan = k.makespan;
      compile_stall_seconds = k.stall;
      actual_tokens = k.actual_tokens;
      padded_tokens = k.padded_tokens;
      cache =
        List.concat_map
          (fun c ->
            List.filter_map
              (fun (r : slot) ->
                if live.(r.index) then Some (Shape_cache.stats r.cache) else None)
              (Array.to_list c.c_slots)
            @ List.rev c.c_retired)
          (Array.to_list classes);
      warm_stats =
        Option.bind learner (fun _ -> Option.map Shape_cache.stats classes.(0).c_store);
      warm_hits = !warm_hits;
      warm_compiles = !warm_compiles;
      warm_background_seconds = !warm_bg_seconds;
      coalesced_groups = !coalesced_groups;
      queue_depth_sum = k.queue_depth_sum;
      queue_samples = k.queue_samples;
      crashes = k.crashes;
      injected_faults = k.injected;
      requeues = k.requeues;
      scale_ups = !scale_ups;
      scale_downs = !scale_downs;
      peak_replicas = !peak;
      replica_seconds =
        !replica_acc
        +. List.fold_left
             (fun acc (r : slot) -> acc +. Float.max 0. (k.makespan -. spawned.(r.index)))
             0. actives;
      lanes = List.concat_map (fun c -> Wfq.stats c.c_q) (Array.to_list classes);
      tiers = tier_table trace !completed;
    },
    {
      classes;
      status_of = Ids.find_opt statuses;
      resolved = Ids.length statuses;
      reroutes = !reroutes;
      hedges = !hedges;
      hedge_cancels = !hedge_cancels;
    } )

let run ?faults config engine trace =
  fst
    (serve ?faults config
       {
         devices = [ (engine, config.replicas) ];
         class_store = false;
         health = Health.default;
         degraded_max_tokens = max_int;
         hedge = None;
         failover = false;
       }
       trace)
