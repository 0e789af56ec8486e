module Sch = Mikpoly_serve.Scheduler
module Replica = Mikpoly_serve.Replica
module Request = Mikpoly_serve.Request
module Batcher = Mikpoly_serve.Batcher
module Bucketing = Mikpoly_serve.Bucketing
module Shape_cache = Mikpoly_serve.Shape_cache
module Tenant = Mikpoly_fleet.Tenant
module Wfq = Mikpoly_fleet.Wfq
module Ratelimit = Mikpoly_fleet.Ratelimit
module Fleet = Mikpoly_fleet.Fleet
module Plan = Mikpoly_fault.Plan
module Checksum = Mikpoly_util.Checksum
module Tm = Mikpoly_telemetry

(* Always-on hetero metrics, alongside the fleet.* family. *)
let m_routed = Tm.Metrics.counter "hetero.routed"

let m_reroutes = Tm.Metrics.counter "hetero.reroutes"

let m_trips = Tm.Metrics.counter "hetero.trips"

let m_hedges = Tm.Metrics.counter "hetero.hedges"

type hedge_config = {
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

let validate config =
  if config.backends = [] then invalid_arg "Hetero: no backends";
  if config.cache_capacity < 0 then
    invalid_arg "Hetero: negative cache capacity";
  if config.degraded_max_tokens < 1 then
    invalid_arg "Hetero: degraded_max_tokens must be >= 1";
  Health.validate config.health;
  (match config.hedge with
  | Some h ->
    if h.hedge_slack <= 0. || h.hedge_slack > 1. then
      invalid_arg "Hetero: hedge_slack must be in (0, 1]";
    if h.hedge_tiers = [] then invalid_arg "Hetero: empty hedge_tiers"
  | None -> ());
  match config.ratelimit with
  | Some rl -> Ratelimit.validate rl
  | None -> ()

type status = Completed | Dropped | Rate_limited

let status_name = function
  | Completed -> "completed"
  | Dropped -> "dropped"
  | Rate_limited -> "rate-limited"

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

(* A replica slot; its index is the fleet-wide replica number, the
   fault-draw key. *)
type slot = Tenant.tagged Replica.slot

type cls = {
  c_idx : int;
  c_backend : Backend.t;
  c_slots : slot array;
  mutable c_q : Wfq.t;
  c_health : Health.t;
  c_store : float Shape_cache.t;
      (* class-shared program store: shape -> event-clock ready-at.
         The per-class analogue of the fleet's warm store — programs
         published by one replica's on-path compile become stall-free
         for its siblings once the compile finishes. *)
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

(* Event kinds in tie priority order: a crash preempts the arrival it
   races, arrivals land before hedges fire, and replica steps go last
   so they see the freshest queues — fixed, so the interleaving is
   deterministic whatever [--jobs] is. *)
let prio_crash = 0

let prio_arrival = 1

let prio_hedge = 2

let prio_step = 4

let run ?(faults = Plan.none) config trace =
  validate config;
  let classes =
    let next_global = ref 0 in
    Array.of_list
      (List.mapi
         (fun i (b : Backend.t) ->
           let slots =
             Array.init b.Backend.bk_replicas (fun _ ->
                 let index = !next_global in
                 incr next_global;
                 Replica.slot ~index ~capacity:config.cache_capacity)
           in
           {
             c_idx = i;
             c_backend = b;
             c_slots = slots;
             c_q = Wfq.create ();
             c_health = Health.create config.health;
             c_store = Shape_cache.create ~capacity:config.cache_capacity;
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
         config.backends)
  in
  let n_classes = Array.length classes in
  let pending = ref (Fleet.by_arrival trace) in
  let limiter = Fleet.limiter config.ratelimit in
  (* The request ledger: exactly one terminal status per trace request,
     however many copies hedging and trip drains put in flight.
     [copies] counts live copies (queued or running); [running] marks
     the admitted copy so a sibling reaching a grant is discarded;
     [statuses] is write-once. *)
  let copies : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let running : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let hedged : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let statuses : (int, status) Hashtbl.t = Hashtbl.create 256 in
  let k = Replica.counters () in
  let completed = ref [] in
  let dropped = ref [] in
  let rate_limited = ref [] in
  let reroutes = ref 0 in
  let hedges = ref 0 in
  let hedge_cancels = ref 0 in
  let resolved = ref 0 in
  let crashes_left = ref faults.Plan.crashes in
  let floor_now = ref 0. in
  let signature tg =
    Bucketing.bucket config.bucketing tg.Tenant.req.Request.prompt_len
  in
  let inflight c =
    Array.fold_left (fun acc (s : slot) -> acc + List.length s.act) 0 c.c_slots
  in
  let queued_total () =
    Array.fold_left (fun acc c -> acc + Wfq.length c.c_q) 0 classes
  in
  let set_status (req : Request.t) st =
    if not (Hashtbl.mem statuses req.Request.id) then begin
      Hashtbl.replace statuses req.Request.id st;
      incr resolved;
      match st with
      | Completed -> ()
      | Dropped -> dropped := req :: !dropped
      | Rate_limited -> rate_limited := req :: !rate_limited
    end
  in
  let drop_copy (req : Request.t) =
    let id = req.Request.id in
    let n = (match Hashtbl.find_opt copies id with Some n -> n | None -> 1) - 1 in
    Hashtbl.replace copies id n;
    n
  in
  (* Evicted in-flight copies stop running and go back to a lane head. *)
  let requeue_into q (tg : Tenant.tagged) =
    Hashtbl.remove running tg.Tenant.req.Request.id;
    Wfq.push_front q tg
  in
  (* A failed step's batch bounces back to its own class's lanes. *)
  let bounce c s =
    let n = Replica.evict s ~requeue:(requeue_into c.c_q) in
    c.c_requeues <- c.c_requeues + n;
    k.requeues <- k.requeues + n
  in
  (* Snapshot one class for the router: predicted service for this
     bucketed shape, recompile-on-arrival cost for the shapes missing
     from the class store, live backlog, and the health verdict (the
     no-failover arm routes health-blind — its whole point). *)
  let view_of ~now ~btokens c =
    let engine = c.c_backend.Backend.bk_engine in
    let service = engine.Sch.step_seconds ~tokens:btokens ~kv_tokens:0 in
    let cold =
      List.fold_left
        (fun acc ((shape : Shape_cache.key), _) ->
          if Shape_cache.mem c.c_store shape then acc
          else acc +. engine.Sch.compile_seconds shape)
        0.
        (engine.Sch.step_shapes ~tokens:btokens)
    in
    let service_of tg' =
      engine.Sch.step_seconds ~tokens:(signature tg') ~kv_tokens:0
    in
    let backlog =
      List.fold_left
        (fun acc tg' -> acc +. service_of tg')
        0. (Wfq.to_list c.c_q)
      |> fun q ->
      Array.fold_left
        (fun acc (s : slot) ->
          List.fold_left
            (fun acc (a : _ Replica.active) -> acc +. service_of a.item)
            acc s.act)
        q c.c_slots
    in
    {
      Router.cv_class = c.c_idx;
      cv_level =
        (if config.failover then Health.level c.c_health else Health.Healthy);
      cv_probe_ready = config.failover && Health.probe_ready c.c_health ~now;
      cv_replicas = c.c_backend.Backend.bk_replicas;
      cv_queue = Wfq.length c.c_q;
      cv_inflight = inflight c;
      cv_service = service;
      cv_cold_compile = cold;
      cv_backlog = backlog;
    }
  in
  let place ~now ~probe ~forced c tg =
    if probe then ignore (Health.admit_probe c.c_health ~now);
    if forced then c.c_forced <- c.c_forced + 1;
    c.c_routed <- c.c_routed + 1;
    Tm.Metrics.incr m_routed;
    Wfq.push c.c_q tg
  in
  let do_arrival tg ~now =
    let admitted =
      match limiter with Some l -> Ratelimit.admit l ~now tg | None -> true
    in
    if not admitted then
      (* Shed at the door: never reaches a queue, a router or a cache. *)
      set_status tg.Tenant.req Rate_limited
    else begin
      Hashtbl.replace copies tg.Tenant.req.Request.id 1;
      let b = signature tg in
      let views =
        Array.to_list classes |> List.map (fun c -> view_of ~now ~btokens:b c)
      in
      let d =
        Router.route ~degraded_max_tokens:config.degraded_max_tokens
          ~ttft_budget:tg.Tenant.req.Request.slo.Request.ttft ~tokens:b views
      in
      place ~now ~probe:d.Router.d_probe ~forced:d.Router.d_forced
        classes.(d.Router.d_class) tg
    end
  in
  (* Hedged dispatch: a gold-tier request still queued at
     [arrival + slack · TTFT-budget] gets a clone on the best other
     class; the first copy to reach an admission grant wins. *)
  let hedge_plane =
    match config.hedge with
    | Some h when config.failover && n_classes > 1 -> Some h
    | _ -> None
  in
  let hedge_next () =
    match hedge_plane with
    | None -> None
    | Some h ->
      let best = ref None in
      Array.iter
        (fun c ->
          List.iter
            (fun (tg : Tenant.tagged) ->
              let req = tg.Tenant.req in
              if
                List.mem tg.Tenant.tenant.Tenant.tier h.hedge_tiers
                && (not (Hashtbl.mem hedged req.Request.id))
                && not (Hashtbl.mem statuses req.Request.id)
              then begin
                let t =
                  Float.max !floor_now
                    (req.Request.arrival
                    +. (h.hedge_slack *. req.Request.slo.Request.ttft))
                in
                match !best with
                | Some (bt, _, btg)
                  when bt < t
                       || (bt = t && btg.Tenant.req.Request.id <= req.Request.id)
                  ->
                  ()
                | _ -> best := Some (t, c, tg)
              end)
            (Wfq.to_list c.c_q))
        classes;
      !best
  in
  let do_hedge c tg ~now =
    let req = tg.Tenant.req in
    Hashtbl.replace hedged req.Request.id ();
    let b = signature tg in
    let views =
      Array.to_list classes
      |> List.filter (fun o -> o.c_idx <> c.c_idx)
      |> List.map (fun o -> view_of ~now ~btokens:b o)
    in
    let d =
      Router.route ~degraded_max_tokens:config.degraded_max_tokens
        ~ttft_budget:req.Request.slo.Request.ttft ~tokens:b views
    in
    if not d.Router.d_forced then begin
      (* Only hedge onto a class willing to take the shape — a forced
         fallback would just double the load on a sick fleet. *)
      let tgt = classes.(d.Router.d_class) in
      Hashtbl.replace copies req.Request.id
        ((match Hashtbl.find_opt copies req.Request.id with
         | Some n -> n
         | None -> 1)
        + 1);
      tgt.c_hedges_in <- tgt.c_hedges_in + 1;
      incr hedges;
      Tm.Metrics.incr m_hedges;
      place ~now ~probe:d.Router.d_probe ~forced:false tgt tg
    end
  in
  (* Breaker trip: drain the whole class — every replica's in-flight
     batch back through [push_front] (they were already admitted once),
     then the waiting queue in WFQ order — onto the least-loaded
     surviving class. Recompile-on-arrival is charged there naturally,
     as ordinary class-store misses on the event clock. *)
  let drain c =
    c.c_drains <- c.c_drains + 1;
    Tm.Metrics.incr m_trips;
    let target =
      let best = ref None in
      Array.iter
        (fun o ->
          if o.c_idx <> c.c_idx then begin
            let evicted =
              config.failover && Health.level o.c_health = Health.Evicted
            in
            let load = Wfq.length o.c_q + inflight o in
            match !best with
            | Some (bev, bl, _)
              when (bev, bl) <= (evicted, load) ->
              ()
            | _ -> best := Some (evicted, load, o)
          end)
        classes;
      match !best with Some (_, _, o) -> Some o | None -> None
    in
    match target with
    | None ->
      (* Single-class fleet: nothing to fail over to — bounce in-flight
         work back to the class's own lanes. *)
      Array.iter (bounce c) c.c_slots
    | Some tgt ->
      let moved n =
        c.c_rr_out <- c.c_rr_out + n;
        tgt.c_rr_in <- tgt.c_rr_in + n;
        reroutes := !reroutes + n;
        Tm.Metrics.add m_reroutes n
      in
      Array.iter
        (fun s -> moved (Replica.evict s ~requeue:(requeue_into tgt.c_q)))
        c.c_slots;
      let waiting = Wfq.to_list c.c_q in
      c.c_q <- Wfq.create ();
      moved (List.length waiting);
      List.iter (fun tg -> Wfq.push tgt.c_q tg) waiting
  in
  let do_crash target ~now =
    let all = Array.to_list classes |> List.concat_map (fun c ->
        Array.to_list c.c_slots |> List.map (fun s -> (c, s)))
    in
    match all with
    | [] -> ()
    | _ ->
      let c, (s : slot) = List.nth all (target mod List.length all) in
      c.c_requeues <- c.c_requeues + List.length s.act;
      c.c_retired <-
        Replica.crash k s ~now ~restart_delay:faults.Plan.restart_delay
          ~requeue:(requeue_into c.c_q)
        :: c.c_retired
  in
  let aged_time c in_flight tg =
    Fleet.aged_time config.batcher c.c_q ~in_flight tg
  in
  let slot_next_time c s =
    Replica.ready_at s (fun () -> Fleet.earliest c.c_q (aged_time c 0))
  in
  let do_step c (s : slot) ~now =
    let in_flight = List.length s.act in
    let cap = Batcher.max_batch config.batcher - in_flight in
    let offer =
      if cap <= 0 || Wfq.is_empty c.c_q then []
      else
        Wfq.take c.c_q ~max:cap
          ~eligible:(fun tg -> aged_time c in_flight tg <= now)
          ~group:(fun leader tg ->
            (not config.coalesce) || signature leader = signature tg)
          ()
    in
    (* Cancel-at-grant: a copy whose sibling is already running (or
       whose request already resolved) is discarded here, before the
       batcher ever sees it — the hedge's loser, or work drained twice.
       A duplicate inside one offer keeps only its first copy. *)
    let seen = Hashtbl.create 8 in
    let fresh, stale =
      List.partition
        (fun (tg : Tenant.tagged) ->
          let id = tg.Tenant.req.Request.id in
          let dup = Hashtbl.mem seen id in
          Hashtbl.replace seen id ();
          (not dup)
          && (not (Hashtbl.mem running id))
          && not (Hashtbl.mem statuses id))
        offer
    in
    List.iter
      (fun (tg : Tenant.tagged) ->
        ignore (drop_copy tg.Tenant.req);
        incr hedge_cancels)
      stale;
    let d, tagged_of = Fleet.grant config.batcher c.c_q ~now ~in_flight fresh in
    List.iter
      (fun (req : Request.t) ->
        (* The batcher shed one copy; the request only resolves as
           dropped when no sibling copy remains in flight. *)
        if drop_copy req <= 0 then set_status req Dropped
        else incr hedge_cancels)
      d.Batcher.dropped;
    List.iter
      (fun (req : Request.t) -> Hashtbl.replace running req.Request.id ())
      d.Batcher.admitted;
    Replica.admit s ~item:tagged_of d.Batcher.admitted;
    if s.act = [] then Replica.idle s ~now ~shed:(d.Batcher.dropped <> [])
    else begin
      let engine = c.c_backend.Backend.bk_engine in
      let b =
        Replica.batch k s ~queued:(queued_total ())
          ~bucketing:config.bucketing ~coalesce:config.coalesce
          ~step_shapes:engine.Sch.step_shapes
      in
      (* Program lookup ladder: replica cache, then the class-shared
         store (stall-free once its publishing compile finished), then
         an on-path compile that stalls this step and publishes
         class-wide — never fleet-wide: the other device class has a
         different fingerprint and different micro-kernels. *)
      let stall =
        Replica.lookup s ~now ~compile:engine.Sch.compile_seconds
          ~store:(Some c.c_store) ~on_store_hit:ignore b.shapes
      in
      let step_idx = Replica.next_step s in
      let base_slow =
        Plan.step_slowdown faults ~replica:s.index ~step:step_idx
      in
      if base_slow > 1. then k.injected <- k.injected + 1;
      let cls_slow = Plan.class_slowdown faults ~cls:c.c_idx ~now in
      if cls_slow > 1. then begin
        k.injected <- k.injected + 1;
        c.c_brownout_steps <- c.c_brownout_steps + 1
      end;
      let slowdown = base_slow *. cls_slow in
      let dt =
        (engine.Sch.step_seconds ~tokens:b.btokens ~kv_tokens:b.kv_tokens
        +. stall)
        *. slowdown
      in
      k.stall <- k.stall +. stall;
      c.c_stall <- c.c_stall +. stall;
      c.c_service <- c.c_service +. dt;
      c.c_steps <- c.c_steps + 1;
      let fin = now +. dt in
      let down = Plan.class_down faults ~cls:c.c_idx ~now in
      if down then k.injected <- k.injected + 1;
      let fails =
        down || Plan.step_fails faults ~replica:s.index ~step:step_idx
      in
      if fails && not down then k.injected <- k.injected + 1;
      (* Health sees every step, in both arms — the no-failover arm
         records the same trips, it just never acts on them. *)
      let verdict =
        Health.observe c.c_health ~now:fin ~slowdown ~failed:fails
      in
      if fails then begin
        if config.failover && verdict = `Tripped then
          (* The trip edge: this replica's batch and everything else the
             class holds drains to the surviving class. *)
          drain c
        else bounce c s
      end
      else
        Replica.advance s ~fin ~on_done:(fun _ done_ ->
            let req = done_.Sch.request in
            Hashtbl.remove running req.Request.id;
            ignore (drop_copy req);
            completed := done_ :: !completed;
            c.c_completed <- c.c_completed + 1;
            set_status req Completed);
      Replica.close_step k s ~clock:fin
    end
  in
  Replica.drive
    ~candidates:(fun n ->
      (match !crashes_left with
      | (t, i) :: _ -> Replica.consider n t prio_crash (`Crash i)
      | [] -> ());
      (match !pending with
      | tg :: _ ->
        Replica.consider n tg.Tenant.req.Request.arrival prio_arrival `Arrival
      | [] -> ());
      (match hedge_next () with
      | Some (t, c, tg) -> Replica.consider n t prio_hedge (`Hedge (c, tg))
      | None -> ());
      Array.iter
        (fun c ->
          Array.iter
            (fun s ->
              match slot_next_time c s with
              | Some t -> Replica.consider n t prio_step (`Step (c, s))
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
      | `Step (c, s) -> do_step c s ~now:t);
  let class_stats =
    Array.to_list classes
    |> List.map (fun c ->
           let b = c.c_backend in
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
               |> List.map (fun (s : slot) -> Shape_cache.stats s.cache))
               @ List.rev c.c_retired;
             cs_store = Shape_cache.stats c.c_store;
           })
  in
  let status_pairs =
    List.filter_map
      (fun (tg : Tenant.tagged) ->
        match Hashtbl.find_opt statuses tg.Tenant.req.Request.id with
        | Some st -> Some (tg.Tenant.req, st)
        | None -> None)
      trace
  in
  let digest =
    List.map
      (fun ((req : Request.t), st) ->
        string_of_int req.Request.id ^ "=" ^ status_name st)
      status_pairs
    |> List.sort compare |> String.concat "\n" |> Checksum.fnv1a64_hex
  in
  let conserved =
    List.length status_pairs = List.length trace
    && List.length !completed + List.length !dropped
       + List.length !rate_limited
       = List.length trace
    && !resolved = List.length trace
  in
  {
    o_completed = List.rev !completed;
    o_dropped = List.rev !dropped;
    o_rate_limited = List.rev !rate_limited;
    o_steps = k.steps;
    o_makespan = k.makespan;
    o_stall_seconds = k.stall;
    o_actual_tokens = k.actual_tokens;
    o_padded_tokens = k.padded_tokens;
    o_queue_depth_sum = k.queue_depth_sum;
    o_queue_samples = k.queue_samples;
    o_crashes = k.crashes;
    o_injected_faults = k.injected;
    o_requeues = k.requeues;
    o_reroutes = !reroutes;
    o_hedges = !hedges;
    o_hedge_cancels = !hedge_cancels;
    o_classes = class_stats;
    o_tiers = Fleet.tier_table trace !completed;
    o_statuses = status_pairs;
    o_status_digest = digest;
    o_conserved = conserved;
  }

let to_scheduler_outcome (o : outcome) =
  Fleet.scheduler_outcome ~completed:o.o_completed ~dropped:o.o_dropped
    ~rate_limited:o.o_rate_limited
    ~cache:(List.concat_map (fun cs -> cs.cs_cache) o.o_classes)
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
