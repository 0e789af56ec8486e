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

type warm_config = {
  warm_top_k : int;
  warm_interval : float;
  warm_half_life : float;
  warm_capacity : int;
}

let default_warm =
  {
    warm_top_k = 8;
    warm_interval = 0.25;
    warm_half_life = 1.0;
    warm_capacity = 4096;
  }

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

let validate config =
  if config.replicas < 1 then invalid_arg "Fleet: replicas must be >= 1";
  (match config.ratelimit with
  | Some rl -> Ratelimit.validate rl
  | None -> ());
  if config.cache_capacity < 0 then
    invalid_arg "Fleet: negative cache capacity";
  if config.steal_age < 0. then invalid_arg "Fleet: steal_age must be >= 0";
  (match config.warm with
  | Some w ->
    if w.warm_top_k < 0 then invalid_arg "Fleet: warm_top_k must be >= 0";
    if w.warm_interval <= 0. then
      invalid_arg "Fleet: warm_interval must be > 0";
    if w.warm_half_life <= 0. then
      invalid_arg "Fleet: warm_half_life must be > 0";
    if w.warm_capacity < 0 then
      invalid_arg "Fleet: warm_capacity must be >= 0"
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

let slo_met (c : Sch.completed) =
  let r = c.Sch.request in
  c.Sch.first_token -. r.Request.arrival <= r.Request.slo.Request.ttft
  && c.Sch.finish -. r.Request.arrival <= r.Request.slo.Request.e2e

let tier_table trace completed =
  let tenant_of = Tenant.lookup trace in
  List.map
    (fun tier ->
      let reqs =
        List.length
          (List.filter
             (fun (tg : Tenant.tagged) -> tg.Tenant.tenant.Tenant.tier = tier)
             trace)
      in
      let comps =
        List.filter
          (fun (c : Sch.completed) ->
            (tenant_of c.Sch.request.Request.id).Tenant.tier = tier)
          completed
      in
      let met = List.length (List.filter slo_met comps) in
      {
        tm_tier = tier;
        tm_requests = reqs;
        tm_completed = List.length comps;
        tm_slo_met = met;
        tm_attainment =
          (if reqs = 0 then 1. else float_of_int met /. float_of_int reqs);
      })
    Tenant.tiers

let scheduler_outcome ~completed ~dropped ~rate_limited ~cache counters =
  Sch.project counters ~completed ~dropped
    ~rejected:(List.map (fun r -> (r, "rate-limited")) rate_limited)
    ~timed_out:[] ~failed:[] ~adapt_stall_seconds:0. ~cache

let to_scheduler_outcome (o : outcome) =
  scheduler_outcome ~completed:o.completed ~dropped:o.dropped
    ~rate_limited:o.rate_limited ~cache:o.cache
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

let by_arrival trace =
  List.stable_sort
    (fun (a : Tenant.tagged) (b : Tenant.tagged) ->
      Request.compare_arrival a.Tenant.req b.Tenant.req)
    trace

let limiter =
  Option.map (fun base ->
      Ratelimit.create
        ~rate_for:(fun t -> Ratelimit.for_tier ~base t.Tenant.tier)
        ())

let aged_time batcher q ~in_flight tg =
  let arrival = tg.Tenant.req.Request.arrival in
  match batcher with
  | Batcher.Greedy _ | Batcher.Slo_aware _ -> arrival
  | Batcher.Timeout { window; max_batch } ->
    if Wfq.length q + in_flight >= max_batch then arrival
    else arrival +. window

let earliest q time =
  if Wfq.is_empty q then None
  else
    Some
      (List.fold_left
         (fun acc tg -> Float.min acc (time tg))
         infinity (Wfq.to_list q))

let grant batcher q ~now ~in_flight offer =
  let table = Hashtbl.create 8 in
  List.iter (fun tg -> Hashtbl.replace table tg.Tenant.req.Request.id tg) offer;
  let tagged_of (req : Request.t) = Hashtbl.find table req.Request.id in
  let d =
    Batcher.admit batcher ~now ~in_flight
      ~waiting:(List.map (fun tg -> tg.Tenant.req) offer)
  in
  List.iter
    (fun req -> Wfq.push_front q (tagged_of req))
    (List.rev d.Batcher.deferred);
  (d, tagged_of)

type slot = Tenant.tagged Replica.slot

(* Event kinds in tie priority order: a crash preempts the arrival it
   races, arrivals land before the background planes run, and the
   replica step goes last so it sees the freshest queue — all fixed, so
   the interleaving is deterministic. *)
let prio_crash = 0

let prio_arrival = 1

let prio_refresh = 2

let prio_scale = 3

let prio_step = 4

let run ?(faults = Plan.none) config engine trace =
  validate config;
  let max_slots =
    match config.autoscale with
    | Some a -> max config.replicas a.Autoscaler.max_replicas
    | None -> config.replicas
  in
  let init_active =
    match config.autoscale with
    | Some a ->
      max a.Autoscaler.min_replicas
        (min config.replicas a.Autoscaler.max_replicas)
    | None -> config.replicas
  in
  let slots : slot array =
    Array.init max_slots (fun index ->
        Replica.slot ~index ~capacity:config.cache_capacity)
  in
  (* Autoscaler state per slot: in service or not, and since when. *)
  let live = Array.init max_slots (fun i -> i < init_active) in
  let spawned = Array.make max_slots 0. in
  Tm.Metrics.gauge_add g_replicas (float_of_int init_active);
  let q = Wfq.create () in
  let learner =
    match config.warm with
    | Some w -> Some (Learner.create ~half_life:w.warm_half_life ())
    | None -> None
  in
  (* Warm-store admission is mass-aware, not LRU: a warm entry's weight
     is its bucket's decayed learner mass at the moment an admission
     decision is made, so a scan of cold buckets churns among the cold
     entries and can never evict a heavy-tail tenant's hot bucket.
     [warm_sig] remembers which bucket produced each warm shape (filled
     wherever [step_shapes] expands a bucket) and [warm_now] tracks the
     event clock the decay is evaluated at. *)
  let warm_sig : (Shape_cache.key, int) Hashtbl.t = Hashtbl.create 64 in
  let warm_now = ref 0. in
  let warm_store =
    match (config.warm, learner) with
    | Some w, Some l ->
      let weight shape =
        match Hashtbl.find_opt warm_sig shape with
        | Some s -> Learner.mass l ~now:!warm_now ~signature:s
        | None -> 0.
      in
      Some (Shape_cache.create_weighted ~weight ~capacity:w.warm_capacity)
    | _ -> None
  in
  let warm_shapes ~tokens =
    let shapes = engine.Sch.step_shapes ~tokens in
    List.iter
      (fun ((shape : Shape_cache.key), _) ->
        Hashtbl.replace warm_sig shape tokens)
      shapes;
    shapes
  in
  (* Coalescing affinity: which slot last led a group for a signature.
     A signature stays sticky to its owner until the owner retires or a
     head request ages past [steal_age] — then the stealing slot claims
     it. *)
  let owner : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let pending = ref (by_arrival trace) in
  let c = Replica.counters () in
  let completed = ref [] in
  let dropped = ref [] in
  let rate_limited = ref [] in
  let limiter = limiter config.ratelimit in
  let warm_hits = ref 0 in
  let warm_compiles = ref 0 in
  let warm_bg_clock = ref 0. in
  let warm_bg_seconds = ref 0. in
  let coalesced_groups = ref 0 in
  let scale_ups = ref 0 in
  let scale_downs = ref 0 in
  let retired_caches = ref [] in
  let replica_acc = ref 0. in
  let peak = ref init_active in
  let met_count = ref 0 in
  let resolved = ref 0 in
  let crashes_left = ref faults.Plan.crashes in
  let next_refresh =
    ref (match config.warm with Some w -> w.warm_interval | None -> infinity)
  in
  let next_tick =
    ref
      (match config.autoscale with
      | Some a -> a.Autoscaler.interval
      | None -> infinity)
  in
  let last_change = ref 0. in
  let signature tg =
    Bucketing.bucket config.bucketing tg.Tenant.req.Request.prompt_len
  in
  let owner_of s =
    match Hashtbl.find_opt owner s with
    | Some i when live.(i) -> Some i
    | _ -> None
  in
  let aged_time in_flight tg = aged_time config.batcher q ~in_flight tg in
  (* Earliest instant slot [r] may take this request as a group leader.
     Affinity never un-work-conserves the fleet: a busy or down owner is
     stolen from immediately (its cache locality is moot — it cannot
     serve now, and the warm store shares programs anyway); only an
     idle, live owner — which is about to take the request itself — is
     deferred to, and at most until the request ages past [steal_age].
     Owner state is read at evaluation time; the event loop recomputes
     slot wake-ups every iteration, so the answer is always current. *)
  let affinity_time (r : slot) in_flight tg =
    let aged = aged_time in_flight tg in
    if not config.coalesce then aged
    else
      match owner_of (signature tg) with
      | None -> aged
      | Some i when i = r.index -> aged
      | Some i ->
        let o = slots.(i) in
        if o.act <> [] || o.down_until > aged then aged
        else Float.max aged (tg.Tenant.req.Request.arrival +. config.steal_age)
  in
  let slot_next_time (r : slot) =
    if not live.(r.index) then None
    else Replica.ready_at r (fun () -> earliest q (affinity_time r 0))
  in
  let active_slots () =
    Array.to_list slots |> List.filter (fun (r : slot) -> live.(r.index))
  in
  let work_remains () =
    !pending <> []
    || (not (Wfq.is_empty q))
    || Array.exists (fun (r : slot) -> live.(r.index) && r.act <> []) slots
  in
  let resolve_drop (req : Request.t) =
    dropped := req :: !dropped;
    incr resolved;
    Tm.Metrics.incr m_dropped
  in
  let do_crash target ~now =
    match active_slots () with
    | [] -> ()
    | actives ->
      let r = List.nth actives (target mod List.length actives) in
      Tm.Metrics.incr m_crashes;
      (* In-flight work bounces back to the front of its tenants' lanes
         uncharged — progress (tokens, KV) is lost with the process, but
         the requests are not. *)
      retired_caches :=
        Replica.crash c r ~now ~restart_delay:faults.Plan.restart_delay
          ~requeue:(Wfq.push_front q)
        :: !retired_caches
  in
  let do_refresh w ~now =
    match (learner, warm_store) with
    | Some l, Some ws ->
      warm_now := now;
      let top = Learner.top_k l ~now ~k:w.warm_top_k in
      (* Batch prewarm (wall clock only): every shape this refresh will
         compile goes through one coarse batched search, so the modeled
         [compile_seconds] lookups below are memo hits. The simulated
         event-clock math is unchanged — the background worker still
         charges each shape's modeled cost serially on its own clock. *)
      let missing =
        List.concat_map
          (fun (signature, _) ->
            List.filter_map
              (fun (shape, _) ->
                if Shape_cache.mem ws shape then None else Some shape)
              (warm_shapes ~tokens:signature))
          top
      in
      if missing <> [] then
        ignore (engine.Sch.precompile_batch ~jobs:0 missing);
      List.iter
        (fun (signature, _) ->
          List.iter
            (fun (shape, _) ->
              if not (Shape_cache.mem ws shape) then begin
                (* One background worker compiles serially, off every
                   replica's critical path; the program only becomes
                   warm once its compile finishes on that clock. *)
                let cost = engine.Sch.compile_seconds shape in
                warm_bg_clock := Float.max !warm_bg_clock now +. cost;
                warm_bg_seconds := !warm_bg_seconds +. cost;
                Shape_cache.add ws shape !warm_bg_clock;
                incr warm_compiles;
                Tm.Metrics.incr m_warm_compiles
              end)
            (warm_shapes ~tokens:signature))
        top
    | _ -> ()
  in
  let spawn ~now =
    let rec find i =
      if i >= max_slots then None
      else if not live.(i) then Some slots.(i)
      else find (i + 1)
    in
    match find 0 with
    | None -> false
    | Some r ->
      live.(r.index) <- true;
      spawned.(r.index) <- now;
      r.clock <- now;
      r.down_until <- 0.;
      incr scale_ups;
      Tm.Metrics.incr m_scale_ups;
      Tm.Metrics.gauge_add g_replicas 1.;
      peak := max !peak (List.length (active_slots ()));
      true
  in
  let retire ~now =
    (* Retire the youngest idle, healthy replica; if every replica is
       busy or down, hold — never kill in-flight work for efficiency. *)
    let candidates =
      List.filter
        (fun (r : slot) -> r.act = [] && r.down_until <= now)
        (active_slots ())
    in
    match List.rev candidates with
    | [] -> false
    | r :: _ ->
      live.(r.index) <- false;
      replica_acc := !replica_acc +. (now -. spawned.(r.index));
      retired_caches := Replica.retire r :: !retired_caches;
      incr scale_downs;
      Tm.Metrics.incr m_scale_downs;
      Tm.Metrics.gauge_add g_replicas (-1.);
      true
  in
  let do_tick a ~now =
    let live, down =
      List.partition (fun (r : slot) -> r.down_until <= now) (active_slots ())
    in
    let n_live = max 1 (List.length live) in
    let signal =
      {
        Autoscaler.queue_depth =
          float_of_int (Wfq.length q) /. float_of_int n_live;
        slo_attainment =
          (if !resolved = 0 then 1.
           else float_of_int !met_count /. float_of_int !resolved);
        stall_ratio =
          (if now <= 0. then 0. else c.stall /. (now *. float_of_int n_live));
        live_replicas = List.length live;
        down_replicas = List.length down;
      }
    in
    match Autoscaler.decide a ~last_change:!last_change ~now signal with
    | Autoscaler.Hold -> ()
    | Autoscaler.Scale_up -> if spawn ~now then last_change := now
    | Autoscaler.Scale_down -> if retire ~now then last_change := now
  in
  let do_step (r : slot) ~now =
    (* Admission: pull an offer from the fleet queue in WFQ order (the
       first grant is affinity-restricted when coalescing), then let the
       Batcher policy rule on it. By construction the offer is already
       policy-eligible, so the batcher admits or sheds — a deferral
       would only mean the fleet-level aging predicate and the batcher
       disagreed, and then the request simply returns to its lane. *)
    let in_flight = List.length r.act in
    let cap = Batcher.max_batch config.batcher - in_flight in
    let offer =
      if cap <= 0 || Wfq.is_empty q then []
      else
        Wfq.take q ~max:cap
          ~eligible:(fun tg -> aged_time in_flight tg <= now)
          ~first:(fun tg -> affinity_time r in_flight tg <= now)
          ~group:(fun leader tg ->
            (not config.coalesce) || signature leader = signature tg)
          ()
    in
    let d, tagged_of = grant config.batcher q ~now ~in_flight offer in
    List.iter resolve_drop d.Batcher.dropped;
    (match offer with
    | leader :: _ when config.coalesce ->
      let s = signature leader in
      Hashtbl.replace owner s r.index;
      if
        List.length offer > 1
        && List.for_all (fun tg -> signature tg = s) offer
      then incr coalesced_groups
    | _ -> ());
    Replica.admit r ~item:tagged_of d.Batcher.admitted;
    if r.act = [] then Replica.idle r ~now ~shed:(d.Batcher.dropped <> [])
    else begin
      let b =
        Replica.batch c r ~queued:(Wfq.length q) ~bucketing:config.bucketing
          ~coalesce:config.coalesce ~step_shapes:warm_shapes
      in
      (* Program lookup ladder: replica cache, then the fleet-shared
         warm store (stall-free if its background compile finished by
         [now]), then an on-path compile that stalls this step — and
         publishes the program fleet-wide, so no other replica ever
         compiles this shape again. Publishes are admitted at the
         learner masses of [now]. *)
      warm_now := now;
      let stall =
        Replica.lookup r ~now ~compile:engine.Sch.compile_seconds
          ~store:warm_store
          ~on_store_hit:(fun () ->
            incr warm_hits;
            Tm.Metrics.incr m_warm_hits)
          b.shapes
      in
      let step_idx = Replica.next_step r in
      let slowdown = Plan.step_slowdown faults ~replica:r.index ~step:step_idx in
      if slowdown > 1. then c.injected <- c.injected + 1;
      let dt =
        (engine.Sch.step_seconds ~tokens:b.btokens ~kv_tokens:b.kv_tokens
        +. stall)
        *. slowdown
      in
      c.stall <- c.stall +. stall;
      Tm.Metrics.incr m_steps;
      let fin = now +. dt in
      if Plan.step_fails faults ~replica:r.index ~step:step_idx then begin
        (* Transient step fault: device time elapses, the step's work is
           lost, and the batch bounces back to its lanes for a fresh
           attempt (progress restarts, like a crash). *)
        c.injected <- c.injected + 1;
        c.requeues <- c.requeues + Replica.evict r ~requeue:(Wfq.push_front q)
      end
      else
        Replica.advance r ~fin ~on_done:(fun _ done_ ->
            completed := done_ :: !completed;
            incr resolved;
            if slo_met done_ then incr met_count;
            Tm.Metrics.incr m_completed);
      Replica.close_step c r ~clock:fin
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
      if work_remains () then begin
        (match config.warm with
        | Some w -> Replica.consider n !next_refresh prio_refresh (`Refresh w)
        | None -> ());
        match config.autoscale with
        | Some a -> Replica.consider n !next_tick prio_scale (`Tick a)
        | None -> ()
      end;
      Array.iter
        (fun r ->
          match slot_next_time r with
          | Some t -> Replica.consider n t prio_step (`Step r)
          | None -> ())
        slots)
    ~fire:(fun t -> function
      | `Crash i ->
        crashes_left := List.tl !crashes_left;
        do_crash i ~now:t
      | `Arrival ->
        let tg = List.hd !pending in
        pending := List.tl !pending;
        let admitted =
          match limiter with
          | Some l -> Ratelimit.admit l ~now:t tg
          | None -> true
        in
        if not admitted then begin
          (* Shed at the door, before the WFQ and before the learner —
             rate-limited traffic must not train the warm store. *)
          rate_limited := tg.Tenant.req :: !rate_limited;
          incr resolved
        end
        else begin
          (match learner with
          | Some l ->
            Learner.observe l ~now:t
              ~tenant:tg.Tenant.tenant.Tenant.tenant_id
              ~signature:(signature tg)
              ~weight:
                (float_of_int (Tenant.weight tg.Tenant.tenant.Tenant.tier))
          | None -> ());
          Wfq.push q tg
        end
      | `Refresh w ->
        do_refresh w ~now:t;
        next_refresh := !next_refresh +. w.warm_interval
      | `Tick a ->
        do_tick a ~now:t;
        next_tick := !next_tick +. a.Autoscaler.interval
      | `Step r -> do_step r ~now:t);
  let actives = active_slots () in
  let replica_seconds =
    !replica_acc
    +. List.fold_left
         (fun acc (r : slot) ->
           acc +. Float.max 0. (c.makespan -. spawned.(r.index)))
         0. actives
  in
  Tm.Metrics.gauge_add g_replicas (-.float_of_int (List.length actives));
  {
    completed = List.rev !completed;
    dropped = List.rev !dropped;
    rate_limited = List.rev !rate_limited;
    steps = c.steps;
    makespan = c.makespan;
    compile_stall_seconds = c.stall;
    actual_tokens = c.actual_tokens;
    padded_tokens = c.padded_tokens;
    cache =
      List.map (fun (r : slot) -> Shape_cache.stats r.cache) actives
      @ List.rev !retired_caches;
    warm_stats = Option.map Shape_cache.stats warm_store;
    warm_hits = !warm_hits;
    warm_compiles = !warm_compiles;
    warm_background_seconds = !warm_bg_seconds;
    coalesced_groups = !coalesced_groups;
    queue_depth_sum = c.queue_depth_sum;
    queue_samples = c.queue_samples;
    crashes = c.crashes;
    injected_faults = c.injected;
    requeues = c.requeues;
    scale_ups = !scale_ups;
    scale_downs = !scale_downs;
    peak_replicas = !peak;
    replica_seconds;
    lanes = Wfq.stats q;
    tiers = tier_table trace !completed;
  }
