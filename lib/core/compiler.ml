open Mikpoly_accel
open Mikpoly_ir
module Tm = Mikpoly_telemetry

(* Always-on metrics mirrors of the per-compiler counters, so a serving
   run's telemetry section shows memo behaviour across all compilers. *)
let m_hits = Tm.Metrics.counter "compiler.cache.hits"

let m_misses = Tm.Metrics.counter "compiler.cache.misses"

let m_invalidations = Tm.Metrics.counter "compiler.cache.invalidations"

(* The rung each cache-miss compile lands on, which is the compiler's
   mode; always-on so a degraded serving run is visible in any telemetry
   dump. *)
let m_full_search = Tm.Metrics.counter "compiler.ladder.full_search"

let m_safe_generic = Tm.Metrics.counter "compiler.ladder.safe_generic"

type region_observation = {
  ro_kernel : Kernel_desc.t;
  ro_n_tasks : int;
  ro_t_steps : int;
  ro_predicted : float;
  ro_observed : float;
}

type observation = {
  ob_shape : int * int * int;
  ob_hw_fingerprint : string;
  ob_regions : region_observation list;
  ob_predicted : float;
  ob_observed : float;
}

type t = {
  hw : Hardware.t;
  config : Config.t;
  kernels : Kernel_set.t;
  safe_mode : bool;  (** kernel store was unusable: [kernels] is the
                         guaranteed-safe generic set *)
  lock : Mutex.t;  (** guards cache, the stats counters and hooks *)
  cache : (int * int * int, Polymerize.compiled) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_invalidations : int;
  mutable searches : int;
  mutable correction : (Kernel_set.entry -> float -> float) option;
  mutable observer : (observation -> unit) option;
}

type ladder_stats = {
  full_search : int;
  best_effort : int;
  single_pattern : int;
  safe_generic : int;
}

type cache_stats = {
  hits : int;
  misses : int;
  invalidations : int;
  size : int;
}

let make ?config ~safe_mode ~kernels hw =
  let config = match config with Some c -> c | None -> Config.default hw in
  {
    hw;
    config;
    kernels = kernels config;
    safe_mode;
    lock = Mutex.create ();
    cache = Hashtbl.create 64;
    cache_hits = 0;
    cache_misses = 0;
    cache_invalidations = 0;
    searches = 0;
    correction = None;
    observer = None;
  }

let create ?config hw =
  make ?config ~safe_mode:false
    ~kernels:(fun config -> Kernel_set.create hw config)
    hw

let create_resilient ?config ~store_path hw =
  let cfg = match config with Some c -> c | None -> Config.default hw in
  match Kernel_store.load ~path:store_path hw cfg with
  | Ok set -> (make ~config:cfg ~safe_mode:false ~kernels:(fun _ -> set) hw, None)
  | Error reason ->
    ( make ~config:cfg ~safe_mode:true
        ~kernels:(fun config -> Kernel_set.safe_generic hw config)
        hw,
      Some reason )

let safe_mode t = t.safe_mode

let hardware t = t.hw

let fingerprint t = Mikpoly_accel.Hardware.fingerprint t.hw

let config t = t.config

let kernels t = t.kernels

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Cache-miss compiles rank candidates with the calibrated model whenever
   a correction is installed; otherwise the plain Equation-2 model. *)
let default_scorer t =
  match locked t (fun () -> t.correction) with
  | Some f -> Polymerize.Calibrated f
  | None -> Polymerize.Model Cost_model.Full

(* A cache miss is one search of the compiler's one kernel set: the
   tuned set, or the safe generic set in safe mode. Pattern I over any
   kernel tiles the whole output, so the search has no failing shape, and
   the rung it lands on is the compiler's mode. [n] searches under one
   span annotate its rung once. *)
let note_searches t n =
  locked t (fun () -> t.searches <- t.searches + n);
  Tm.Metrics.add (if t.safe_mode then m_safe_generic else m_full_search) n;
  Tm.Tracer.annotate "ladder.rung"
    (if t.safe_mode then "safe-generic" else "full-search")

let search t op =
  let c =
    Polymerize.polymerize ~scorer:(default_scorer t) t.kernels t.config op
  in
  note_searches t 1;
  c

let compile_lookup t op =
  let key = Operator.gemm_shape op in
  let hit =
    locked t (fun () ->
        match Hashtbl.find_opt t.cache key with
        | Some _ as hit ->
          t.cache_hits <- t.cache_hits + 1;
          hit
        | None ->
          t.cache_misses <- t.cache_misses + 1;
          None)
  in
  match hit with
  | Some c ->
    Tm.Metrics.incr m_hits;
    Tm.Tracer.annotate "cache" "hit";
    c
  | None ->
    Tm.Metrics.incr m_misses;
    Tm.Tracer.annotate "cache" "miss";
    (* Search outside the lock so concurrent compiles of distinct shapes
       overlap; on insert, re-check whether a racing domain won — the
       search is deterministic, so adopting either result is sound. *)
    let c = search t op in
    locked t (fun () ->
        match Hashtbl.find_opt t.cache key with
        | Some incumbent -> incumbent
        | None ->
          Hashtbl.replace t.cache key c;
          c)

let compile t op =
  if not (Tm.Tracer.enabled ()) then compile_lookup t op
  else begin
    let m, n, k = Operator.gemm_shape op in
    Tm.Tracer.with_span "compiler.compile"
      ~attrs:[ ("shape", Printf.sprintf "%dx%dx%d" m n k) ]
      (fun () -> compile_lookup t op)
  end

let gemm t (m, n, k) = Operator.gemm ~dtype:t.config.dtype ~m ~n ~k ()

let compile_seconds t shape =
  Polymerize.modeled_search_seconds (compile t (gemm t shape))

let cached t op =
  locked t (fun () -> Hashtbl.mem t.cache (Operator.gemm_shape op))

(* Bulk precompilation for warm stores. The distinct not-yet-cached
   shapes go through one [Polymerize.search_batch] — whole shapes over
   the domain pool, so a region amortizes over the whole suite — and each
   result is exactly what a cache-miss compile of that shape would have
   produced (same set, scorer and config, deterministic search), counted
   as one search. Each batch is one span carrying its rung and search
   count, so a caller that warms twice under one span repeats no
   attribute. Returns the number of fresh compiles; shapes already
   cached cost nothing. *)
let warm ?jobs t shapes =
  match
    List.sort_uniq compare shapes
    |> List.filter (fun key -> not (locked t (fun () -> Hashtbl.mem t.cache key)))
  with
  | [] -> 0
  | missing ->
    Tm.Tracer.with_span "compiler.warm" (fun () ->
        let keys = Array.of_list missing in
        let cs =
          Polymerize.search_batch ~scorer:(default_scorer t) ?jobs t.kernels
            t.config (Array.map (gemm t) keys)
        in
        Array.iteri
          (fun i c ->
            locked t (fun () ->
                if not (Hashtbl.mem t.cache keys.(i)) then
                  Hashtbl.replace t.cache keys.(i) c))
          cs;
        let n = Array.length cs in
        note_searches t n;
        Tm.Tracer.annotate "searches" (string_of_int n);
        n)

let cache_stats t =
  locked t (fun () ->
      {
        hits = t.cache_hits;
        misses = t.cache_misses;
        invalidations = t.cache_invalidations;
        size = Hashtbl.length t.cache;
      })

let ladder_stats t =
  let searches = locked t (fun () -> t.searches) in
  {
    full_search = (if t.safe_mode then 0 else searches);
    best_effort = 0;
    single_pattern = 0;
    safe_generic = (if t.safe_mode then searches else 0);
  }

let invalidate t key =
  locked t (fun () ->
      if Hashtbl.mem t.cache key then begin
        Hashtbl.remove t.cache key;
        t.cache_invalidations <- t.cache_invalidations + 1;
        Tm.Metrics.incr m_invalidations;
        true
      end
      else false)

let invalidate_if t pred =
  locked t (fun () ->
      (* Collect first: dropping entries while folding over the table is
         unspecified. Sort so the invalidation count and telemetry order
         are deterministic regardless of hash-table iteration order. *)
      let victims =
        Hashtbl.fold
          (fun key c acc -> if pred key c then key :: acc else acc)
          t.cache []
        |> List.sort compare
      in
      List.iter (Hashtbl.remove t.cache) victims;
      let n = List.length victims in
      t.cache_invalidations <- t.cache_invalidations + n;
      for _ = 1 to n do
        Tm.Metrics.incr m_invalidations
      done;
      n)

let set_correction t f = locked t (fun () -> t.correction <- f)

let correction t = locked t (fun () -> t.correction)

let set_observer t f = locked t (fun () -> t.observer <- Some f)

let compile_fresh ?scorer ?instrument t op =
  let scorer = match scorer with Some s -> s | None -> default_scorer t in
  Polymerize.polymerize ~scorer ?instrument t.kernels t.config op

(* The per-region prediction paired with an execution observation: the
   model's belief for this (kernel, n_tasks, t_steps) region — always
   evaluated on the compiler's own hardware model, even when the program
   executed on a drifted device. *)
let predict_region t (o : Simulator.region_obs) =
  match
    Kernel_set.find t.kernels ~um:o.obs_kernel.um ~un:o.obs_kernel.un
      ~uk:o.obs_kernel.uk
  with
  | None -> None
  | Some e ->
    let wave =
      float_of_int (Load.waves ~capacity:e.wave_capacity o.obs_n_tasks)
    in
    let pipe = Cost_model.f_pipe e ~k_len:(o.obs_t_steps * e.desc.uk) in
    Some
      {
        ro_kernel = o.obs_kernel;
        ro_n_tasks = o.obs_n_tasks;
        ro_t_steps = o.obs_t_steps;
        ro_predicted = wave *. pipe;
        ro_observed = o.obs_cycles;
      }

let simulate_observed ?hw t (c : Polymerize.compiled) =
  let device = match hw with Some h -> h | None -> t.hw in
  let load = Program.to_load c.program in
  let raw = ref [] in
  let result = Simulator.run ~observe:(fun os -> raw := os) device load in
  let regions = List.filter_map (predict_region t) !raw in
  let obs =
    {
      ob_shape = Operator.gemm_shape c.program.op;
      ob_hw_fingerprint = Hardware.fingerprint device;
      ob_regions = regions;
      ob_predicted =
        List.fold_left (fun acc r -> acc +. r.ro_predicted) 0. regions;
      ob_observed =
        List.fold_left (fun acc r -> acc +. r.ro_observed) 0. regions;
    }
  in
  (match locked t (fun () -> t.observer) with
  | Some f -> f obs
  | None -> ());
  (result, obs)

let simulate t (c : Polymerize.compiled) =
  match locked t (fun () -> t.observer) with
  | None -> Simulator.run t.hw (Program.to_load c.program)
  | Some _ -> fst (simulate_observed t c)

let operator_seconds t op = (simulate t (compile t op)).seconds
