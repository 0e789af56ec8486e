open Mikpoly_accel
open Mikpoly_ir
module Tm = Mikpoly_telemetry

(* Always-on metrics mirrors of the per-compiler counters, so a serving
   run's telemetry section shows memo behaviour across all compilers. *)
let m_hits = Tm.Metrics.counter "compiler.cache.hits"

let m_misses = Tm.Metrics.counter "compiler.cache.misses"

let m_invalidations = Tm.Metrics.counter "compiler.cache.invalidations"

(* Degradation-ladder rung taken by each cache-miss compile; always-on so
   a degraded serving run is visible in any telemetry dump. *)
let m_full_search = Tm.Metrics.counter "compiler.ladder.full_search"

let m_single_pattern = Tm.Metrics.counter "compiler.ladder.single_pattern"

let m_safe_generic = Tm.Metrics.counter "compiler.ladder.safe_generic"

type rung = Full_search | Single_pattern | Safe_generic

let rung_name = function
  | Full_search -> "full-search"
  | Single_pattern -> "single-pattern"
  | Safe_generic -> "safe-generic"

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
  safe_set : Kernel_set.t Lazy.t;
      (** last-rung fallback for compiles whose search itself fails *)
  lock : Mutex.t;  (** guards cache, the stats counters and hooks *)
  cache : (int * int * int, Polymerize.compiled) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_invalidations : int;
  mutable l_full_search : int;
  mutable l_single_pattern : int;
  mutable l_safe_generic : int;
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
    safe_set = lazy (Kernel_set.safe_generic hw config);
    lock = Mutex.create ();
    cache = Hashtbl.create 64;
    cache_hits = 0;
    cache_misses = 0;
    cache_invalidations = 0;
    l_full_search = 0;
    l_single_pattern = 0;
    l_safe_generic = 0;
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

let note_rung t rung =
  locked t (fun () ->
      match rung with
      | Full_search -> t.l_full_search <- t.l_full_search + 1
      | Single_pattern -> t.l_single_pattern <- t.l_single_pattern + 1
      | Safe_generic -> t.l_safe_generic <- t.l_safe_generic + 1);
  (match rung with
  | Full_search -> Tm.Metrics.incr m_full_search
  | Single_pattern -> Tm.Metrics.incr m_single_pattern
  | Safe_generic -> Tm.Metrics.incr m_safe_generic);
  Tm.Tracer.annotate "ladder.rung" (rung_name rung)

(* The degradation ladder: every cache-miss compile lands on some rung and
   always produces a program. Full search → on any search failure, a
   Pattern-I-only retry → on failure again, the guaranteed-safe generic
   kernel set scored with the plain model. A safe-mode compiler (kernel
   store unusable at creation) is permanently on the last rung. *)
let search_ladder t op =
  let scorer = default_scorer t in
  if t.safe_mode then begin
    let c = Polymerize.polymerize ~scorer t.kernels t.config op in
    note_rung t Safe_generic;
    c
  end
  else
    match Polymerize.polymerize ~scorer t.kernels t.config op with
    | c ->
      note_rung t Full_search;
      c
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception _ -> (
      match
        Polymerize.polymerize ~scorer t.kernels
          { t.config with patterns = [ Pattern.I ] }
          op
      with
      | c ->
        note_rung t Single_pattern;
        c
      | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
      | exception _ ->
        let c =
          Polymerize.polymerize ~scorer:(Polymerize.Model Cost_model.Full)
            (Lazy.force t.safe_set) t.config op
        in
        note_rung t Safe_generic;
        c)

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
    let c = search_ladder t op in
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
   produced (same scorer, same config, deterministic search), with the
   same Full_search rung accounting. If the batch search
   itself fails, every shape falls back to the sequential per-shape
   ladder ([compile]), which can still degrade rung by rung. Returns the
   number of fresh compiles; shapes already cached cost nothing. *)
let warm ?jobs t shapes =
  let missing =
    List.sort_uniq compare shapes
    |> List.filter (fun key -> not (locked t (fun () -> Hashtbl.mem t.cache key)))
  in
  match missing with
  | [] -> 0
  | _ ->
    let keys = Array.of_list missing in
    let batched =
      if t.safe_mode then None
      else
        match
          Polymerize.search_batch ~scorer:(default_scorer t) ?jobs t.kernels
            t.config (Array.map (gemm t) keys)
        with
        | cs -> Some cs
        | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
        | exception _ -> None
    in
    (match batched with
    | Some cs ->
      Array.iteri
        (fun i (c : Polymerize.compiled) ->
          note_rung t Full_search;
          locked t (fun () ->
              if not (Hashtbl.mem t.cache keys.(i)) then
                Hashtbl.replace t.cache keys.(i) c))
        cs;
      Array.length cs
    | None ->
      List.fold_left
        (fun fresh key ->
          ignore (compile t (gemm t key));
          fresh + 1)
        0 missing)

let cache_stats t =
  locked t (fun () ->
      {
        hits = t.cache_hits;
        misses = t.cache_misses;
        invalidations = t.cache_invalidations;
        size = Hashtbl.length t.cache;
      })

let ladder_stats t =
  locked t (fun () ->
      {
        full_search = t.l_full_search;
        best_effort = 0;
        single_pattern = t.l_single_pattern;
        safe_generic = t.l_safe_generic;
      })

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

let set_observer t f = locked t (fun () -> t.observer <- f)

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
