(* The five benchmark workloads. Each builds its inputs from the seed,
   then runs repetitions on fresh compilers and engines, calling every
   layer only through its public functions. Only the calls a user waits
   for are timed: [Compiler.compile] on compile-cold, the event-loop
   call plus its report on the serving workloads. *)

open Mikpoly_core
open Mikpoly_serve
module Hardware = Mikpoly_accel.Hardware
module Prng = Mikpoly_util.Prng
module Stats = Mikpoly_util.Stats
module Checksum = Mikpoly_util.Checksum
module Operator = Mikpoly_ir.Operator
module Program = Mikpoly_ir.Program
module F = Mikpoly_fleet.Fleet
module Tenant = Mikpoly_fleet.Tenant
module H = Mikpoly_hetero.Hetero
module Backend = Mikpoly_hetero.Backend
module Engines = Mikpoly_hetero.Engines
module Plan = Mikpoly_fault.Plan
module Mix = Mikpoly_workloads.Serving_mix
module EF = Mikpoly_experiments.Exp_fleet
module EH = Mikpoly_experiments.Exp_hetero

type rep = {
  throughput : float;  (** operations per host second of the timed calls *)
  sim_p50_ms : float;
  sim_p99_ms : float;
  sim_goodput : float;  (** operations meeting their limit per simulated second *)
  digest : string;  (** of every output, compared across repetitions *)
  checked : int;
  failed : int;
  counts : (string * float) list;  (** per-layer counts and GC words *)
}

type t = {
  platforms : Hardware.t list;
  engines : Compiler.t list -> unit;
      (** builds (and drops) the engines: the part of set-up after tuning *)
  rep : unit -> rep;  (** traced exactly when [Spans.on] is set *)
  finish : unit -> int * int * (string * float) list;
      (** run-level checks [(checked, failed)] and per-layer metrics *)
}

let percentile p xs = if xs = [] then 0. else Stats.percentile p xs

let ratio a b = if b = 0. then 0. else a /. b

let engine e = if !Spans.on then Spans.engine e else e

(* Search and memo counts of a repetition's compilers. Every program the
   memo holds came from one online search, so visiting the memo (with an
   [invalidate_if] predicate that never holds) yields every search's
   tallies and its measured wall. *)
let compiler_counts compilers =
  let searches = ref [] in
  let hits = ref 0 and misses = ref 0 in
  let best_effort = ref 0 and single = ref 0 and safe = ref 0 in
  List.iter
    (fun c ->
      let s = Compiler.cache_stats c and l = Compiler.ladder_stats c in
      hits := !hits + s.Compiler.hits;
      misses := !misses + s.Compiler.misses;
      best_effort := !best_effort + l.Compiler.best_effort;
      single := !single + l.Compiler.single_pattern;
      safe := !safe + l.Compiler.safe_generic;
      ignore
        (Compiler.invalidate_if c (fun _ p ->
             searches := p :: !searches;
             false)))
    compilers;
  let ps = !searches in
  let sum f = float_of_int (List.fold_left (fun a p -> a + f p) 0 ps) in
  let candidates = sum (fun p -> p.Polymerize.candidates) in
  let over_modeled =
    List.map
      (fun p -> p.Polymerize.search_seconds /. Polymerize.modeled_search_seconds p)
      ps
  in
  [
    ("polymerize.calls", float_of_int (List.length ps));
    ( "polymerize.busy_s",
      List.fold_left (fun a p -> a +. p.Polymerize.search_seconds) 0. ps );
    ("polymerize.candidates", candidates);
    ("polymerize.pruned_analytic", sum (fun p -> p.Polymerize.pruned_analytic));
    ("polymerize.pruned_bound", sum (fun p -> p.Polymerize.pruned));
    ( "polymerize.first_hit_ratio",
      ratio (sum (fun p -> p.Polymerize.first_hit)) candidates );
    ("polymerize.measured_over_modeled.p50", percentile 50. over_modeled);
    ("polymerize.measured_over_modeled.p99", percentile 99. over_modeled);
    ("compiler.hits", float_of_int !hits);
    ("compiler.misses", float_of_int !misses);
    ("compiler.ladder.best_effort", float_of_int !best_effort);
    ("compiler.ladder.single_pattern", float_of_int !single);
    ("compiler.ladder.safe_generic", float_of_int !safe);
  ]

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

let gc_counts (minor0, major0) (minor1, major1) =
  [ ("loop.gc_minor_words", minor1 -. minor0); ("loop.gc_major_words", major1 -. major0) ]

(* --- compile-cold ------------------------------------------------------ *)

(* The paper's online stage alone on one device: every [Compiler.compile]
   misses the memo, and no serving loop runs. One workload per device, so
   each device's search cost is measured on its own. *)
let compile_cold hw ~smoke ~seed =
  let n = if smoke then 200 else 10_000 in
  let rng = Prng.create seed in
  let shapes =
    Array.init n (fun _ ->
        let m = Prng.log_int_in rng 1 16384 in
        let n = Prng.log_int_in rng 16 16384 in
        let k = Prng.log_int_in rng 16 16384 in
        (m, n, k))
  in
  (* Per shape: the fastest compile wall over the repetitions, and the
     first repetition's program hash and modeled search time. *)
  let best = Array.make n infinity in
  let first_hash = Array.make n 0L in
  let modeled = Array.make n 0. in
  let reps = ref 0 in
  let operators c =
    let dtype = (Compiler.config c).Config.dtype in
    Array.map (fun (m, n, k) -> Operator.gemm ~dtype ~m ~n ~k ()) shapes
  in
  let hash p = Checksum.fnv1a64 (Program.to_string p.Polymerize.program) in
  let rep () =
    let c = Compiler.create hw in
    let ops = operators c in
    let wall = ref 0. in
    let g0 = gc_words () in
    let compiled, sims =
      Spans.scope "loop" (fun () ->
          let compiled =
            Array.mapi
              (fun i op ->
                let t0 = Spans.now () in
                let p = Spans.leaf "engine.compile" (fun () -> Compiler.compile c op) in
                let dt = Spans.now () -. t0 in
                wall := !wall +. dt;
                if dt < best.(i) then best.(i) <- dt;
                p)
              ops
          in
          let sims =
            Array.map
              (fun p ->
                Spans.leaf "engine.step" (fun () ->
                    (Compiler.simulate c p).Mikpoly_accel.Simulator.seconds))
              compiled
          in
          (compiled, sims))
    in
    let g1 = gc_words () in
    let hashes = Spans.scope "report" (fun () -> Array.map hash compiled) in
    let failed = ref 0 and checked = ref 0 in
    Array.iteri
      (fun i h ->
        if !reps = 0 then begin
          first_hash.(i) <- h;
          modeled.(i) <- Polymerize.modeled_search_seconds compiled.(i)
        end
        else begin
          incr checked;
          if h <> first_hash.(i) then incr failed
        end)
      hashes;
    incr reps;
    let sims = Array.to_list sims in
    let buf = Buffer.create (16 * n) in
    Array.iter (fun h -> Buffer.add_string buf (Int64.to_string h)) hashes;
    {
      throughput = float_of_int n /. !wall;
      sim_p50_ms = 1e3 *. percentile 50. sims;
      sim_p99_ms = 1e3 *. percentile 99. sims;
      sim_goodput = float_of_int n /. Stats.sum sims;
      digest = Checksum.fnv1a64_hex (Buffer.contents buf);
      checked = !checked;
      failed = !failed;
      counts =
        (("loop.steps", float_of_int n) :: gc_counts g0 g1) @ compiler_counts [ c ];
    }
  in
  let finish () =
    let checked = ref 0 and failed = ref 0 in
    let count = if smoke then 5 else 25 in
    (match Selfcheck.check_random_shapes ~seed ~count (Compiler.create hw) with
    | Ok k -> checked := !checked + k
    | Error f ->
      let m, n, k = f.Selfcheck.shape in
      Printf.printf "selfcheck FAILED on %s: %dx%dx%d diff %g\n" hw.Hardware.name m n k
        f.Selfcheck.max_abs_diff;
      checked := !checked + count;
      incr failed);
    (* [warm] at jobs 1 and at nproc must produce the programs the cold
       compiles produced. *)
    let subset = Array.to_list (Array.sub shapes 0 (min n 2000)) in
    let nproc = Domain.recommended_domain_count () in
    let warmed jobs =
      let c = Compiler.create hw in
      let t0 = Spans.now () in
      ignore (Compiler.warm ~jobs c subset);
      (c, Spans.now () -. t0)
    in
    let c1, w1 = warmed 1 and cn, wn = warmed nproc in
    let ops1 = operators c1 and opsn = operators cn in
    List.iteri
      (fun i _ ->
        incr checked;
        let h1 = hash (Compiler.compile c1 ops1.(i)) in
        if h1 <> hash (Compiler.compile cn opsn.(i)) || h1 <> first_hash.(i) then
          incr failed)
      subset;
    let us a p = 1e6 *. percentile p (Array.to_list a) in
    Printf.printf
      "measured vs modeled online search on %s (%d shapes, fastest of %d passes)\n"
      hw.Hardware.name n !reps;
    Printf.printf "%12s %12s %14s %14s %9s %13s %13s\n" "p50 wall us" "p99 wall us"
      "p50 modeled us" "p99 modeled us" "p50 ratio" "warm j1 s"
      (Printf.sprintf "warm j%d s" nproc);
    Printf.printf "%12.1f %12.1f %14.2f %14.2f %9.1f %13.4f %13.4f\n" (us best 50.)
      (us best 99.) (us modeled 50.) (us modeled 99.)
      (ratio (us best 50.) (us modeled 50.))
      w1 wn;
    (!checked, !failed, [ ("warm.speedup", ratio w1 wn) ])
  in
  { platforms = [ hw ]; engines = ignore; rep; finish }

(* --- serving workloads --------------------------------------------------- *)

(* Requests without exactly one terminal status, plus statuses for
   requests the trace never held. *)
let unconserved ~trace_ids ids =
  let seen = Hashtbl.create (List.length trace_ids) in
  List.iter
    (fun id ->
      Hashtbl.replace seen id (1 + Option.value ~default:0 (Hashtbl.find_opt seen id)))
    ids;
  let bad = ref 0 in
  List.iter
    (fun id ->
      if Hashtbl.find_opt seen id <> Some 1 then incr bad;
      Hashtbl.remove seen id)
    trace_ids;
  !bad + Hashtbl.length seen

(* One serving repetition: the loop call and its report are timed, the
   outcome is checked for conservation and digested. [statuses] maps the
   loop's outcome to (request id, terminal status) pairs. *)
let serve ?(conserved = fun _ -> true) ~trace_ids ~compilers ~loop ~report ~statuses
    ~counts () =
  let g0 = gc_words () in
  let t0 = Spans.now () in
  let o = Spans.scope "loop" loop in
  let g1 = gc_words () in
  let m = Spans.scope "report" (fun () -> report o) in
  let t1 = Spans.now () in
  let st = statuses o in
  let n = List.length trace_ids in
  let sim_p50_ms = 1e3 *. m.Metrics.latency_p50 in
  let sim_p99_ms = 1e3 *. m.Metrics.latency_p99 in
  let digest =
    List.map (fun (id, s) -> Printf.sprintf "%d %s" id s) st
    |> List.sort compare
    |> List.cons (Printf.sprintf "%h %h %h" sim_p50_ms sim_p99_ms m.Metrics.goodput_rps)
    |> String.concat "\n" |> Checksum.fnv1a64_hex
  in
  {
    throughput = float_of_int n /. (t1 -. t0);
    sim_p50_ms;
    sim_p99_ms;
    sim_goodput = m.Metrics.goodput_rps;
    digest;
    checked = n;
    failed =
      unconserved ~trace_ids (List.map fst st) + if conserved o then 0 else 1;
    counts =
      [
        ("loop.steps", float_of_int m.Metrics.steps);
        ("shape_cache.hit_ratio", m.Metrics.cache_hit_rate);
        ("queue.mean_depth", m.Metrics.mean_queue_depth);
        ("requests.completed", float_of_int m.Metrics.completed);
        ("requests.dropped", float_of_int m.Metrics.dropped);
        ("requests.rate_limited", float_of_int m.Metrics.rejected);
      ]
      @ gc_counts g0 g1 @ counts o @ compiler_counts compilers;
  }

let scheduler_status = function
  | Scheduler.Completed -> "completed"
  | Scheduler.Rejected r -> "rejected " ^ r
  | Scheduler.Timed_out -> "timed-out"
  | Scheduler.Failed r -> "failed " ^ r

let no_run_checks () = (0, 0, [])

let scheduler_workload ~trace ~config =
  let trace_ids = List.map (fun r -> r.Request.id) trace in
  let rep () =
    let c = Compiler.create Hardware.a100 in
    let e = engine (Scheduler.mikpoly_engine c) in
    serve ~trace_ids ~compilers:[ c ]
      ~loop:(fun () -> Scheduler.run ~jobs:1 config e trace)
      ~report:Metrics.of_outcome
      ~statuses:(fun o ->
        List.map
          (fun (r, s) -> (r.Request.id, scheduler_status s))
          (Scheduler.statuses o))
      ~counts:(fun _ -> [])
      ()
  in
  {
    platforms = [ Hardware.a100 ];
    engines = List.iter (fun c -> ignore (Scheduler.mikpoly_engine c));
    rep;
    finish = no_run_checks;
  }

let pareto = Request.Pareto { alpha = Mix.pareto_alpha }

(* Under capacity with a hot cache: host time is the scheduler's per-step
   cost and search is negligible. *)
let serve_steady ~smoke ~seed =
  scheduler_workload
    ~trace:
      (Request.poisson ~length_dist:pareto ~seed ~rate:400.
         ~count:(if smoke then 1000 else 40_000)
         ~max_prompt:512 ~max_output:64 ())
    ~config:
      {
        Scheduler.replicas = 8;
        batcher = Batcher.Greedy { max_batch = 32 };
        bucketing = Bucketing.Aligned 8;
        cache_capacity = 64;
      }

(* About ten times capacity: deep queues, shedding, and [Exact] bucketing
   keeps minting shapes the compiler has not seen. *)
let serve_overload ~smoke ~seed =
  scheduler_workload
    ~trace:
      (Request.poisson ~length_dist:pareto ~seed ~rate:5000.
         ~count:(if smoke then 1000 else 40_000)
         ~max_prompt:2048 ~max_output:64 ())
    ~config:
      {
        Scheduler.replicas = 2;
        batcher = Batcher.Slo_aware { max_batch = 32 };
        bucketing = Bucketing.Exact;
        cache_capacity = 64;
      }

(* The three-tier serving mix at [mult] times its nominal rates. *)
let mix_specs ~mult ~total =
  List.mapi
    (fun i ((row : Mix.tenant_row), count) ->
      {
        Tenant.tenant =
          {
            Tenant.tenant_id = i;
            tenant_name = row.Mix.mix_name;
            tier = EF.tier_of_name row.Mix.mix_tier;
          };
        rate = row.Mix.mix_rate *. mult;
        count;
      })
    (Mix.counts ~total)

let tagged_ids tagged =
  List.map (fun (t : Tenant.tagged) -> t.Tenant.req.Request.id) tagged

(* The fleet experiment's full configuration (coalescing, warm store,
   autoscaler, crash plan) in the overload regime it targets. *)
let fleet_overload ~smoke ~seed =
  let tagged =
    Tenant.trace ~length_dist:pareto ~ttft_budget:0.02 ~seed ~max_prompt:256
      ~max_output:16
      (mix_specs ~mult:50. ~total:(if smoke then 1000 else 20_000))
      ()
  in
  let config =
    EF.fleet_config ~coalesce:true ~warm:(EF.warm_config ~quick:false)
      ~autoscale:EF.autoscale_config ~replicas:2 ()
  in
  let ids reqs st = List.map (fun r -> (r.Request.id, st)) reqs in
  let rep () =
    let c = Compiler.create Hardware.a100 in
    let e = engine (Scheduler.mikpoly_engine c) in
    serve ~trace_ids:(tagged_ids tagged) ~compilers:[ c ]
      ~loop:(fun () -> F.run ~faults:EF.fault_plan config e tagged)
      ~report:(fun o -> Metrics.of_outcome (F.to_scheduler_outcome o))
      ~statuses:(fun o ->
        ids
          (List.map (fun (c : Scheduler.completed) -> c.Scheduler.request) o.F.completed)
          "completed"
        @ ids o.F.dropped "dropped" @ ids o.F.rate_limited "rate-limited")
      ~counts:(fun o ->
        [
          ("fleet.coalesced_groups", float_of_int o.F.coalesced_groups);
          ("fleet.warm_hits", float_of_int o.F.warm_hits);
          ("fleet.requeues", float_of_int o.F.requeues);
          ("fleet.scale_ups", float_of_int o.F.scale_ups);
        ])
      ()
  in
  {
    platforms = [ Hardware.a100 ];
    engines = List.iter (fun c -> ignore (Scheduler.mikpoly_engine c));
    rep;
    finish = no_run_checks;
  }

(* The mixed GPU+NPU fleet with hedging; the GPU class is dark for the
   middle tenth (40-50%) of the arrival span, so the breaker trips and
   traffic fails over to the NPU class. *)
let hetero_failover ~smoke ~seed =
  let tagged =
    Tenant.trace ~length_dist:pareto ~profiles:EH.profiles ~seed ~max_prompt:32
      ~max_output:8
      (mix_specs ~mult:EH.chaos_mult ~total:(if smoke then 1000 else 30_000))
      ()
  in
  let span =
    List.fold_left
      (fun a (t : Tenant.tagged) -> Float.max a t.Tenant.req.Request.arrival)
      0. tagged
  in
  let faults =
    Plan.make
      ~outages:[ Plan.outage ~cls:0 ~start:(0.4 *. span) ~stop:(0.5 *. span) ]
      ~seed ()
  in
  let mixed c = Engines.mixed_engine ~cnn_cut:EH.cnn_cut c in
  let rep () =
    let gpu = Compiler.create Hardware.a100 in
    let npu = Compiler.create Hardware.ascend910 in
    (* The 2 GPU + 3 NPU fleet of [Exp_hetero.mixed_backends], on fresh
       compilers instead of the experiment's shared ones. *)
    let backends =
      [
        Backend.make ~hw:Hardware.a100 ~replicas:2 (engine (mixed gpu));
        Backend.make ~hw:Hardware.ascend910 ~replicas:3 (engine (mixed npu));
      ]
    in
    let config = EH.hetero_config ~hedge:H.default_hedge ~quick:false backends in
    serve ~trace_ids:(tagged_ids tagged) ~compilers:[ gpu; npu ]
      ~loop:(fun () -> H.run ~faults config tagged)
      ~report:(fun o -> Metrics.of_outcome (H.to_scheduler_outcome o))
      ~conserved:(fun o -> o.H.o_conserved)
      ~statuses:(fun o ->
        List.map (fun (r, s) -> (r.Request.id, H.status_name s)) o.H.o_statuses)
      ~counts:(fun o ->
        let routed kind =
          List.fold_left
            (fun a cs -> if cs.H.cs_kind = kind then a + cs.H.cs_routed else a)
            0 o.H.o_classes
        in
        [
          ("hetero.reroutes", float_of_int o.H.o_reroutes);
          ("hetero.hedges", float_of_int o.H.o_hedges);
          ("hetero.hedge_cancels", float_of_int o.H.o_hedge_cancels);
          ("hetero.routed.gpu", float_of_int (routed "gpu"));
          ("hetero.routed.npu", float_of_int (routed "npu"));
        ])
      ()
  in
  {
    platforms = [ Hardware.a100; Hardware.ascend910 ];
    engines = List.iter (fun c -> ignore (mixed c));
    rep;
    finish = no_run_checks;
  }

(* Each workload with the number of inputs a run measures. On the serving
   workloads the host cost per request moves by up to 10% from one seed's
   trace to the next, because deep queues amplify small differences in
   the realized load, so a run averages over several inputs. A longer
   trace would not do for fleet-overload: [Fleet.run] grows faster than
   linearly with trace length (60 000 requests take 20 times as long as
   20 000), so it measures four short inputs. *)
let all =
  [
    ("compile-cold-gpu", (2, compile_cold Hardware.a100));
    ("compile-cold-npu", (2, compile_cold Hardware.ascend910));
    ("serve-steady", (2, serve_steady));
    ("serve-overload", (2, serve_overload));
    ("fleet-overload", (4, fleet_overload));
    ("hetero-failover", (2, hetero_failover));
  ]
