(* Benchmark harness.

   Running this executable (a) reproduces every table and figure of the
   paper's evaluation through the experiment registry, printing the
   paper-style tables, and (b) runs one Bechamel micro-benchmark per
   experiment measuring the harness's own hot path (the online
   polymerization search, the Equation-2 cost model, the device simulator,
   …) — the quantities Figure 12a's overhead analysis depends on.

   Usage: main.exe [--quick] [--only STAGE,...] [ids...]

   Stages, in run order: experiments, micro, telemetry, parallel, graph,
   adapt, resilience, fleet, rank, hetero. Every stage runs unless
   [--only] names a subset. A failing stage does not stop the others:
   each failure is printed and the run exits 1 at the end. [ids]
   restrict the experiments stage to those experiment ids. *)

open Bechamel
open Toolkit

let quick = Array.exists (( = ) "--quick") Sys.argv

let only, selected_ids =
  let rec parse only ids = function
    | [] -> (only, List.rev ids)
    | "--only" :: v :: rest -> parse (Some v) ids rest
    | a :: rest when String.starts_with ~prefix:"--" a -> parse only ids rest
    | a :: rest -> parse only (a :: ids) rest
  in
  let only, ids = parse None [] (List.tl (Array.to_list Sys.argv)) in
  (Option.map (String.split_on_char ',') only, ids)

(* A stage reports a failure by raising; the runner records it and goes
   on with the next stage. *)
exception Stage_failed of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Stage_failed msg)) fmt

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents);
  Printf.printf "wrote %s\n%!" path

(* Print each failed gate to stderr; fail the stage if any did. *)
let check_gates name gates =
  let prefix = name ^ " bench: gate failed" in
  if not (Mikpoly_experiments.Exp.report_failed_gates ~prefix gates) then
    fail "%d of %d gates failed"
      (List.length (Mikpoly_experiments.Exp.failed_gates gates))
      (List.length gates)

let experiments () =
  match selected_ids with
  | [] -> Mikpoly_experiments.Registry.all
  | ids ->
    List.filter
      (fun (e : Mikpoly_experiments.Exp.t) -> List.mem e.id ids)
      Mikpoly_experiments.Registry.all

let run_experiments () =
  List.iter
    (fun (e : Mikpoly_experiments.Exp.t) ->
      let t0 = Unix.gettimeofday () in
      let report = e.run ~quick in
      Printf.printf "%s  [experiment wall time: %.2fs]\n\n%!"
        (Mikpoly_experiments.Exp.render report)
        (Unix.gettimeofday () -. t0))
    (experiments ())

(* --- Bechamel micro-benchmarks: one per experiment family --- *)

let micro_tests () =
  let open Mikpoly_experiments in
  let gpu = Backends.gpu () in
  let npu = Backends.npu () in
  let kernels = Mikpoly_core.Compiler.kernels gpu in
  let config = Mikpoly_core.Compiler.config gpu in
  let op = Mikpoly_ir.Operator.gemm ~m:4096 ~n:1024 ~k:4096 () in
  let odd_op = Mikpoly_ir.Operator.gemm ~m:777 ~n:1234 ~k:555 () in
  let compiled = Mikpoly_core.Compiler.compile gpu op in
  let load = Mikpoly_ir.Program.to_load compiled.program in
  let cublas = Backends.cublas () in
  let entry = kernels.entries.(0) in
  let stage name f = Test.make ~name (Staged.stage f) in
  [
    (* fig1/fig6: a vendor-library dispatch (selection + simulation). *)
    stage "fig1/fig6: cuBLAS select+simulate" (fun () ->
        cublas.gemm ~m:4096 ~n:1024 ~k:4096);
    (* fig6/fig8: one full online polymerization on the GPU. *)
    stage "fig6/fig8: polymerize (4096,1024,4096) GPU" (fun () ->
        Mikpoly_core.Polymerize.polymerize kernels config op);
    stage "fig6: polymerize odd shape GPU" (fun () ->
        Mikpoly_core.Polymerize.polymerize kernels config odd_op);
    (* fig7: NPU polymerization explores all nine patterns. *)
    stage "fig7: polymerize (4096,1024,4096) NPU" (fun () ->
        Mikpoly_core.Polymerize.polymerize
          (Mikpoly_core.Compiler.kernels npu)
          (Mikpoly_core.Compiler.config npu)
          op);
    (* fig12a: the Equation-2 cost model, the per-candidate unit of search. *)
    stage "fig12a: cost model (one region)" (fun () ->
        Mikpoly_core.Cost_model.region_cost Mikpoly_core.Cost_model.Full entry
          ~rows:4096 ~cols:1024 ~k_len:4096);
    (* fig12b/case_study: the event-driven device simulation. *)
    stage "fig12b/tab9: simulate polymerized program" (fun () ->
        Mikpoly_accel.Simulator.run Mikpoly_accel.Hardware.a100 load);
    (* fig13: one offline-stage candidate scoring. *)
    stage "fig13: offline synthetic scoring" (fun () ->
        Mikpoly_autosched.Autotuner.size_tflops Mikpoly_accel.Hardware.a100
          entry.desc ~size:1024);
    (* g_predict evaluation used by f_pipe. *)
    stage "fig12: g_predict eval" (fun () ->
        Mikpoly_autosched.Perf_model.predict_cycles entry.model ~t_steps:128);
    (* The functional executor's micro-kernel implementations. *)
    (let kd = Mikpoly_accel.Kernel_desc.make ~um:64 ~un:64 ~uk:64 () in
     let bufs = Mikpoly_ir.Kernel_exec.alloc kd in
     Array.iteri (fun i _ -> bufs.a_tile.(i) <- 1.) bufs.a_tile;
     Array.iteri (fun i _ -> bufs.b_tile.(i) <- 1.) bufs.b_tile;
     let naive = Mikpoly_ir.Kernel_exec.naive kd in
     stage "executor: naive 64x64x64 micro-kernel" (fun () -> naive bufs));
    (let kd = Mikpoly_accel.Kernel_desc.make ~um:64 ~un:64 ~uk:64 () in
     let bufs = Mikpoly_ir.Kernel_exec.alloc kd in
     Array.iteri (fun i _ -> bufs.a_tile.(i) <- 1.) bufs.a_tile;
     Array.iteri (fun i _ -> bufs.b_tile.(i) <- 1.) bufs.b_tile;
     let unrolled = Mikpoly_ir.Kernel_exec.unrolled kd in
     stage "executor: unrolled 64x64x64 micro-kernel" (fun () -> unrolled bufs));
    (* serving: one replica-cache probe and refill, as the lookup ladder
       takes per distinct shape of a step (not per launch). *)
    (let open Mikpoly_serve in
     let cache = Shape_cache.create ~capacity:64 in
     let i = ref 0 in
     stage "serving: shape-cache find+add (64-way LRU)" (fun () ->
         incr i;
         let key = (256, !i mod 96, 512) in
         match Shape_cache.find cache key with
         | Some () -> ()
         | None -> Shape_cache.add cache key ()));
    (* serving: a full scheduler run over a small synthetic trace. *)
    (let open Mikpoly_serve in
     let engine = Scheduler.synthetic_engine () in
     let trace =
       Request.poisson ~seed:7 ~rate:50. ~count:32 ~max_prompt:64 ~max_output:8
         ()
     in
     let config =
       {
         Scheduler.replicas = 2;
         batcher = Batcher.Greedy { max_batch = 16 };
         bucketing = Bucketing.Aligned 8;
         cache_capacity = 32;
       }
     in
     stage "serving: schedule 32 requests (synthetic engine)" (fun () ->
         Scheduler.run config engine trace));
  ]

let run_micro () =
  let tests = micro_tests () in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.05 else 0.25))
      ~stabilize:true ()
  in
  let table =
    Mikpoly_util.Table.create ~title:"Bechamel micro-benchmarks"
      ~header:[ "benchmark"; "time/run" ]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances
          (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ])
      in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> x
            | _ -> nan
          in
          Mikpoly_util.Table.add_row table
            [ name; Mikpoly_util.Table.fmt_time_us (ns /. 1e9) ])
        analyzed)
    tests;
  print_endline (Mikpoly_util.Table.render table)

(* --- Telemetry overhead: tracing-off and tracing-on vs uninstrumented ---

   Times the two instrumented hot paths (online polymerization, the
   serving scheduler) in three modes and writes the overhead ratios to
   BENCH_telemetry.json. The tracing-off ratio is the number the no-op
   sink design is judged by (test_telemetry asserts < 5% on the same
   path); the tracing-on ratio is the price of actually capturing a
   trace. Best-of-batches timing keeps the numbers stable under noise. *)

let time_batch f reps =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

let best_of f ~reps ~batches =
  let best = ref infinity in
  for _ = 1 to batches do
    best := Float.min !best (time_batch f reps)
  done;
  !best

let run_telemetry_overhead () =
  let open Mikpoly_telemetry in
  let reps = if quick then 5 else 20 in
  let batches = if quick then 3 else 7 in
  let gpu = Mikpoly_experiments.Backends.gpu () in
  let kernels = Mikpoly_core.Compiler.kernels gpu in
  let config = Mikpoly_core.Compiler.config gpu in
  let odd_op = Mikpoly_ir.Operator.gemm ~m:777 ~n:1234 ~k:555 () in
  let engine = Mikpoly_serve.Scheduler.synthetic_engine () in
  let trace =
    Mikpoly_serve.Request.poisson ~seed:7 ~rate:50. ~count:32 ~max_prompt:64
      ~max_output:8 ()
  in
  let sched_config =
    {
      Mikpoly_serve.Scheduler.replicas = 2;
      batcher = Mikpoly_serve.Batcher.Greedy { max_batch = 16 };
      bucketing = Mikpoly_serve.Bucketing.Aligned 8;
      cache_capacity = 32;
    }
  in
  let measure f ~baseline =
    (* baseline: uninstrumented where the API offers it (polymerize's
       [~instrument:false]); otherwise tracing-off doubles as baseline. *)
    Tracer.reset ();
    Tracer.disable ();
    let base = best_of baseline ~reps ~batches in
    let off = best_of f ~reps ~batches in
    Tracer.enable ();
    let on =
      let best = ref infinity in
      for _ = 1 to batches do
        Tracer.reset ();
        (* spans from prior batches would only grow memory *)
        best := Float.min !best (time_batch f reps)
      done;
      !best
    in
    Tracer.disable ();
    Tracer.reset ();
    (base, off, on)
  in
  let bench name f ~baseline =
    let base, off, on = measure f ~baseline in
    Printf.printf
      "telemetry overhead %-28s base %s  off %s (%+.2f%%)  on %s (%+.2f%%)\n"
      name
      (Mikpoly_util.Table.fmt_time_us base)
      (Mikpoly_util.Table.fmt_time_us off)
      (100. *. ((off /. base) -. 1.))
      (Mikpoly_util.Table.fmt_time_us on)
      (100. *. ((on /. base) -. 1.));
    Json.Obj
      [
        ("name", Json.String name);
        ("uninstrumented_s", Json.Number base);
        ("tracing_off_s", Json.Number off);
        ("tracing_on_s", Json.Number on);
        ("tracing_off_ratio", Json.Number (off /. base));
        ("tracing_on_ratio", Json.Number (on /. base));
      ]
  in
  let rows =
    [
      bench "polymerize_odd_shape"
        (fun () -> Mikpoly_core.Polymerize.polymerize kernels config odd_op)
        ~baseline:(fun () ->
          Mikpoly_core.Polymerize.polymerize ~instrument:false kernels config
            odd_op);
      bench "serve_schedule_32_requests"
        (fun () -> Mikpoly_serve.Scheduler.run sched_config engine trace)
        ~baseline:(fun () ->
          Mikpoly_serve.Scheduler.run sched_config engine trace);
    ]
  in
  write_file "BENCH_telemetry.json"
    (Json.to_string
       (Json.Obj
          [
            ("reps_per_batch", Json.Number (float_of_int reps));
            ("batches", Json.Number (float_of_int batches));
            ("benchmarks", Json.List rows);
          ]))

(* --- Parallel search scaling: jobs sweep over the Table-3 GEMM suite ---

   Two-level search economics. Level one: analytic strategy-space
   pruning — the jobs=1 sweep runs once with [analytic_prune] off to
   measure the scored-candidate reduction (gated >= 5x) and re-check
   the pruned program is byte-identical. Level two: coarse-grained
   parallelism — [Polymerize.search_batch] fans whole shapes (not
   per-pattern units) over the pool at jobs ∈ {1, 2, 4, 8}, checks
   every chosen program is byte-identical to the sequential one, and
   writes min-of-reps wall times, speedups and per-level candidate
   tallies to BENCH_parallel.json.

   Gate: on a host with more than one effective worker, jobs=4 must
   beat jobs=1 outright (speedup > 1.0) and jobs=8 must not degrade
   below jobs=4. On a single-core host a speedup is physically
   impossible — [effective_jobs] clamps every level to one worker —
   so the gate becomes: the clamp must hold batching overhead within
   10% of sequential, with programs still identical. The gate mode is
   recorded in the JSON so CI can see which contract was enforced. *)

let run_parallel_bench () =
  let open Mikpoly_telemetry in
  let module Dp = Mikpoly_util.Domain_pool in
  let job_counts = [ 1; 2; 4; 8 ] in
  let gpu = Mikpoly_experiments.Backends.gpu () in
  let kernels = Mikpoly_core.Compiler.kernels gpu in
  let config = Mikpoly_core.Compiler.config gpu in
  let cases =
    let all = Mikpoly_workloads.Suite.table3_gemm () in
    if quick then List.filteri (fun i _ -> i mod 4 = 0) all else all
  in
  let ops =
    Array.of_list
      (List.map
         (fun (c : Mikpoly_workloads.Gemm_case.t) ->
           Mikpoly_ir.Operator.gemm ~m:c.m ~n:c.n ~k:c.k ())
         cases)
  in
  let n_shapes = Array.length ops in
  let batch ?(config = config) jobs =
    Mikpoly_core.Polymerize.search_batch ~instrument:false ~jobs ~min_chunk:1
      kernels config ops
  in
  ignore (batch 1);
  (* warm the domain pool, the allocator and the kernel-set cache *)
  let reps = if quick then 2 else 3 in
  let sweep jobs =
    let wall = ref infinity in
    let result = ref [||] in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = batch jobs in
      wall := Float.min !wall (Unix.gettimeofday () -. t0);
      result := r
    done;
    (* per-shape compile latency: the stall an unlucky request sees when
       its shape misses every cache and polymerizes inline. One search
       never touches the pool (its units are sequential), so this runs
       the identical code path the batch runs per shape. *)
    let times =
      Array.to_list
        (Array.map
           (fun op ->
             let s = Unix.gettimeofday () in
             ignore
               (Mikpoly_core.Polymerize.polymerize ~instrument:false kernels
                  config op);
             Unix.gettimeofday () -. s)
           ops)
    in
    (!wall, times, !result)
  in
  let timed = List.map (fun j -> (j, sweep j)) job_counts in
  let _, (_, _, reference) = List.hd timed in
  let fingerprint (c : Mikpoly_core.Polymerize.compiled) =
    Mikpoly_ir.Program.to_string c.program
  in
  List.iter
    (fun (j, (_, _, compileds)) ->
      if Array.map fingerprint compileds <> Array.map fingerprint reference
      then fail "programs at jobs=%d differ from jobs=1" j)
    timed;
  let sum_candidates cs =
    Array.fold_left
      (fun a (c : Mikpoly_core.Polymerize.compiled) -> a + c.candidates)
      0 cs
  in
  let sum_pruned_a cs =
    Array.fold_left
      (fun a (c : Mikpoly_core.Polymerize.compiled) -> a + c.pruned_analytic)
      0 cs
  in
  let sum_pruned_b cs =
    Array.fold_left
      (fun a (c : Mikpoly_core.Polymerize.compiled) -> a + c.pruned)
      0 cs
  in
  (* level one: the analytic-pruning win, measured against the same
     suite with pruning disabled (jobs=1; candidate tallies are
     job-count-invariant anyway) *)
  let unpruned =
    batch ~config:{ config with Mikpoly_core.Config.analytic_prune = false } 1
  in
  let pruned_cand = sum_candidates reference in
  let unpruned_cand = sum_candidates unpruned in
  let reduction =
    if pruned_cand > 0 then
      float_of_int unpruned_cand /. float_of_int pruned_cand
    else infinity
  in
  Printf.printf
    "analytic pruning: %d candidates scored vs %d unpruned (%.1fx fewer)\n"
    pruned_cand unpruned_cand reduction;
  if Array.map fingerprint unpruned <> Array.map fingerprint reference then
    fail "pruned programs differ from unpruned";
  if reduction < 5. then fail "pruning reduction %.2fx below the 5x gate" reduction;
  let t1 = match timed with (_, (t, _, _)) :: _ -> t | [] -> nan in
  let rows =
    List.map
      (fun (j, (t, times, compileds)) ->
        let p99 = Mikpoly_util.Stats.percentile 99. times in
        let ejobs = Dp.effective_jobs j in
        Printf.printf
          "parallel search jobs=%d (effective %d)  %d shapes in %s  (speedup \
           %.2fx, p99 compile %s, %d candidates)\n"
          j ejobs n_shapes
          (Mikpoly_util.Table.fmt_time_us t)
          (t1 /. t)
          (Mikpoly_util.Table.fmt_time_us p99)
          (sum_candidates compileds);
        Json.Obj
          [
            ("jobs", Json.Number (float_of_int j));
            ("effective_jobs", Json.Number (float_of_int ejobs));
            ("wall_seconds", Json.Number t);
            ("speedup_vs_jobs1", Json.Number (t1 /. t));
            ("compile_p99_seconds", Json.Number p99);
            ("candidates_scored", Json.Number (float_of_int (sum_candidates compileds)));
            ("pruned_analytic", Json.Number (float_of_int (sum_pruned_a compileds)));
            ("pruned_bound", Json.Number (float_of_int (sum_pruned_b compileds)));
            ("programs_identical", Json.Bool true);
          ])
      timed
  in
  let wall_at j =
    match List.assoc_opt j timed with Some (t, _, _) -> t | None -> nan
  in
  let multicore = Dp.effective_jobs 4 > 1 in
  let gate_ok =
    if multicore then
      t1 /. wall_at 4 > 1.0 && wall_at 8 <= wall_at 4 *. 1.05
    else
      (* single core: the clamp must keep the batch machinery free —
         within 10% of plain sequential *)
      wall_at 4 <= t1 *. 1.10 && wall_at 8 <= t1 *. 1.10
  in
  if not gate_ok then
    fail "%s gate failed (jobs1 %.4fs, jobs4 %.4fs, jobs8 %.4fs)"
      (if multicore then "speedup" else "single-core overhead")
      t1 (wall_at 4) (wall_at 8);
  let json =
    Json.Obj
      [
        ("suite", Json.String "table3_gemm");
        ("shapes", Json.Number (float_of_int n_shapes));
        ("host_cores", Json.Number (float_of_int (Dp.host_cores ())));
        ( "recommended_domains",
          Json.Number (float_of_int (Domain.recommended_domain_count ())) );
        ( "pruning",
          Json.Obj
            [
              ("candidates_scored", Json.Number (float_of_int pruned_cand));
              ("candidates_unpruned", Json.Number (float_of_int unpruned_cand));
              ("reduction", Json.Number reduction);
              ("programs_identical", Json.Bool true);
            ] );
        ( "gate",
          Json.Obj
            [
              ( "mode",
                Json.String
                  (if multicore then "multicore_speedup"
                   else "single_core_fallback") );
              ("passed", Json.Bool true);
            ] );
        ("sweep", Json.List rows);
      ]
  in
  write_file "BENCH_parallel.json" (Json.to_string json)

(* --- Online adaptation: drift scenario plus a serving SLO A/B ---

   Runs the lib/adapt drift scenario (the cost model goes stale halfway
   through an observation trace) and asserts the acceptance criteria hard:
   held-out Kendall-tau strictly improves after calibration with top-1
   regret no worse, the detector fires, and attaching the adaptation loop
   to a healthy serving deployment does not hurt SLO attainment. Writes
   BENCH_adapt.json. *)

let run_adapt_bench () =
  let open Mikpoly_telemetry in
  let hw = Mikpoly_accel.Hardware.a100 in
  let compiler = Mikpoly_core.Compiler.create hw in
  let trace = if quick then 32 else 48 in
  let r = Mikpoly_adapt.Scenario.run ~trace compiler in
  let stats = Mikpoly_adapt.Adapter.stats r.adapter in
  Printf.printf
    "adapt drift scenario: tau %.4f -> %.4f, regret %.2f%% -> %.2f%%, %d \
     drift event(s) after %d observation(s), stall %s\n%!"
    r.before.tau r.after.tau
    (100. *. r.before.top1_regret)
    (100. *. r.after.top1_regret)
    stats.drift_events r.reaction_observations
    (Mikpoly_util.Table.fmt_time_us r.stall_seconds);
  if stats.drift_events < 1 then fail "the drift detector never fired";
  if not (r.after.tau > r.before.tau) then
    fail "calibration did not improve Kendall-tau (%.4f -> %.4f)" r.before.tau
      r.after.tau;
  if r.after.top1_regret > r.before.top1_regret +. 1e-9 then
    fail "top-1 regret regressed (%.4f -> %.4f)" r.before.top1_regret
      r.after.top1_regret;
  (* Serving A/B on a healthy device: same trace and config, with and
     without the adaptation loop attached. The detector must stay quiet
     and SLO attainment must not drop. *)
  let serve_config =
    {
      Mikpoly_serve.Scheduler.replicas = 2;
      batcher = Mikpoly_serve.Batcher.Greedy { max_batch = 32 };
      bucketing = Mikpoly_serve.Bucketing.Aligned 8;
      cache_capacity = 64;
    }
  in
  let requests =
    Mikpoly_serve.Request.poisson ~seed:0x5E2 ~rate:30.
      ~count:(if quick then 16 else 48)
      ~max_prompt:64 ~max_output:8 ()
  in
  let serve_metrics ~adapted =
    let c = Mikpoly_core.Compiler.create hw in
    let adapter =
      if adapted then Some (Mikpoly_adapt.Adapter.create c) else None
    in
    let adapt =
      Option.map
        (fun a () -> Mikpoly_adapt.Adapter.drain_stall_seconds a)
        adapter
    in
    let engine = Mikpoly_serve.Scheduler.mikpoly_engine c in
    Mikpoly_serve.Metrics.of_outcome
      (Mikpoly_serve.Scheduler.run ?adapt serve_config engine requests)
  in
  let without = serve_metrics ~adapted:false in
  let with_adapt = serve_metrics ~adapted:true in
  Printf.printf
    "adapt serving A/B: SLO attainment %.1f%% without vs %.1f%% with \
     adaptation (adapt stall %s)\n%!"
    (100. *. without.slo_attainment)
    (100. *. with_adapt.slo_attainment)
    (Mikpoly_util.Table.fmt_time_us with_adapt.adapt_stall_seconds);
  if with_adapt.slo_attainment < without.slo_attainment -. 1e-9 then
    fail "SLO attainment regressed with adaptation (%.4f -> %.4f)"
      without.slo_attainment with_adapt.slo_attainment;
  let json =
    Json.Obj
      [
        ("trace_length", Json.Number (float_of_int r.trace_length));
        ("tau_before", Json.Number r.before.tau);
        ("tau_after", Json.Number r.after.tau);
        ("top1_regret_before", Json.Number r.before.top1_regret);
        ("top1_regret_after", Json.Number r.after.top1_regret);
        ("holdout_shapes", Json.Number (float_of_int r.before.samples));
        ("drift_events", Json.Number (float_of_int stats.drift_events));
        ( "drift_reaction_observations",
          Json.Number (float_of_int r.reaction_observations) );
        ("programs_invalidated", Json.Number (float_of_int stats.invalidated));
        ("hot_shapes_recompiled", Json.Number (float_of_int stats.recompiles));
        ("recompile_stall_seconds", Json.Number r.stall_seconds);
        ("serving_slo_without_adapt", Json.Number without.slo_attainment);
        ("serving_slo_with_adapt", Json.Number with_adapt.slo_attainment);
        ( "serving_adapt_stall_seconds",
          Json.Number with_adapt.adapt_stall_seconds );
      ]
  in
  write_file "BENCH_adapt.json" (Json.to_string json)

(* Resilience chaos bench: the acceptance gate of the fault-injection
   plane.

   Runs the canonical seeded chaos A/B (the same fault plan with and
   without the resilience machinery) and asserts hard: faults were
   actually injected in both arms, no request was lost silently in
   either arm, SLO attainment with resilience strictly beats without,
   and the per-request terminal-status digests are bit-identical at 1
   and 4 worker domains. Writes BENCH_resilience.json. *)

let run_resilience_bench () =
  let module R = Mikpoly_serve.Resilience in
  let module E = Mikpoly_experiments.Exp_resilience in
  let compiler = Mikpoly_core.Compiler.create Mikpoly_accel.Hardware.a100 in
  let ab, n_req = E.chaos_ab ~jobs:1 ~quick compiler in
  let ab4, _ = E.chaos_ab ~jobs:4 ~quick compiler in
  let on = ab.R.with_resilience and off = ab.R.without_resilience in
  Printf.printf
    "resilience chaos A/B: %d requests, %d injected fault(s) (%d crash(es)); \
     SLO attainment %.1f%% with resilience vs %.1f%% without; %d retried \
     attempt(s); silent losses %d/%d\n%!"
    n_req on.R.injected_faults on.R.crashes
    (100. *. on.R.metrics.Mikpoly_serve.Metrics.slo_attainment)
    (100. *. off.R.metrics.Mikpoly_serve.Metrics.slo_attainment)
    on.R.metrics.Mikpoly_serve.Metrics.retries on.R.silent_losses
    off.R.silent_losses;
  let jobs_invariant =
    {
      Mikpoly_experiments.Exp.gate_name = "jobs_invariant";
      gate_ok =
        ab4.R.with_resilience.R.status_digest = on.R.status_digest
        && ab4.R.without_resilience.R.status_digest = off.R.status_digest;
      gate_detail = "outcomes differ across worker-domain counts";
    }
  in
  check_gates "resilience" (E.gates ab @ [ jobs_invariant ]);
  write_file "BENCH_resilience.json"
    (Mikpoly_telemetry.Json.to_string
       (E.ab_json ab ~requests:n_req
          [ ("jobs_invariant", Mikpoly_telemetry.Json.Bool true) ]))

(* --- Gated subsystem reports: acceptance gates + jobs invariance ---

   Each row renders one subsystem's experiment report on a fresh
   compiler: its JSON (simulated quantities only) and its acceptance
   gates. The runner renders at 1 and at 4 worker domains, requires the
   byte-identical report, asserts every gate, then writes
   BENCH_<name>.json.

   - graph: the lib/graph pipeline (rewrite passes, memory planning,
     pipelined compile/execute) over the model-graph suite plus the
     whole-graph vs per-operator serving A/B — pipelining strictly beats
     sequential on every model and binding, rewriting strictly shrinks
     every model, planning never exceeds naive allocation, whole-graph
     SLO attainment is at least the per-op stream's.
   - fleet: WFQ + coalescing + warm store + autoscaler vs the
     tenant-blind scheduler on the heavy-tail multi-tenant trace — fleet
     goodput beats the baseline at equal replicas, no tier starved and
     the tier order respected, coalescing strictly cuts compile stalls,
     the warm store engages, the autoscaler meets SLO on fewer
     replica-seconds than the static fleet.
   - rank: the lib/rank offline ranker under the stale-model drift
     regime on both fingerprints — held-out tau and top-1 regret
     strictly better than calibrated Eq. 2, and the GPU→NPU warm start
     beats a cold fit. The online search does not use the ranker.
   - hetero: the mixed GPU+NPU fleet against the equal-PE single-backend
     baselines and the chaos failover pair — mixed strictly beats both
     on goodput, failover strictly beats no-failover on SLO attainment
     under the same outage, the breaker trips and re-closes, hedges and
     the brown-out ladder engage, no admitted request silently lost. *)

let gated_reports =
  let module Ex = Mikpoly_experiments in
  let a100 () = Mikpoly_core.Compiler.create Mikpoly_accel.Hardware.a100 in
  [
    ( "graph",
      fun () ->
        let compiler = a100 () in
        let runs = Ex.Exp_graph.model_runs ~quick compiler in
        let serving = Ex.Exp_graph.serving_ab ~quick compiler in
        (Ex.Exp_graph.json ~quick runs serving, Ex.Exp_graph.gates runs serving) );
    ( "fleet",
      fun () ->
        let r = Ex.Exp_fleet.results ~quick (a100 ()) in
        (Ex.Exp_fleet.json r, Ex.Exp_fleet.gates r) );
    ( "rank",
      fun () ->
        let r = Ex.Exp_rank.results ~quick in
        (Ex.Exp_rank.json r, Ex.Exp_rank.gates r) );
    ( "hetero",
      fun () ->
        let r = Ex.Exp_hetero.results ~quick in
        (Ex.Exp_hetero.json r, Ex.Exp_hetero.gates r) );
  ]

let run_gated_report name render () =
  let module Dp = Mikpoly_util.Domain_pool in
  let saved_jobs = Dp.default_jobs () in
  let at jobs =
    Dp.set_default_jobs jobs;
    let json, gates = render () in
    (Mikpoly_telemetry.Json.to_string json, gates)
  in
  let (json1, gates), (json4, _) =
    Fun.protect
      ~finally:(fun () -> Dp.set_default_jobs saved_jobs)
      (fun () ->
        let r1 = at 1 in
        (r1, at 4))
  in
  if json1 <> json4 then fail "report at jobs=4 differs from jobs=1";
  check_gates name gates;
  Printf.printf "%s bench: %d gates hold, report identical across --jobs\n"
    name (List.length gates);
  write_file ("BENCH_" ^ name ^ ".json") json1

let stages =
  let gated name =
    (name, run_gated_report name (List.assoc name gated_reports))
  in
  [
    ("experiments", run_experiments);
    ("micro", run_micro);
    ("telemetry", run_telemetry_overhead);
    ("parallel", run_parallel_bench);
    gated "graph";
    ("adapt", run_adapt_bench);
    ("resilience", run_resilience_bench);
    gated "fleet";
    gated "rank";
    gated "hetero";
  ]

let () =
  (match only with
  | Some names ->
    List.iter
      (fun n ->
        if not (List.mem_assoc n stages) then begin
          Printf.eprintf "bad --only: unknown stage %S (expected %s)\n" n
            (String.concat ", " (List.map fst stages));
          exit 2
        end)
      names
  | None -> ());
  let failed =
    List.filter
      (fun (name, run) ->
        match only with
        | Some names when not (List.mem name names) -> false
        | _ -> (
          match run () with
          | () -> false
          | exception Stage_failed msg ->
            Printf.eprintf "%s bench: %s\n%!" name msg;
            true))
      stages
  in
  if failed <> [] then begin
    Printf.eprintf "failed stages: %s\n" (String.concat ", " (List.map fst failed));
    exit 1
  end
