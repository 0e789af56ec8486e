(* Benchmark harness.

   Running this executable (a) reproduces every table and figure of the
   paper's evaluation through the experiment registry, printing the
   paper-style tables, and (b) runs one Bechamel micro-benchmark per
   experiment measuring the harness's own hot path (the online
   polymerization search, the Equation-2 cost model, the device simulator,
   …) — the quantities Figure 12a's overhead analysis depends on.

   Usage: main.exe [--quick] [--only STAGE,...] [ids...]

   Stages, in run order: experiments, micro, telemetry (writes
   BENCH_telemetry.json) and parallel (writes BENCH_parallel.json: the
   host's [recommended_domains], and per job count its
   [effective_jobs], walls and candidate tallies).
   Every stage runs unless [--only] names a subset. A failing stage does
   not stop the others: each failure is printed and the run exits 1 at
   the end. [ids] restrict the experiments stage to those experiment
   ids. The gated subsystem reports (BENCH_graph/fleet/rank/hetero/
   resilience.json) have one producer, [mikpoly_cli graph|fleet|rank|
   hetero|chaos --out]. *)

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
        (Mikpoly_experiments.Exp.render e report)
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
    Mikpoly_core.Polymerize.search_batch ~instrument:false ~jobs kernels config
      ops
  in
  ignore (batch 1);
  (* warm the allocator and the kernel-set cache; the first rep at a new
     effective job count spawns its workers, and each level keeps its
     fastest rep *)
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

let stages =
  [
    ("experiments", run_experiments);
    ("micro", run_micro);
    ("telemetry", run_telemetry_overhead);
    ("parallel", run_parallel_bench);
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
