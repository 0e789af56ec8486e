(* Parallel-search benchmark: [Polymerize.search_batch] over the Table-3
   GEMM suite at jobs ∈ {1, 2, 4, 8}.

   Usage: main.exe [--quick]

   [search_batch] fans whole shapes (not per-pattern units) over the
   domain pool. One timed batch is the suite repeated until it holds at
   least [min_shapes] shapes: a single pass of the quick suite lasts a
   millisecond or two, too short to time against scheduler noise. Each
   rep runs every job count once, in an order rotated by one per rep,
   after a [Gc.full_major], so no count always runs first or after
   another's garbage; each count keeps the median of its reps. Every
   chosen program must be byte-identical to the jobs=1 one. Writes
   BENCH_parallel.json: the host's [recommended_domains], per job count
   its [effective_jobs], median wall and speedup, and the gate's mode,
   per-check verdicts and overall verdict.

   Gate: on a host with more than one effective worker, jobs=4 must beat
   jobs=1 outright (speedup > 1.0) and jobs=8 must not degrade below
   jobs=4 (wall at most 1.05x). Where jobs=4 and jobs=8 clamp to the
   same effective count they are the same map on the same workers, so
   the second check would time noise; it is recorded as not applicable.
   On a single-core host a speedup is physically impossible —
   [effective_jobs] clamps every level to one worker — so the gate
   becomes: the clamp must hold batching overhead within 10% of
   sequential. The gate mode is recorded in the JSON so CI can see which
   contract was enforced. The run exits 1 if the gate fails or the
   programs differ.

   The other numbers have their own producers: [mikpoly_cli run] renders
   the paper's tables, bench/perf measures host cost per layer,
   test_core pins the analytic-pruning counts and test_telemetry gates
   the tracing-off overhead. *)

module Dp = Mikpoly_util.Domain_pool
module Json = Mikpoly_telemetry.Json
module Polymerize = Mikpoly_core.Polymerize

let quick =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> false
  | [ "--quick" ] -> true
  | _ ->
    prerr_endline "usage: main.exe [--quick]";
    exit 2

let job_counts = [ 1; 2; 4; 8 ]

let min_shapes = 10_000

let reps = 7

let () =
  let gpu = Mikpoly_experiments.Backends.gpu () in
  let kernels = Mikpoly_core.Compiler.kernels gpu in
  let config = Mikpoly_core.Compiler.config gpu in
  let suite =
    Mikpoly_workloads.Suite.table3_gemm ()
    |> List.filteri (fun i _ -> (not quick) || i mod 4 = 0)
    |> List.map (fun (c : Mikpoly_workloads.Gemm_case.t) ->
           Mikpoly_ir.Operator.gemm ~m:c.m ~n:c.n ~k:c.k ())
    |> Array.of_list
  in
  let repeats = (min_shapes + Array.length suite - 1) / Array.length suite in
  let ops = Array.concat (List.init repeats (fun _ -> suite)) in
  let batch jobs =
    Polymerize.search_batch ~instrument:false ~jobs kernels config ops
  in
  (* One untimed batch per count warms the allocator and the kernel-set
     cache, and spawns each effective count's workers. *)
  let results = List.map (fun j -> (j, batch j)) job_counts in
  let walls = Hashtbl.create 4 in
  for rep = 0 to reps - 1 do
    let n = List.length job_counts in
    List.iteri
      (fun i _ ->
        let j = List.nth job_counts ((i + rep) mod n) in
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        ignore (batch j);
        Hashtbl.add walls j (Unix.gettimeofday () -. t0))
      job_counts
  done;
  let wall_at j = Mikpoly_util.Stats.median (Hashtbl.find_all walls j) in
  let fingerprint j =
    Array.map
      (fun (c : Polymerize.compiled) -> Mikpoly_ir.Program.to_string c.program)
      (List.assoc j results)
  in
  let identical j = fingerprint j = fingerprint 1 in
  let t1 = wall_at 1 in
  let multicore = Dp.effective_jobs 4 > 1 in
  let verdict ok = if ok then "passed" else "failed" in
  let checks =
    if multicore then
      [
        ("jobs4_speedup_above_1.0", verdict (t1 /. wall_at 4 > 1.0));
        ( "jobs8_wall_within_1.05x_jobs4",
          if Dp.effective_jobs 8 = Dp.effective_jobs 4 then "not_applicable"
          else verdict (wall_at 8 <= wall_at 4 *. 1.05) );
      ]
    else
      (* single core: the clamp must keep the batch machinery free —
         within 10% of plain sequential *)
      [
        ("jobs4_wall_within_1.10x_jobs1", verdict (wall_at 4 <= t1 *. 1.10));
        ("jobs8_wall_within_1.10x_jobs1", verdict (wall_at 8 <= t1 *. 1.10));
      ]
  in
  let passed = not (List.exists (fun (_, v) -> v = "failed") checks) in
  let row j =
    let t = wall_at j in
    let ejobs = Dp.effective_jobs j in
    Printf.printf
      "parallel search jobs=%d (effective %d)  %d shapes in %s, median of %d \
       (speedup %.2fx)\n"
      j ejobs (Array.length ops)
      (Mikpoly_util.Table.fmt_time_us t)
      reps (t1 /. t);
    Json.Obj
      [
        ("jobs", Json.Number (float_of_int j));
        ("effective_jobs", Json.Number (float_of_int ejobs));
        ("wall_seconds", Json.Number t);
        ("speedup_vs_jobs1", Json.Number (t1 /. t));
        ("programs_identical", Json.Bool (identical j));
      ]
  in
  let json =
    Json.Obj
      [
        ("suite", Json.String "table3_gemm");
        ("shapes", Json.Number (float_of_int (Array.length ops)));
        ("reps", Json.Number (float_of_int reps));
        ( "recommended_domains",
          Json.Number (float_of_int (Domain.recommended_domain_count ())) );
        ( "gate",
          Json.Obj
            [
              ( "mode",
                Json.String
                  (if multicore then "multicore_speedup"
                   else "single_core_fallback") );
              ( "checks",
                Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) checks) );
              ("passed", Json.Bool passed);
            ] );
        ("sweep", Json.List (List.map row job_counts));
      ]
  in
  Out_channel.with_open_text "BENCH_parallel.json" (fun oc ->
      output_string oc (Json.to_string json));
  print_endline "wrote BENCH_parallel.json";
  let differ = List.filter (fun j -> not (identical j)) job_counts in
  List.iter
    (fun j -> Printf.eprintf "programs at jobs=%d differ from jobs=1\n" j)
    differ;
  List.iter
    (fun (check, v) ->
      if v = "failed" then
        Printf.eprintf "%s gate failed: %s (jobs1 %.4fs, jobs4 %.4fs, jobs8 %.4fs)\n"
          (if multicore then "speedup" else "single-core overhead")
          check t1 (wall_at 4) (wall_at 8))
    checks;
  if differ <> [] || not passed then exit 1
