(* Parallel-search benchmark: [Polymerize.search_batch] over the Table-3
   GEMM suite at jobs ∈ {1, 2, 4, 8}.

   Usage: main.exe [--quick]

   [search_batch] fans whole shapes (not per-pattern units) over the
   domain pool. Each job count keeps the fastest of its reps, and every
   chosen program must be byte-identical to the jobs=1 one. Writes
   BENCH_parallel.json: the host's [recommended_domains], per job count
   its [effective_jobs], wall and speedup, and the gate's mode and
   verdict.

   Gate: on a host with more than one effective worker, jobs=4 must beat
   jobs=1 outright (speedup > 1.0) and jobs=8 must not degrade below
   jobs=4. On a single-core host a speedup is physically impossible —
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

let () =
  let gpu = Mikpoly_experiments.Backends.gpu () in
  let kernels = Mikpoly_core.Compiler.kernels gpu in
  let config = Mikpoly_core.Compiler.config gpu in
  let ops =
    Mikpoly_workloads.Suite.table3_gemm ()
    |> List.filteri (fun i _ -> (not quick) || i mod 4 = 0)
    |> List.map (fun (c : Mikpoly_workloads.Gemm_case.t) ->
           Mikpoly_ir.Operator.gemm ~m:c.m ~n:c.n ~k:c.k ())
    |> Array.of_list
  in
  let batch jobs =
    Polymerize.search_batch ~instrument:false ~jobs kernels config ops
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
    let fingerprint (c : Polymerize.compiled) =
      Mikpoly_ir.Program.to_string c.program
    in
    (!wall, Array.map fingerprint !result)
  in
  let timed = List.map (fun j -> (j, sweep j)) job_counts in
  let wall_at j = fst (List.assoc j timed) in
  let identical j = snd (List.assoc j timed) = snd (List.assoc 1 timed) in
  let t1 = wall_at 1 in
  let multicore = Dp.effective_jobs 4 > 1 in
  let passed =
    if multicore then t1 /. wall_at 4 > 1.0 && wall_at 8 <= wall_at 4 *. 1.05
    else
      (* single core: the clamp must keep the batch machinery free —
         within 10% of plain sequential *)
      wall_at 4 <= t1 *. 1.10 && wall_at 8 <= t1 *. 1.10
  in
  let row j =
    let t = wall_at j in
    let ejobs = Dp.effective_jobs j in
    Printf.printf
      "parallel search jobs=%d (effective %d)  %d shapes in %s  (speedup %.2fx)\n"
      j ejobs (Array.length ops)
      (Mikpoly_util.Table.fmt_time_us t)
      (t1 /. t);
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
        ( "recommended_domains",
          Json.Number (float_of_int (Domain.recommended_domain_count ())) );
        ( "gate",
          Json.Obj
            [
              ( "mode",
                Json.String
                  (if multicore then "multicore_speedup"
                   else "single_core_fallback") );
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
  if not passed then
    Printf.eprintf "%s gate failed (jobs1 %.4fs, jobs4 %.4fs, jobs8 %.4fs)\n"
      (if multicore then "speedup" else "single-core overhead")
      t1 (wall_at 4) (wall_at 8);
  if differ <> [] || not passed then exit 1
