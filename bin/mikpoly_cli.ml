(* Command-line driver: run paper-experiment reproductions or compile a
   single GEMM shape and inspect the chosen polymerization. *)

open Cmdliner

(* One process-wide jobs default: every subcommand sets it before doing
   work, and the search/tuning/serving layers inherit it through
   [Domain_pool.resolve_jobs] (Config.search_jobs = 0). *)
let set_jobs jobs =
  if jobs < 0 then (
    Printf.eprintf "bad --jobs: %d (expected 0 = auto or a positive count)\n" jobs;
    exit 2);
  Mikpoly_util.Domain_pool.set_default_jobs
    (if jobs = 0 then Mikpoly_util.Domain_pool.recommended_jobs () else jobs)

(* Process-wide PRNG seed default: subcommands with a --seed flag set it
   before building traces, and every [Prng.default_seed ~fallback] call
   site (serving traces, the drift scenario) picks it up. *)
let set_seed = function
  | None -> ()
  | Some seed when seed < 0 ->
    Printf.eprintf "bad --seed: %d (expected a non-negative integer)\n" seed;
    exit 2
  | Some seed -> Mikpoly_util.Prng.set_default_seed seed

(* Write a subcommand's JSON report to [out], then exit 1 — after
   printing each failed gate to stderr — unless every gate holds. *)
let write_and_gate ~out ~prefix json gates =
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Mikpoly_telemetry.Json.to_string json));
  Printf.printf "wrote %s\n" out;
  if Mikpoly_experiments.Exp.report_failed_gates ~prefix gates then 0 else 1

(* The tail every gated experiment subcommand shares: print the report
   (its tables as CSV with --csv), then write its JSON and gate. *)
let report_tail ~csv ~out ~prefix (report : Mikpoly_experiments.Exp.report)
    json gates =
  if csv then
    List.iter
      (fun t -> print_endline (Mikpoly_util.Table.to_csv t))
      report.Mikpoly_experiments.Exp.tables
  else print_string (Mikpoly_experiments.Exp.render report);
  write_and_gate ~out ~prefix json gates

let run_experiments jobs seed adapt ids quick csv =
  set_jobs jobs;
  set_seed seed;
  Mikpoly_experiments.Exp_serving.with_adaptation := adapt;
  let experiments =
    match ids with
    | [] -> Mikpoly_experiments.Registry.all
    | ids ->
      List.map
        (fun id ->
          match Mikpoly_experiments.Registry.find id with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %S; available: %s\n" id
              (String.concat ", " Mikpoly_experiments.Registry.ids);
            exit 2)
        ids
  in
  List.iter
    (fun (e : Mikpoly_experiments.Exp.t) ->
      let report = e.run ~quick in
      if csv then
        List.iter
          (fun t -> print_endline (Mikpoly_util.Table.to_csv t))
          report.tables
      else print_endline (Mikpoly_experiments.Exp.render report))
    experiments;
  0

let list_experiments () =
  List.iter
    (fun (e : Mikpoly_experiments.Exp.t) ->
      Printf.printf "%-12s %s\n             paper: %s\n" e.id e.title e.paper_claim)
    Mikpoly_experiments.Registry.all;
  0

let compile_shape jobs m n k npu =
  set_jobs jobs;
  if m < 1 || n < 1 || k < 1 then begin
    Printf.eprintf "compile: need -m, -n and -k >= 1 (got %d, %d, %d)\n" m n k;
    exit 2
  end;
  let hw = if npu then Mikpoly_accel.Hardware.ascend910 else Mikpoly_accel.Hardware.a100 in
  let compiler = Mikpoly_core.Compiler.create hw in
  let op = Mikpoly_ir.Operator.gemm ~m ~n ~k () in
  let compiled = Mikpoly_core.Compiler.compile compiler op in
  let sim = Mikpoly_core.Compiler.simulate compiler compiled in
  Printf.printf "%s\n" (Mikpoly_ir.Program.to_string compiled.program);
  Printf.printf
    "pattern: %s   candidates: %d (pruned %d bound, %d analytic)   search: %s\n"
    (Mikpoly_core.Pattern.to_string compiled.pattern)
    compiled.candidates compiled.pruned compiled.pruned_analytic
    (Mikpoly_util.Table.fmt_time_us compiled.search_seconds);
  Printf.printf "device time: %s   %.1f TFLOPS   sm_eff %.1f%%   waves %.0f\n"
    (Mikpoly_util.Table.fmt_time_us sim.seconds)
    (Mikpoly_accel.Simulator.tflops sim
       ~useful_flops:(Mikpoly_ir.Operator.flops op))
    (100. *. sim.sm_efficiency) sim.waves;
  0

let offline jobs npu save load_path =
  set_jobs jobs;
  let hw = if npu then Mikpoly_accel.Hardware.ascend910 else Mikpoly_accel.Hardware.a100 in
  let config = Mikpoly_core.Config.default hw in
  let set =
    match load_path with
    | Some path -> (
      match Mikpoly_core.Kernel_store.load ~path hw config with
      | Ok set ->
        Printf.printf "loaded kernel set from %s\n" path;
        set
      | Error e ->
        Printf.eprintf "cannot load %s: %s\n" path e;
        exit 1)
    | None -> Mikpoly_core.Kernel_set.create hw config
  in
  (match save with
  | Some path ->
    Mikpoly_core.Kernel_store.save ~path config set;
    Printf.printf "saved kernel set to %s\n" path
  | None -> ());
  let table =
    Mikpoly_util.Table.create ~title:("offline kernel set for " ^ hw.name)
      ~header:[ "rank"; "kernel"; "warps"; "blocks/PE"; "wave cap"; "score" ]
  in
  Array.iter
    (fun (e : Mikpoly_core.Kernel_set.entry) ->
      Mikpoly_util.Table.add_row table
        [
          string_of_int e.rank;
          Mikpoly_accel.Kernel_desc.name e.desc;
          string_of_int (Mikpoly_accel.Kernel_model.warps hw e.desc);
          string_of_int (Mikpoly_accel.Kernel_model.blocks_per_pe hw e.desc);
          string_of_int e.wave_capacity;
          Printf.sprintf "%.3f" e.rank_score;
        ])
    set.entries;
  print_endline (Mikpoly_util.Table.render table);
  0

let show_patterns m n =
  (* Render each pattern's region decomposition as a coarse grid. *)
  let width = 32 and height = 12 in
  List.iter
    (fun p ->
      let cuts =
        match Mikpoly_core.Pattern.arity p with
        | 0 -> []
        | 1 -> (
          match p with
          | Mikpoly_core.Pattern.II -> [ (m * 3 / 4) - (m * 3 / 4 mod 1) ]
          | _ -> [ n * 3 / 4 ])
        | _ -> (
          match p with
          | Mikpoly_core.Pattern.VII -> [ m / 2; m * 3 / 4 ]
          | Mikpoly_core.Pattern.VIII -> [ n / 2; n * 3 / 4 ]
          | _ -> [ m * 3 / 4; n * 3 / 4 ])
      in
      match Mikpoly_core.Pattern.decompose p ~m ~n ~cuts with
      | None -> Printf.printf "%s: (degenerate for %dx%d)\n" (Mikpoly_core.Pattern.to_string p) m n
      | Some rects ->
        Printf.printf "%s:\n" (Mikpoly_core.Pattern.to_string p);
        for row = 0 to height - 1 do
          print_string "  ";
          for col = 0 to width - 1 do
            let i = row * m / height and j = col * n / width in
            let region =
              List.find_map
                (fun idx ->
                  let r = List.nth rects idx in
                  if i >= r.Mikpoly_core.Pattern.row_off
                     && i < r.row_off + r.rows
                     && j >= r.col_off
                     && j < r.col_off + r.cols
                  then Some idx
                  else None)
                (List.init (List.length rects) Fun.id)
            in
            print_char
              (match region with
              | Some idx -> Char.chr (Char.code 'A' + idx)
              | None -> '?')
          done;
          print_newline ()
        done;
        print_newline ())
    Mikpoly_core.Pattern.all;
  0

let verify count npu =
  if count < 1 then begin
    Printf.eprintf "bad --count: %d (expected >= 1)\n" count;
    exit 2
  end;
  let hw = if npu then Mikpoly_accel.Hardware.ascend910 else Mikpoly_accel.Hardware.a100 in
  let compiler = Mikpoly_core.Compiler.create hw in
  match Mikpoly_core.Selfcheck.check_random_shapes compiler ~count with
  | Ok n ->
    Printf.printf "OK: %d random shapes compiled, executed and matched the reference GEMM\n" n;
    0
  | Error f ->
    let m, n, k = f.shape in
    Printf.eprintf "FAILED at (%d,%d,%d): max |diff| = %g\n  %s\n" m n k
      f.max_abs_diff f.program;
    1

let serve jobs seed quick csv npu adapt_on replicas requests rate cache bucket
    batcher max_batch window =
  set_jobs jobs;
  set_seed seed;
  let open Mikpoly_serve in
  let hw =
    if npu then Mikpoly_accel.Hardware.ascend910 else Mikpoly_accel.Hardware.a100
  in
  let bucketing =
    match Bucketing.of_string bucket with
    | Ok p -> p
    | Error e ->
      Printf.eprintf "bad --bucket: %s\n" e;
      exit 2
  in
  let batcher =
    match batcher with
    | "greedy" -> Batcher.Greedy { max_batch }
    | "timeout" -> Batcher.Timeout { max_batch; window }
    | "slo" | "slo-aware" -> Batcher.Slo_aware { max_batch }
    | s ->
      Printf.eprintf "bad --batcher %S (greedy|timeout|slo)\n" s;
      exit 2
  in
  let count =
    match requests with Some n -> n | None -> if quick then 16 else 96
  in
  if replicas < 1 || count < 1 || cache < 0 || max_batch < 1
     || not (rate > 0.) || not (window >= 0.)
  then begin
    Printf.eprintf
      "serve: need --replicas >= 1, --requests >= 1, --cache >= 0, \
       --max-batch >= 1, --rate > 0 and --window >= 0\n";
    exit 2
  end;
  let trace =
    Request.poisson
      ~seed:(Mikpoly_util.Prng.default_seed ~fallback:0x5E2 ())
      ~rate ~count
      ~max_prompt:(if quick then 64 else 256)
      ~max_output:(if quick then 8 else 48)
      ()
  in
  let compiler = Mikpoly_core.Compiler.create hw in
  let adapter =
    if adapt_on then Some (Mikpoly_adapt.Adapter.create compiler) else None
  in
  let adapt =
    Option.map (fun a () -> Mikpoly_adapt.Adapter.drain_stall_seconds a) adapter
  in
  let engine = Scheduler.mikpoly_engine compiler in
  let config = { Scheduler.replicas; batcher; bucketing; cache_capacity = cache } in
  let baseline =
    {
      config with
      cache_capacity = 0;
      bucketing = Bucketing.Exact;
      batcher = Batcher.Greedy { max_batch };
    }
  in
  let table =
    Mikpoly_util.Table.create
      ~title:
        (Printf.sprintf "serve: %d req @ %g req/s on %s" count rate hw.name)
      ~header:Mikpoly_serve.Metrics.header
  in
  let measure label cfg =
    let o = Scheduler.run ?adapt cfg engine trace in
    let m = Metrics.of_outcome o in
    Mikpoly_util.Table.add_row table (Metrics.to_row ~label m);
    (m, o)
  in
  let label =
    Printf.sprintf "cache-%d %s %s" cache (Bucketing.name bucketing)
      (Batcher.name batcher)
  in
  let m, outcome = measure label config in
  let b, _ = measure "no-cache exact greedy" baseline in
  if csv then print_endline (Mikpoly_util.Table.to_csv table)
  else begin
    print_endline (Mikpoly_util.Table.render table);
    Printf.printf
      "p95 %s vs %s no-cache; compile stall %s vs %s; SLO attainment %.0f%% vs %.0f%%\n"
      (Mikpoly_util.Table.fmt_time_us m.Metrics.latency_p95)
      (Mikpoly_util.Table.fmt_time_us b.Metrics.latency_p95)
      (Mikpoly_util.Table.fmt_time_us m.Metrics.compile_stall_seconds)
      (Mikpoly_util.Table.fmt_time_us b.Metrics.compile_stall_seconds)
      (100. *. m.Metrics.slo_attainment)
      (100. *. b.Metrics.slo_attainment);
    (match adapter with
    | Some a ->
      let s = Mikpoly_adapt.Adapter.stats a in
      Printf.printf
        "adaptation: %d observations, %d drift event(s), adapt stall %s\n"
        s.Mikpoly_adapt.Adapter.observations
        s.Mikpoly_adapt.Adapter.drift_events
        (Mikpoly_util.Table.fmt_time_us m.Metrics.adapt_stall_seconds)
    | None -> ());
    print_endline
      (Mikpoly_util.Table.render (Metrics.cache_table ~replicas outcome));
    print_string (Mikpoly_telemetry.Report.telemetry_section ())
  end;
  0

(* Drive the drift scenario end to end: serve an observation trace through
   an adapter-instrumented compiler, degrade the execution device halfway,
   and report detection latency, cache invalidation, recompilation and
   ranking quality before/after calibration. *)
let adapt jobs seed quick csv npu severity trace_len save_path =
  set_jobs jobs;
  set_seed seed;
  let open Mikpoly_adapt in
  if severity < 0. || severity >= 1. then begin
    Printf.eprintf "bad --severity: %g (expected 0 <= s < 1)\n" severity;
    exit 2
  end;
  let trace_len =
    match trace_len with Some n -> n | None -> if quick then 24 else 48
  in
  if trace_len < 2 then begin
    Printf.eprintf "bad --trace: %d (expected >= 2)\n" trace_len;
    exit 2
  end;
  let hw =
    if npu then Mikpoly_accel.Hardware.ascend910 else Mikpoly_accel.Hardware.a100
  in
  let compiler = Mikpoly_core.Compiler.create hw in
  let r =
    Scenario.run
      ~seed:(Mikpoly_util.Prng.default_seed ~fallback:0xADA ())
      ~severity
      ~trace:trace_len
      compiler
  in
  let stats = Adapter.stats r.adapter in
  let table =
    Mikpoly_util.Table.create
      ~title:
        (Printf.sprintf "adapt: %d-step trace on %s, drift severity %g"
           r.trace_length hw.name severity)
      ~header:[ "metric"; "stale"; "calibrated" ]
  in
  Mikpoly_util.Table.add_row table
    [
      "Kendall tau (held-out)";
      Printf.sprintf "%.4f" r.before.tau;
      Printf.sprintf "%.4f" r.after.tau;
    ];
  Mikpoly_util.Table.add_row table
    [
      "top-1 regret";
      Printf.sprintf "%.2f%%" (100. *. r.before.top1_regret);
      Printf.sprintf "%.2f%%" (100. *. r.after.top1_regret);
    ];
  if csv then print_endline (Mikpoly_util.Table.to_csv table)
  else begin
    print_endline (Mikpoly_util.Table.render table);
    Printf.printf
      "drift: %d event(s), detected %d observation(s) after injection; %d \
       program(s) invalidated, %d hot shape(s) recompiled (%s stall), %d \
       kernel(s) calibrated\n"
      stats.Adapter.drift_events r.reaction_observations
      stats.Adapter.invalidated stats.Adapter.recompiles
      (Mikpoly_util.Table.fmt_time_us r.stall_seconds)
      stats.Adapter.calibrated_kernels
  end;
  (match save_path with
  | Some path ->
    Adapter.save_profile r.adapter ~path;
    Printf.printf "saved calibration profile to %s\n" path
  | None -> ());
  if stats.Adapter.drift_events < 1 then begin
    Printf.eprintf "adaptation failed: the drift detector never fired\n";
    1
  end
  else 0

(* Seeded chaos run: the canonical resilience A/B (one fault plan, two
   serving arms) plus the corrupted-kernel-store degradation-ladder
   demo, with the acceptance gates asserted hard. The JSON report
   contains only simulated quantities, so two runs with the same seed —
   at any --jobs count — must produce byte-identical files (checked by
   the CI chaos-smoke stage with cmp). *)
let chaos jobs seed quick csv out =
  set_jobs jobs;
  set_seed seed;
  let open Mikpoly_serve in
  let module E = Mikpoly_experiments.Exp_resilience in
  let hw = Mikpoly_accel.Hardware.a100 in
  let compiler = Mikpoly_core.Compiler.create hw in
  let ab, n_req = E.chaos_ab ~quick compiler in
  let table =
    Mikpoly_util.Table.create
      ~title:
        (Printf.sprintf "chaos: %d requests under fault plan seed %d" n_req
           ab.Resilience.faults.Mikpoly_fault.Plan.seed)
      ~header:(Metrics.header @ [ "injected"; "silent"; "digest" ])
  in
  let arm_row (a : Resilience.arm) =
    Metrics.to_row ~label:a.Resilience.arm_name a.Resilience.metrics
    @ [
        string_of_int a.Resilience.injected_faults;
        string_of_int a.Resilience.silent_losses;
        a.Resilience.status_digest;
      ]
  in
  Mikpoly_util.Table.add_row table (arm_row ab.Resilience.without_resilience);
  Mikpoly_util.Table.add_row table (arm_row ab.Resilience.with_resilience);
  let ladder, ladder_rows, ladder_req = E.ladder_table ~quick in
  let ladder_gate = E.ladder_gate ~requests:ladder_req ladder_rows in
  let json =
    let open Mikpoly_telemetry in
    E.ab_json ab ~requests:n_req
      [
        ( "ladder",
          Json.List
            (List.map
               (fun (name, served, safe_generic) ->
                 Json.Obj
                   [
                     ("store", Json.String name);
                     ("served", Json.Number (float_of_int served));
                     ("requests", Json.Number (float_of_int ladder_req));
                     (* The raw compile count varies with --jobs (the
                        concurrent precompile fans out over more shapes
                        than the lazy path touches), so the report keeps
                        only the jobs-invariant fact. *)
                     ("reached_safe_generic", Json.Bool (safe_generic > 0));
                   ])
               ladder_rows) );
        ("ladder_ok", Json.Bool ladder_gate.Mikpoly_experiments.Exp.gate_ok);
      ]
  in
  List.iter
    (fun t ->
      print_endline
        (if csv then Mikpoly_util.Table.to_csv t else Mikpoly_util.Table.render t))
    [ table; ladder ];
  write_and_gate ~out ~prefix:"chaos failed" json (E.gates ab @ [ ladder_gate ])

(* Whole-model graph serving: rewrite passes, memory planning and
   pipelined compile/execute per model, plus the whole-graph vs
   per-operator serving A/B, with the acceptance gates asserted hard.
   The JSON report contains only simulated quantities, so two runs — at
   any --jobs count — must produce byte-identical files (checked by the
   CI graph-smoke stage with cmp). *)
let graph jobs quick csv out =
  set_jobs jobs;
  let module E = Mikpoly_experiments.Exp_graph in
  let compiler = Mikpoly_experiments.Backends.gpu () in
  let runs = E.model_runs ~quick compiler in
  let serving = E.serving_ab ~quick compiler in
  report_tail ~csv ~out ~prefix:"graph gate failed" (E.report runs serving)
    (E.json ~quick runs serving) (E.gates runs serving)

(* Multi-tenant fleet serving: the WFQ / coalescing / warm-store /
   autoscaler ladder against the tenant-blind scheduler on a heavy-tail
   multi-tenant trace, with the acceptance gates asserted hard. The JSON
   report contains only simulated quantities, so two runs — at any
   --jobs count — must produce byte-identical files (checked by the CI
   fleet-smoke stage with cmp). With --store, the compiler warm-loads
   its kernel set from a Kernel_store artifact and precompiles every
   admissible bucket program before serving starts. *)
let fleet jobs quick csv out store =
  set_jobs jobs;
  let module E = Mikpoly_experiments.Exp_fleet in
  let hw = Mikpoly_accel.Hardware.a100 in
  let compiler =
    match store with
    | None -> Mikpoly_core.Compiler.create hw
    | Some path ->
      ignore
        (Mikpoly_core.Kernel_store.load_or_create ~path hw
           (Mikpoly_core.Config.default hw));
      let compiler, degraded =
        Mikpoly_core.Compiler.create_resilient ~store_path:path hw
      in
      (match degraded with
      | Some reason ->
        Printf.eprintf "fleet: store %s unusable (%s); safe mode\n" path
          reason
      | None -> Printf.printf "fleet: kernel set loaded from %s\n" path);
      let open Mikpoly_serve in
      let engine = Scheduler.mikpoly_engine compiler in
      let max_prompt = if quick then 64 else 256 in
      let rec buckets b = if b > max_prompt then [] else b :: buckets (b * 2) in
      let shapes =
        List.sort_uniq compare
          (List.concat_map
             (fun b -> List.map fst (engine.Scheduler.step_shapes ~tokens:b))
             (buckets 1))
      in
      let fresh = Mikpoly_core.Compiler.warm compiler shapes in
      Printf.printf "fleet: warmed %d bucket programs (%d compiled fresh)\n"
        (List.length shapes) fresh;
      compiler
  in
  let r = E.results ~quick compiler in
  report_tail ~csv ~out ~prefix:"fleet gate failed" (E.report r) (E.json r)
    (E.gates r)

(* Heterogeneous mixed GPU+NPU fleet serving: device-class-keyed
   stores, cost-model routing, the per-class health plane (breaker,
   brown-out ladder, hedged dispatch) against the equal-PE
   single-backend fleets and the chaos pair, with the acceptance gates
   asserted hard. The JSON report contains only simulated quantities,
   so two runs — at any --jobs count — must produce byte-identical
   files (checked by the CI hetero-smoke stage with cmp). *)
let hetero jobs quick csv out =
  set_jobs jobs;
  let module E = Mikpoly_experiments.Exp_hetero in
  let r = E.results ~quick in
  report_tail ~csv ~out ~prefix:"hetero gate failed" (E.report r) (E.json r)
    (E.gates r)

(* Train and evaluate the learned candidate ranker offline (lib/rank):
   harvest simulator observations on both platforms, fit the
   gradient-boosted model and the calibrated-Eq.-2 baseline from the
   same examples, compare Kendall tau / top-1 regret on held-out shapes
   and check GPU->NPU transfer, with the acceptance gates asserted hard.
   The JSON report contains only simulated quantities, so two runs — at
   any --jobs count — must produce byte-identical files (checked by the
   CI rank-smoke stage with cmp). *)
let rank jobs seed quick csv out =
  set_jobs jobs;
  set_seed seed;
  let module E = Mikpoly_experiments.Exp_rank in
  let r = E.results ~quick in
  report_tail ~csv ~out ~prefix:"rank gate failed" (E.report r) (E.json r)
    (E.gates r)

(* Run a target under the span tracer and export the observability
   artifacts: a Chrome/Perfetto trace, the flat profile and the metrics
   registry. "serve" drives the full stack (offline tuning at compiler
   creation, online polymerization and device simulation inside the
   engine, the serving scheduler on top); any experiment id profiles
   that reproduction instead. *)
let profile jobs target quick npu trace_out top csv_metrics =
  set_jobs jobs;
  let open Mikpoly_telemetry in
  Tracer.reset ();
  Metrics.reset ();
  Tracer.enable ();
  let status =
    match target with
    | "serve" ->
      let hw =
        if npu then Mikpoly_accel.Hardware.ascend910
        else Mikpoly_accel.Hardware.a100
      in
      let compiler = Mikpoly_core.Compiler.create hw in
      let engine = Mikpoly_serve.Scheduler.mikpoly_engine compiler in
      let count = if quick then 16 else 96 in
      let trace =
        Mikpoly_serve.Request.poisson ~seed:0x5E2 ~rate:30. ~count
          ~max_prompt:(if quick then 64 else 256)
          ~max_output:(if quick then 8 else 48)
          ()
      in
      let config =
        {
          Mikpoly_serve.Scheduler.replicas = 2;
          batcher = Mikpoly_serve.Batcher.Greedy { max_batch = 32 };
          bucketing = Mikpoly_serve.Bucketing.Aligned 8;
          cache_capacity = 64;
        }
      in
      let outcome =
        Tracer.with_span "profile.serve" (fun () ->
            Mikpoly_serve.Scheduler.run config engine trace)
      in
      Printf.printf "profiled serve on %s: %d completed, %d steps, makespan %.3fs\n"
        hw.name
        (List.length outcome.Mikpoly_serve.Scheduler.completed)
        outcome.steps outcome.makespan;
      0
    | id -> (
      match Mikpoly_experiments.Registry.find id with
      | Some e ->
        let report = Mikpoly_experiments.Exp.run_traced e ~quick in
        print_endline (Mikpoly_experiments.Exp.render report);
        0
      | None ->
        Printf.eprintf "unknown profile target %S (serve or one of: %s)\n" id
          (String.concat ", " Mikpoly_experiments.Registry.ids);
        2)
  in
  Tracer.disable ();
  if status <> 0 then status
  else begin
    (match trace_out with
    | Some path ->
      let n = Export_chrome.write ~path () in
      Printf.printf
        "wrote %d spans to %s (open in chrome://tracing or ui.perfetto.dev)\n" n
        path
    | None -> ());
    print_string (Report.telemetry_section ~top ());
    if csv_metrics then print_string (Export_csv.of_registry ());
    0
  end

let validate_trace path =
  let open Mikpoly_telemetry in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e ->
    Printf.eprintf "cannot read %s: %s\n" path e;
    1
  | contents -> (
    match Json.parse contents with
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      1
    | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List (_ :: _ as events)) ->
        let spans =
          List.filter
            (fun ev -> Json.member "ph" ev = Some (Json.String "X"))
            events
        in
        if spans = [] then begin
          Printf.eprintf "%s: no complete ('X') span events\n" path;
          1
        end
        else begin
          Printf.printf "%s: valid Chrome trace, %d events (%d spans)\n" path
            (List.length events) (List.length spans);
          0
        end
      | _ ->
        Printf.eprintf "%s: missing or empty traceEvents\n" path;
        1))

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Subsample heavy workloads.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel polymerization search, offline \
           tuning and serving precompile (0 = auto-detect, capped at 8; 1 \
           = sequential). The chosen programs are identical for every \
           value.")

let csv_flag = Arg.(value & flag & info [ "csv" ] ~doc:"Emit tables as CSV.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Seed the deterministic PRNG streams (request traces, drift \
           scenario shapes). Runs with the same seed are bit-identical; \
           negative values are rejected.")

let adapt_flag =
  Arg.(
    value & flag
    & info [ "adapt" ]
        ~doc:
          "Attach the online adaptation loop (lib/adapt): observe \
           prediction residuals, detect drift and charge recompilations \
           on the serving event clock.")

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids (default: all).")

let run_cmd =
  let doc = "Run paper-experiment reproductions" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_experiments $ jobs_arg $ seed_arg $ adapt_flag $ ids_arg
      $ quick_flag $ csv_flag)

let list_cmd =
  let doc = "List available experiments" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_experiments $ const ())

let compile_cmd =
  let doc = "Polymerize a single GEMM shape and report the chosen program" in
  let m = Arg.(required & opt (some int) None & info [ "m" ] ~docv:"M") in
  let n = Arg.(required & opt (some int) None & info [ "n" ] ~docv:"N") in
  let k = Arg.(required & opt (some int) None & info [ "k" ] ~docv:"K") in
  let npu = Arg.(value & flag & info [ "npu" ] ~doc:"Target the NPU model.") in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(const compile_shape $ jobs_arg $ m $ n $ k $ npu)

let offline_cmd =
  let doc = "Run (or load) the offline stage and print the tuned kernel set" in
  let npu = Arg.(value & flag & info [ "npu" ] ~doc:"Target the NPU model.") in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Persist the kernel set to FILE.")
  in
  let load =
    Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE"
           ~doc:"Load the kernel set from FILE instead of tuning.")
  in
  Cmd.v (Cmd.info "offline" ~doc)
    Term.(const offline $ jobs_arg $ npu $ save $ load)

let patterns_cmd =
  let doc = "Visualize the nine polymerization patterns (Figure 5)" in
  let m = Arg.(value & opt int 1024 & info [ "m" ] ~docv:"M") in
  let n = Arg.(value & opt int 1024 & info [ "n" ] ~docv:"N") in
  Cmd.v (Cmd.info "patterns" ~doc) Term.(const show_patterns $ m $ n)

let serve_cmd =
  let doc = "Simulate an SLO-aware serving deployment over a request stream" in
  let npu = Arg.(value & flag & info [ "npu" ] ~doc:"Target the NPU model.") in
  let replicas =
    Arg.(value & opt int 2 & info [ "replicas" ] ~docv:"N" ~doc:"Engine replicas.")
  in
  let requests =
    Arg.(
      value
      & opt (some int) None
      & info [ "requests" ] ~docv:"N"
          ~doc:"Trace length (default 96, or 16 with --quick).")
  in
  let rate =
    Arg.(value & opt float 30. & info [ "rate" ] ~docv:"R"
           ~doc:"Mean arrival rate, requests/second.")
  in
  let cache =
    Arg.(value & opt int 64 & info [ "cache" ] ~docv:"N"
           ~doc:"Per-replica compiled-program cache capacity (0 disables).")
  in
  let bucket =
    Arg.(value & opt string "aligned-8" & info [ "bucket" ] ~docv:"POLICY"
           ~doc:"Token bucketing: exact, pow2, aligned-<q> or fixed-<c>.")
  in
  let batcher =
    Arg.(value & opt string "greedy" & info [ "batcher" ] ~docv:"POLICY"
           ~doc:"Admission: greedy, timeout or slo.")
  in
  let max_batch =
    Arg.(value & opt int 32 & info [ "max-batch" ] ~docv:"N"
           ~doc:"Maximum in-flight batch per replica.")
  in
  let window =
    Arg.(value & opt float 8e-3 & info [ "window" ] ~docv:"SECONDS"
           ~doc:"Batching window for --batcher timeout.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ jobs_arg $ seed_arg $ quick_flag $ csv_flag $ npu
      $ adapt_flag $ replicas $ requests $ rate $ cache $ bucket $ batcher
      $ max_batch $ window)

let adapt_cmd =
  let doc =
    "Run the online-calibration drift scenario: observe, detect, \
     recalibrate, recompile"
  in
  let npu = Arg.(value & flag & info [ "npu" ] ~doc:"Target the NPU model.") in
  let severity =
    Arg.(
      value & opt float 0.35
      & info [ "severity" ] ~docv:"S"
          ~doc:"Drift severity injected at the trace midpoint (0 <= S < 1).")
  in
  let trace_len =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace" ] ~docv:"N"
          ~doc:"Observation-trace length (default 48, or 24 with --quick).")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Persist the fitted calibration profile to FILE.")
  in
  Cmd.v (Cmd.info "adapt" ~doc)
    Term.(
      const adapt $ jobs_arg $ seed_arg $ quick_flag $ csv_flag $ npu
      $ severity $ trace_len $ save)

let chaos_cmd =
  let doc =
    "Run the seeded chaos A/B (one fault plan, serving with and without \
     resilience) plus the corrupted-store degradation-ladder check, and \
     write a machine-readable report"
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_resilience.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Report file. Contains only simulated quantities, so runs with \
             the same seed are byte-identical at any $(b,--jobs) count.")
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const chaos $ jobs_arg $ seed_arg $ quick_flag $ csv_flag $ out)

let graph_cmd =
  let doc =
    "Run the whole-model graph-serving pipeline (typed operator DAGs, \
     rewrite passes, memory planning, pipelined compile/execute, and the \
     whole-graph vs per-operator serving A/B) and write a machine-readable \
     report"
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_graph.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Report file. Contains only simulated quantities, so runs are \
             byte-identical at any $(b,--jobs) count.")
  in
  Cmd.v (Cmd.info "graph" ~doc)
    Term.(const graph $ jobs_arg $ quick_flag $ csv_flag $ out)

let fleet_cmd =
  let doc =
    "Run the multi-tenant continuous-batching fleet (weighted fair \
     queueing, shape-aware coalescing, learned warm store, \
     telemetry-driven autoscaling) against the tenant-blind scheduler \
     and write a machine-readable report"
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_fleet.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Report file. Contains only simulated quantities, so runs are \
             byte-identical at any $(b,--jobs) count.")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Warm-load the compiler's kernel set from this Kernel_store \
             artifact (created on first use) and precompile every \
             admissible bucket program before serving.")
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(const fleet $ jobs_arg $ quick_flag $ csv_flag $ out $ store)

let hetero_cmd =
  let doc =
    "Run the heterogeneous mixed GPU+NPU fleet (device-class kernel \
     stores, cost-model routing, per-class circuit breaker, brown-out \
     ladder, hedged dispatch) against equal-PE single-backend fleets \
     and the chaos failover A/B, and write a machine-readable report"
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_hetero.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Report file. Contains only simulated quantities, so runs are \
             byte-identical at any $(b,--jobs) count.")
  in
  Cmd.v (Cmd.info "hetero" ~doc)
    Term.(const hetero $ jobs_arg $ quick_flag $ csv_flag $ out)

let rank_cmd =
  let doc =
    "Train the learned candidate ranker offline from simulator \
     observations, compare it against calibrated Equation 2 on held-out \
     shapes (both fingerprints), check GPU->NPU transfer, and write a \
     machine-readable report"
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_rank.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Report file. Contains only simulated quantities, so runs are \
             byte-identical at any $(b,--jobs) count.")
  in
  Cmd.v (Cmd.info "rank" ~doc)
    Term.(const rank $ jobs_arg $ seed_arg $ quick_flag $ csv_flag $ out)

let verify_cmd =
  let doc = "Numerically verify compiled programs against the reference GEMM" in
  let count = Arg.(value & opt int 25 & info [ "count" ] ~docv:"N") in
  let npu = Arg.(value & flag & info [ "npu" ] ~doc:"Target the NPU model.") in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const verify $ count $ npu)

let profile_cmd =
  let doc =
    "Profile a serving run or an experiment under the span tracer and \
     export a Chrome/Perfetto trace plus a flat profile"
  in
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:"What to profile: $(b,serve) or an experiment id (see $(b,list)).")
  in
  let npu = Arg.(value & flag & info [ "npu" ] ~doc:"Target the NPU model.") in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace_event JSON file (chrome://tracing, \
                ui.perfetto.dev).")
  in
  let top =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N" ~doc:"Profile rows to print.")
  in
  let csv_metrics =
    Arg.(
      value & flag
      & info [ "csv-metrics" ] ~doc:"Also dump the metrics registry as CSV.")
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const profile $ jobs_arg $ target $ quick_flag $ npu $ trace_out $ top
      $ csv_metrics)

let validate_trace_cmd =
  let doc = "Check that FILE is a well-formed, non-empty Chrome trace" in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trace file written by $(b,profile).")
  in
  Cmd.v (Cmd.info "validate-trace" ~doc) Term.(const validate_trace $ path)

let main =
  let doc = "MikPoly dynamic-shape tensor compiler (simulated reproduction)" in
  Cmd.group (Cmd.info "mikpoly_cli" ~doc)
    [ run_cmd; list_cmd; compile_cmd; offline_cmd; patterns_cmd; serve_cmd;
      adapt_cmd; chaos_cmd; graph_cmd; fleet_cmd; hetero_cmd; rank_cmd;
      verify_cmd;
      profile_cmd; validate_trace_cmd ]

(* A file named on the command line that cannot be written is a bad
   argument, not an internal error: one line on stderr and exit 2, the
   same contract as every other rejected flag. Anything else keeps
   Cmdliner's internal-error report. *)
let () =
  match Cmd.eval' ~catch:false main with
  | code -> exit code
  | exception Sys_error e ->
    Printf.eprintf "mikpoly_cli: %s\n" e;
    exit 2
  | exception e ->
    Printf.eprintf "mikpoly_cli: internal error, uncaught exception: %s\n"
      (Printexc.to_string e);
    exit Cmd.Exit.internal_error
