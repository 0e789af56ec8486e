(* Extension (robustness): a seeded chaos A/B over the serving stack.
   The same Poisson trace runs twice under the identical fault plan —
   transient step failures, straggler steps and a replica crash — once
   with the resilience machinery (retries with backoff, per-attempt
   timeouts) and once without. Because fault draws are stateless
   functions of the plan seed, the injected schedule is bit-identical in
   both arms, so the delta is exactly what resilience buys. Two side
   stages exercise the rest of the fault plane: the compile degradation
   ladder on a corrupted on-disk kernel store, and load-shedding
   admission under a bursty overload. *)

open Mikpoly_util
open Mikpoly_serve
module Plan = Mikpoly_fault.Plan
module Corrupt = Mikpoly_fault.Corrupt

(* Retry pacing matched to millisecond-scale engine steps: the default
   50 ms base delay would burn most requests' SLO budget on the first
   retry. The 1 s attempt timeout only catches pathological steps. *)
let chaos_resilience =
  {
    Scheduler.retry =
      {
        Mikpoly_fault.Retry.max_attempts = 4;
        base_delay = 2e-3;
        max_delay = 50e-3;
        jitter = 0.25;
      };
    attempt_timeout = 1.0;
    max_queue = 0;
    shed = `Reject_new;
  }

let serve_config =
  {
    Scheduler.replicas = 2;
    batcher = Batcher.Greedy { max_batch = 32 };
    bucketing = Bucketing.Aligned 8;
    cache_capacity = 64;
  }

let chaos_trace ~quick =
  Request.poisson
    ~seed:(Prng.default_seed ~fallback:0xFA17 ())
    ~rate:30.
    ~count:(if quick then 24 else 96)
    ~max_prompt:(if quick then 64 else 256)
    ~max_output:(if quick then 8 else 48)
    ()

(* The canonical chaos A/B, shared by this experiment and
   [mikpoly_cli chaos] so every gate judges the same scenario. *)
let chaos_ab ~quick compiler =
  let requests = chaos_trace ~quick in
  let horizon =
    List.fold_left (fun acc r -> Float.max acc (Request.deadline r)) 1. requests
  in
  let faults =
    Plan.scenario
      ~seed:(Prng.default_seed ~fallback:0xFA17 ())
      ~replicas:serve_config.Scheduler.replicas ~horizon ()
  in
  let engine = Scheduler.mikpoly_engine compiler in
  ( Resilience.run_ab ~resilience:chaos_resilience ~faults serve_config engine
      requests,
    List.length requests )

let arm_row (a : Resilience.arm) =
  Metrics.to_row ~label:a.arm_name a.metrics
  @ [ string_of_int a.injected_faults; string_of_int a.silent_losses ]

(* The chaos A/B as JSON — simulated quantities only, so the bytes are
   identical across runs and job counts — with [extra] fields after the
   two arms: the body of [mikpoly_cli chaos --out]. *)
let ab_json (ab : Resilience.ab) ~requests extra =
  let module J = Mikpoly_telemetry.Json in
  let arm name (a : Resilience.arm) =
    let m = a.metrics in
    ( name,
      J.Obj
        [
          ("slo_attainment", J.Number m.Metrics.slo_attainment);
          ("completed", J.Number (float_of_int m.Metrics.completed));
          ("failed", J.Number (float_of_int m.Metrics.failed));
          ("timed_out", J.Number (float_of_int m.Metrics.timed_out));
          ("retries", J.Number (float_of_int m.Metrics.retries));
          ("injected_faults", J.Number (float_of_int a.injected_faults));
          ("crashes", J.Number (float_of_int a.crashes));
          ("silent_losses", J.Number (float_of_int a.silent_losses));
          ("status_digest", J.String a.status_digest);
        ] )
  in
  J.Obj
    ([
       ("requests", J.Number (float_of_int requests));
       ("seed", J.Number (float_of_int ab.Resilience.faults.Plan.seed));
       arm "with_resilience" ab.Resilience.with_resilience;
       arm "without_resilience" ab.Resilience.without_resilience;
     ]
    @ extra)

(* The chaos A/B's acceptance gates: faults were injected in both arms,
   neither arm lost a request silently, and resilience strictly beats
   the unprotected arm on SLO attainment. *)
let gates (ab : Resilience.ab) =
  let on = ab.Resilience.with_resilience in
  let off = ab.Resilience.without_resilience in
  [
    {
      Exp.gate_name = "faults_injected";
      gate_ok = on.injected_faults > 0 && off.injected_faults > 0;
      gate_detail =
        Printf.sprintf "%d fault(s) injected with resilience, %d without"
          on.injected_faults off.injected_faults;
    };
    {
      Exp.gate_name = "no_silent_losses";
      gate_ok = Resilience.no_silent_losses ab;
      gate_detail =
        Printf.sprintf "silent losses: %d with resilience, %d without"
          on.silent_losses off.silent_losses;
    };
    {
      Exp.gate_name = "resilience_wins";
      gate_ok = Resilience.resilience_wins ab;
      gate_detail =
        Printf.sprintf "SLO attainment %.4f with resilience vs %.4f without"
          on.metrics.Metrics.slo_attainment off.metrics.Metrics.slo_attainment;
    };
  ]

(* Stage 2: corrupt the tuned kernel set on disk in every mode and show
   the ladder serving every request anyway from the safe generic rung. *)
let ladder_table ~quick =
  let hw = Mikpoly_accel.Hardware.a100 in
  let base = Backends.gpu () in
  let config = Mikpoly_core.Compiler.config base in
  let set = Mikpoly_core.Compiler.kernels base in
  let requests =
    Request.poisson
      ~seed:(Prng.default_seed ~fallback:0xFA17 ())
      ~rate:30.
      ~count:(if quick then 8 else 24)
      ~max_prompt:64 ~max_output:8 ()
  in
  let n_req = List.length requests in
  let table =
    Table.create ~title:"Compile degradation ladder vs kernel-store corruption"
      ~header:[ "store"; "load"; "served"; "safe-generic rung" ]
  in
  let serve_with compiler =
    let engine = Scheduler.mikpoly_engine compiler in
    let cfg = { serve_config with Scheduler.replicas = 1 } in
    let o = Scheduler.run cfg engine requests in
    List.length o.Scheduler.completed
  in
  let cases =
    ("intact", None)
    :: List.map (fun m -> (Corrupt.mode_name m, Some m)) Corrupt.all_modes
  in
  let rows =
    List.map
      (fun (name, mode) ->
        let path = Filename.temp_file "mikpoly_chaos_kernels" ".txt" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            Mikpoly_core.Kernel_store.save ~path config set;
            Option.iter (fun m -> Corrupt.file m ~seed:0xC0 ~path) mode;
            let compiler, err =
              Mikpoly_core.Compiler.create_resilient ~store_path:path hw
            in
            let served = serve_with compiler in
            let ladder = Mikpoly_core.Compiler.ladder_stats compiler in
            Table.add_row table
              [
                name;
                (match err with None -> "ok" | Some _ -> "rejected");
                Printf.sprintf "%d/%d" served n_req;
                (* Raw rung counters vary with the precompile fan-out width
                   (--jobs), so render only the jobs-invariant fact. *)
                (if ladder.Mikpoly_core.Compiler.safe_generic > 0 then "yes"
                 else "no");
              ];
            (name, served, ladder.Mikpoly_core.Compiler.safe_generic)))
      cases
  in
  (table, rows, n_req)

(* The ladder's gate over [ladder_table]'s rows: every store serves every
   request, and every corrupted store gets there on the safe generic
   rung. *)
let ladder_gate ~requests rows =
  {
    Exp.gate_name = "ladder_serves_all";
    gate_ok =
      List.for_all
        (fun (name, served, safe_generic) ->
          served = requests && (name = "intact" || safe_generic > 0))
        rows;
    gate_detail =
      "the degradation ladder lost requests (or never reached the safe \
       generic rung) on a corrupted kernel store";
  }

(* Stage 3: bursty overload against a bounded queue — shedding trades a
   few loud rejections for bounded latency on what it admits. *)
let overload_table ~quick engine =
  let requests =
    Request.bursty
      ~seed:(Prng.default_seed ~fallback:0xFA17 ())
      ~base_rate:10. ~burst_rate:400. ~period:2. ~duty:0.3
      ~count:(if quick then 48 else 160)
      ~max_prompt:(if quick then 64 else 256)
      ~max_output:(if quick then 8 else 32)
      ()
  in
  (* One small replica so the burst actually outruns service capacity
     and the waiting queue is what absorbs (or sheds) it. *)
  let config =
    {
      serve_config with
      Scheduler.replicas = 1;
      batcher = Batcher.Greedy { max_batch = 4 };
    }
  in
  let table =
    Table.create ~title:"Load shedding under a bursty overload"
      ~header:Metrics.header
  in
  let measure label resilience =
    let m =
      Metrics.of_outcome (Scheduler.run ?resilience config engine requests)
    in
    Table.add_row table (Metrics.to_row ~label m);
    (label, m)
  in
  let bounded shed =
    Some { Scheduler.default_resilience with max_queue = 4; shed }
  in
  let rows =
    [
      measure "unbounded queue" None;
      measure "queue<=4 reject-new" (bounded `Reject_new);
      measure "queue<=4 drop-oldest" (bounded `Drop_oldest);
    ]
  in
  (table, rows)

(* Device-level faults through the simulator: launch retries and a
   straggler PE only ever add cycles, deterministically per seed. *)
let device_line () =
  let hw = Mikpoly_accel.Hardware.a100 in
  let compiler = Backends.gpu () in
  let c =
    Mikpoly_core.Compiler.compile compiler
      (Mikpoly_ir.Operator.gemm ~m:768 ~n:768 ~k:768 ())
  in
  let load = Mikpoly_ir.Program.to_load c.Mikpoly_core.Polymerize.program in
  let clean = Mikpoly_accel.Simulator.run hw load in
  let faults =
    Mikpoly_fault.Device.make ~launch_fail_rate:0.25 ~straggler_rate:0.25
      ~seed:0xD1 ()
  in
  let faulty = Mikpoly_accel.Simulator.run ~faults hw load in
  Printf.sprintf
    "Device-level injection (25%% launch failures, 25%% stragglers) inflates a 768-cube GEMM from %.0f to %.0f cycles (+%.1f%%) without changing any task result — fault charges are stateless seed-keyed draws, so the penalty is identical however the simulation is ordered."
    clean.Mikpoly_accel.Simulator.cycles faulty.Mikpoly_accel.Simulator.cycles
    (100.
    *. ((faulty.Mikpoly_accel.Simulator.cycles
         /. clean.Mikpoly_accel.Simulator.cycles)
       -. 1.))

let run ~quick =
  let compiler = Backends.gpu () in
  let ab, n_req = chaos_ab ~quick compiler in
  let ab_table =
    Table.create ~title:"Chaos A/B: one fault plan, two serving arms"
      ~header:(Metrics.header @ [ "injected"; "silent" ])
  in
  Table.add_row ab_table (arm_row ab.Resilience.without_resilience);
  Table.add_row ab_table (arm_row ab.Resilience.with_resilience);
  let on = ab.Resilience.with_resilience and off = ab.Resilience.without_resilience in
  let ladder, ladder_rows, ladder_req = ladder_table ~quick in
  let overload, overload_rows = overload_table ~quick (Scheduler.mikpoly_engine compiler) in
  let degraded_served =
    List.filter_map
      (fun (name, served, _) -> if name = "intact" then None else Some served)
      ladder_rows
  in
  let shed_p95 = (List.assoc "queue<=4 reject-new" overload_rows).Metrics.latency_p95 in
  let open_p95 = (List.assoc "unbounded queue" overload_rows).Metrics.latency_p95 in
  let summary =
    [
      Printf.sprintf
        "Under %d injected faults (%d crash(es)) the resilient arm holds SLO attainment at %.0f%% vs %.0f%% without retries, losing %d request(s) loudly vs %d — and neither arm loses a request silently (%d/%d terminal statuses accounted)."
        on.Resilience.injected_faults on.Resilience.crashes
        (100. *. on.Resilience.metrics.Metrics.slo_attainment)
        (100. *. off.Resilience.metrics.Metrics.slo_attainment)
        (on.Resilience.metrics.Metrics.timed_out
        + on.Resilience.metrics.Metrics.failed)
        (off.Resilience.metrics.Metrics.timed_out
        + off.Resilience.metrics.Metrics.failed)
        n_req n_req;
      Printf.sprintf
        "Every corruption mode of the on-disk kernel set is rejected by the checksum/magic check and the compiler degrades to the guaranteed-safe generic kernel: %s of %d requests served on the last ladder rung in each degraded case."
        (String.concat "/"
           (List.map string_of_int degraded_served))
        ladder_req;
      Printf.sprintf
        "Bounded admission sheds the burst instead of queueing it: p95 %s with queue<=4 vs %s unbounded — overload becomes loud rejections, not silent latency."
        (Table.fmt_time_us shed_p95)
        (Table.fmt_time_us open_p95);
      device_line ();
    ]
  in
  {
    Exp.tables = [ ab_table; ladder; overload ];
    summary;
  }

let exp =
  {
    Exp.id = "resilience";
    title = "Fault injection and resilient serving (extension)";
    paper_claim =
      "Extension beyond the paper: on-the-fly polymerization must survive a faulty deployment — transient kernel failures, stragglers, replica crashes and corrupted artifact stores — without ever losing a request silently";
    run;
  }
