(* Heterogeneous mixed GPU+NPU fleet (lib/hetero) vs the best
   single-backend fleet of at-least-equal total PE count, on one mixed
   GEMM+conv multi-tenant trace, plus the chaos ladder:

     mixed         2 GPU + 3 NPU replicas (312 PEs), cost-model routing
     gpu-only      3 GPU replicas (324 PEs — never fewer PEs than mixed)
     npu-only      10 NPU replicas (320 PEs)
     chaos         mixed + a scheduled GPU-class outage, failover ON
     no-failover   the same outage with the breaker/hedge planes inert
     brownout      mixed + a GPU-class slowdown window (degraded ladder)

   The trace carries three tier profiles: gold and silver are
   interactive chat (small Pareto prompts, tight TTFT budgets that only
   the latency-strong GPU class can hold under load), best-effort is
   batch CNN inference (a log-uniform band of large conv jobs with
   loose deadlines that the NPU class's per-PE compute serves
   efficiently). The deadline-aware router sends each family where it
   fits — gpu-only drowns its latency class in batch convs, npu-only
   can never hold the interactive budgets, the mixed fleet holds both.

   The single-backend baselines get the NEXT multiple of their own
   replica granularity at or above the mixed fleet's PE count, so
   "mixed wins" is claimed against strictly stronger hardware budgets.
   Gates are the robustness headlines: mixed beats both single-backend
   arms on goodput, failover strictly beats no-failover on SLO
   attainment under the same outage, the breaker/hedge/ladder planes
   all demonstrably engage, and every arm conserves its terminal-status
   ledger (no admitted request silently lost — digests byte-stable). *)

open Mikpoly_util
open Mikpoly_serve
module H = Mikpoly_hetero.Hetero
module Backend = Mikpoly_hetero.Backend
module Health = Mikpoly_fleet.Health
module Engines = Mikpoly_hetero.Engines
module Tenant = Mikpoly_fleet.Tenant
module Ratelimit = Mikpoly_fleet.Ratelimit
module Plan = Mikpoly_fault.Plan
module Hardware = Mikpoly_accel.Hardware
module Mix = Mikpoly_workloads.Serving_mix

let max_batch = 8

let bucketing = Bucketing.Pow2

let cache_capacity = 64

(* The CNN/LLM split point of the mixed trace: bucketed prompts at or
   above this run the im2col conv stack, below it the Llama step. *)
let cnn_cut = 64

let gpu_backend ~replicas () =
  Backend.make ~hw:Hardware.a100 ~replicas
    (Engines.mixed_engine ~cnn_cut (Backends.gpu ()))

let npu_backend ~replicas () =
  Backend.make ~hw:Hardware.ascend910 ~replicas
    (Engines.mixed_engine ~cnn_cut (Backends.npu ()))

let mixed_backends () = [ gpu_backend ~replicas:2 (); npu_backend ~replicas:3 () ]

(* ceil(312 / 108) = 3 GPU replicas, ceil(312 / 32) = 10 NPU replicas:
   the smallest single-class fleets with at least the mixed PE count. *)
let gpu_only_backends () = [ gpu_backend ~replicas:3 () ]

let npu_only_backends () = [ npu_backend ~replicas:10 () ]

(* Overload, as in the fleet experiment: the interesting regime for
   routing is when placement mistakes turn into queueing delay — the
   aggregate arrival rate sits well above the gpu-only fleet's service
   capacity, so misplaced batch jobs turn directly into blown
   interactive deadlines. *)
let rate_mult = 50.

(* The chaos pair runs at nominal load instead: fault tolerance is
   measured where the surviving class has the slack failover needs —
   during fleet-wide overload there is nowhere to fail over TO, and
   waiting out a short outage genuinely beats re-routing. *)
let chaos_mult = 20.

(* The two request families, by tier profile. Gold and silver are
   interactive chat: small Pareto prompts (bucketed strictly below
   [cnn_cut], so they stay on the Llama path) and first-token budgets
   of 2-4 GPU steps — an NPU prefill alone eats 60% of the gold
   budget. Best-effort is batch CNN inference: a log-uniform band of
   large conv jobs, single-token output (the job IS the prefill), and
   deadlines loose enough to ride the throughput class. *)
let profiles = function
  | Tenant.Gold ->
    {
      Tenant.no_profile with
      Tenant.p_ttft = Some 0.015;
      p_max_prompt = Some 32;
      p_max_output = Some 8;
    }
  | Tenant.Silver ->
    {
      Tenant.no_profile with
      Tenant.p_ttft = Some 0.030;
      p_max_prompt = Some 32;
      p_max_output = Some 8;
    }
  | Tenant.Best_effort ->
    {
      Tenant.no_profile with
      Tenant.p_ttft = Some 0.25;
      p_max_prompt = Some 1024;
      p_max_output = Some 1;
      p_length_dist = Some (Request.Log_uniform_band { lo = 128 });
    }

let trace ~quick ~mult =
  Tenant.trace
    ~length_dist:(Request.Pareto { alpha = Mix.pareto_alpha })
    ~profiles
    ~seed:(Prng.default_seed ~fallback:0x4E7E60 ())
    ~max_prompt:32 ~max_output:8
    (Exp_fleet.tenant_specs ~total:(if quick then 48 else 84) ~mult)
    ()

(* Breaker and ladder timings sized to the compressed event clock of
   the overload trace: a class outage fails a handful of steps within
   a few milliseconds, and the cooldown must elapse while arrivals are
   still flowing so a half-open probe can re-close the class. *)
let health_config =
  {
    Health.default with
    Health.breaker =
      { Mikpoly_fault.Breaker.failure_threshold = 3; cooldown = 0.004 };
    min_dwell = 0.002;
  }

(* Token-bucket overload shedding at the door: the base (best-effort)
   bucket; gold gets 4x, silver 2x via the tier weights — under
   fleet-wide overload the batch tier is shed first, which is also the
   shedding order that protects the tight-deadline tiers. *)
let ratelimit ~quick =
  { Ratelimit.rl_rate = 150.; rl_burst = (if quick then 12. else 24.) }

let hetero_config ?hedge ?(failover = true) ?(quick = true) backends =
  {
    H.backends;
    batcher = Batcher.Slo_aware { max_batch };
    bucketing;
    cache_capacity;
    coalesce = true;
    health = health_config;
    degraded_max_tokens = cnn_cut - 1;
    hedge;
    failover;
    ratelimit = Some (ratelimit ~quick);
  }

(* The chaos plan: the GPU class (index 0 of the mixed fleet) goes dark
   through the busy middle of the nominal-load trace — long enough that
   waiting it out blows every interactive budget, ending while arrivals
   still flow so the half-open probe can re-close the class. Both chaos
   arms absorb the identical plan; only the failover planes differ. *)
let outage_plan ~quick =
  let start, stop = if quick then (0.006, 0.030) else (0.010, 0.050) in
  Plan.make
    ~outages:[ Plan.outage ~cls:0 ~start ~stop ]
    ~seed:(Prng.default_seed ~fallback:0x4E7E60 ())
    ()

(* The brown-out plan: the GPU class throttles to 4x step time for a
   window — enough to push the slowdown EWMA over the degrade-enter
   threshold, then recover below the exit threshold after it lifts. *)
let brownout_plan ~quick =
  let start, stop = if quick then (0.004, 0.014) else (0.006, 0.025) in
  Plan.make
    ~brownouts:[ Plan.brownout ~cls:0 ~start ~stop ~slowdown:4. ]
    ~seed:(Prng.default_seed ~fallback:0x4E7E60 ())
    ()

type results = {
  r_quick : bool;
  r_trace : Tenant.tagged list;
  r_mixed : H.outcome;
  r_gpu_only : H.outcome;
  r_npu_only : H.outcome;
  r_chaos : H.outcome;
  r_no_failover : H.outcome;
  r_brownout : H.outcome;
}

let metrics o = Metrics.of_outcome (H.to_scheduler_outcome o)

let results ~quick =
  let tagged = trace ~quick ~mult:rate_mult in
  let chaos_tagged = trace ~quick ~mult:chaos_mult in
  {
    r_quick = quick;
    r_trace = tagged;
    r_mixed = H.run (hetero_config ~quick (mixed_backends ())) tagged;
    r_gpu_only = H.run (hetero_config ~quick (gpu_only_backends ())) tagged;
    r_npu_only = H.run (hetero_config ~quick (npu_only_backends ())) tagged;
    r_chaos =
      H.run ~faults:(outage_plan ~quick)
        (hetero_config ~hedge:H.default_hedge ~quick (mixed_backends ()))
        chaos_tagged;
    r_no_failover =
      H.run ~faults:(outage_plan ~quick)
        (hetero_config ~failover:false ~quick (mixed_backends ()))
        chaos_tagged;
    r_brownout =
      H.run ~faults:(brownout_plan ~quick)
        (hetero_config ~quick (mixed_backends ()))
        tagged;
  }

(* --- Acceptance gates (asserted by the CLI subcommand) --- *)

let class_stat r name f =
  match
    List.find_opt (fun cs -> cs.H.cs_backend = name) r.H.o_classes
  with
  | Some cs -> f cs
  | None -> 0

let gates r =
  let m_mixed = metrics r.r_mixed in
  let m_gpu = metrics r.r_gpu_only in
  let m_npu = metrics r.r_npu_only in
  let m_chaos = metrics r.r_chaos in
  let m_nofail = metrics r.r_no_failover in
  let arms =
    [
      r.r_mixed; r.r_gpu_only; r.r_npu_only; r.r_chaos; r.r_no_failover;
      r.r_brownout;
    ]
  in
  let brown_gpu =
    List.find_opt
      (fun cs -> cs.H.cs_backend = "gpu")
      r.r_brownout.H.o_classes
  in
  [
    {
      Exp.gate_name = "mixed_beats_gpu_only";
      gate_ok = m_mixed.Metrics.goodput_rps > m_gpu.Metrics.goodput_rps;
      gate_detail =
        Printf.sprintf "mixed %.3f req/s (312 PEs) vs gpu-only %.3f (324 PEs)"
          m_mixed.Metrics.goodput_rps m_gpu.Metrics.goodput_rps;
    };
    {
      Exp.gate_name = "mixed_beats_npu_only";
      gate_ok = m_mixed.Metrics.goodput_rps > m_npu.Metrics.goodput_rps;
      gate_detail =
        Printf.sprintf "mixed %.3f req/s (312 PEs) vs npu-only %.3f (320 PEs)"
          m_mixed.Metrics.goodput_rps m_npu.Metrics.goodput_rps;
    };
    {
      Exp.gate_name = "both_classes_serve";
      gate_ok =
        class_stat r.r_mixed "gpu" (fun cs -> cs.H.cs_completed) > 0
        && class_stat r.r_mixed "npu" (fun cs -> cs.H.cs_completed) > 0;
      gate_detail =
        Printf.sprintf "mixed arm completions: gpu %d / npu %d"
          (class_stat r.r_mixed "gpu" (fun cs -> cs.H.cs_completed))
          (class_stat r.r_mixed "npu" (fun cs -> cs.H.cs_completed));
    };
    {
      Exp.gate_name = "failover_beats_no_failover";
      gate_ok =
        m_chaos.Metrics.slo_attainment > m_nofail.Metrics.slo_attainment;
      gate_detail =
        Printf.sprintf
          "SLO attainment %.4f (failover) vs %.4f (no failover), same outage"
          m_chaos.Metrics.slo_attainment m_nofail.Metrics.slo_attainment;
    };
    {
      Exp.gate_name = "breaker_engaged";
      gate_ok =
        class_stat r.r_chaos "gpu" (fun cs -> cs.H.cs_trips) > 0
        && r.r_chaos.H.o_reroutes > 0
        && class_stat r.r_chaos "gpu" (fun cs -> cs.H.cs_probes) > 0;
      gate_detail =
        Printf.sprintf "gpu trips %d, reroutes %d, probes %d"
          (class_stat r.r_chaos "gpu" (fun cs -> cs.H.cs_trips))
          r.r_chaos.H.o_reroutes
          (class_stat r.r_chaos "gpu" (fun cs -> cs.H.cs_probes));
    };
    {
      Exp.gate_name = "breaker_recovers";
      gate_ok =
        (match
           List.find_opt
             (fun cs -> cs.H.cs_backend = "gpu")
             r.r_chaos.H.o_classes
         with
        | Some cs -> cs.H.cs_final_level = "healthy" && cs.H.cs_completed > 0
        | None -> false);
      gate_detail =
        Printf.sprintf "gpu class final level %s, completed %d after outage"
          (match
             List.find_opt
               (fun cs -> cs.H.cs_backend = "gpu")
               r.r_chaos.H.o_classes
           with
          | Some cs -> cs.H.cs_final_level
          | None -> "-")
          (class_stat r.r_chaos "gpu" (fun cs -> cs.H.cs_completed));
    };
    {
      Exp.gate_name = "hedging_engaged";
      gate_ok = r.r_chaos.H.o_hedges > 0;
      gate_detail =
        Printf.sprintf "%d hedge clones, %d losing copies cancelled at grant"
          r.r_chaos.H.o_hedges r.r_chaos.H.o_hedge_cancels;
    };
    {
      Exp.gate_name = "brownout_ladder";
      gate_ok =
        (match brown_gpu with
        | Some cs ->
          cs.H.cs_degraded_entries > 0
          && cs.H.cs_final_level = "healthy"
          && cs.H.cs_level_transitions <= 2 * cs.H.cs_degraded_entries
        | None -> false);
      gate_detail =
        (match brown_gpu with
        | Some cs ->
          Printf.sprintf
            "gpu degraded %dx, %d transitions, final %s (hysteresis bounds flap)"
            cs.H.cs_degraded_entries cs.H.cs_level_transitions
            cs.H.cs_final_level
        | None -> "gpu class missing");
    };
    {
      Exp.gate_name = "ratelimit_engaged";
      gate_ok = List.length r.r_mixed.H.o_rate_limited > 0;
      gate_detail =
        Printf.sprintf "%d requests shed at the door in the mixed arm"
          (List.length r.r_mixed.H.o_rate_limited);
    };
    {
      Exp.gate_name = "no_silent_losses";
      gate_ok = List.for_all (fun (o : H.outcome) -> o.H.o_conserved) arms;
      gate_detail =
        Printf.sprintf
          "all %d arms conserve the terminal-status ledger (%d requests; \
           chaos digest %s)"
          (List.length arms)
          (List.length r.r_trace)
          r.r_chaos.H.o_status_digest;
    };
  ]

(* JSON for BENCH_hetero.json and the CLI's --out: simulated quantities
   only, so the bytes are identical across runs and job counts. *)

let json r =
  let module J = Mikpoly_telemetry.Json in
  let class_obj (cs : H.class_stats) =
    J.Obj
      [
        ("backend", J.String cs.H.cs_backend);
        ("kind", J.String cs.H.cs_kind);
        ("fingerprint", J.String cs.H.cs_fingerprint);
        ("replicas", J.Number (float_of_int cs.H.cs_replicas));
        ("pes", J.Number (float_of_int cs.H.cs_pes));
        ("routed", J.Number (float_of_int cs.H.cs_routed));
        ("completed", J.Number (float_of_int cs.H.cs_completed));
        ("steps", J.Number (float_of_int cs.H.cs_steps));
        ("stall_seconds", J.Number cs.H.cs_stall_seconds);
        ("service_seconds", J.Number cs.H.cs_service_seconds);
        ("requeues", J.Number (float_of_int cs.H.cs_requeues));
        ("reroutes_out", J.Number (float_of_int cs.H.cs_reroutes_out));
        ("reroutes_in", J.Number (float_of_int cs.H.cs_reroutes_in));
        ("hedges_in", J.Number (float_of_int cs.H.cs_hedges_in));
        ("forced", J.Number (float_of_int cs.H.cs_forced));
        ("probes", J.Number (float_of_int cs.H.cs_probes));
        ("trips", J.Number (float_of_int cs.H.cs_trips));
        ("drains", J.Number (float_of_int cs.H.cs_drains));
        ("brownout_steps", J.Number (float_of_int cs.H.cs_brownout_steps));
        ("degraded_entries", J.Number (float_of_int cs.H.cs_degraded_entries));
        ( "level_transitions",
          J.Number (float_of_int cs.H.cs_level_transitions) );
        ("final_level", J.String cs.H.cs_final_level);
      ]
  in
  let arm_obj (o : H.outcome) =
    J.Obj
      [
        ("metrics", Exp_fleet.metrics_obj (metrics o));
        ("rate_limited", J.Number (float_of_int (List.length o.H.o_rate_limited)));
        ("requeues", J.Number (float_of_int o.H.o_requeues));
        ("reroutes", J.Number (float_of_int o.H.o_reroutes));
        ("hedges", J.Number (float_of_int o.H.o_hedges));
        ("hedge_cancels", J.Number (float_of_int o.H.o_hedge_cancels));
        ("injected_faults", J.Number (float_of_int o.H.o_injected_faults));
        ("status_digest", J.String o.H.o_status_digest);
        ("conserved", J.Bool o.H.o_conserved);
        ("classes", J.List (List.map class_obj o.H.o_classes));
        ("tiers", Exp_fleet.tiers_json o.H.o_tiers);
      ]
  in
  (* Unaccounted requests across every arm: any deviation between the
     trace size and an arm's terminal-status count, in either
     direction. The CI smoke stage greps for the literal 0. *)
  let silent_losses =
    List.fold_left
      (fun acc (o : H.outcome) ->
        let resolved =
          List.length o.H.o_completed
          + List.length o.H.o_dropped
          + List.length o.H.o_rate_limited
        in
        acc + abs (List.length r.r_trace - resolved))
      0
      [
        r.r_mixed; r.r_gpu_only; r.r_npu_only; r.r_chaos; r.r_no_failover;
        r.r_brownout;
      ]
  in
  J.Obj
    ([
      ("experiment", J.String "hetero");
      ("quick", J.Bool r.r_quick);
      ("requests", J.Number (float_of_int (List.length r.r_trace)));
      ("silent_losses", J.Number (float_of_int silent_losses));
      ("mixed", arm_obj r.r_mixed);
      ("gpu_only", arm_obj r.r_gpu_only);
      ("npu_only", arm_obj r.r_npu_only);
      ("chaos_failover", arm_obj r.r_chaos);
      ("chaos_no_failover", arm_obj r.r_no_failover);
      ("brownout", arm_obj r.r_brownout);
    ]
    @ Exp.gates_json (gates r))

(* --- Human-readable report --- *)

let report r =
  let arms =
    [
      ("mixed", r.r_mixed);
      ("gpu-only", r.r_gpu_only);
      ("npu-only", r.r_npu_only);
      ("chaos+failover", r.r_chaos);
      ("chaos-no-failover", r.r_no_failover);
      ("brownout", r.r_brownout);
    ]
  in
  let main =
    Table.create
      ~title:
        "Mixed GPU+NPU fleet vs single-backend fleets (mixed GEMM+conv trace)"
      ~header:Metrics.header
  in
  List.iter
    (fun (label, o) -> Table.add_row main (Metrics.to_row ~label (metrics o)))
    arms;
  let classes =
    Table.create ~title:"Per-class routing and robustness (mixed + chaos arms)"
      ~header:
        [
          "arm"; "class"; "routed"; "done"; "steps"; "reroute"; "hedge";
          "trips"; "probes"; "degraded"; "final";
        ]
  in
  List.iter
    (fun (label, (o : H.outcome)) ->
      List.iter
        (fun (cs : H.class_stats) ->
          Table.add_row classes
            [
              label;
              cs.H.cs_backend;
              string_of_int cs.H.cs_routed;
              string_of_int cs.H.cs_completed;
              string_of_int cs.H.cs_steps;
              Printf.sprintf "%d/%d" cs.H.cs_reroutes_in cs.H.cs_reroutes_out;
              string_of_int cs.H.cs_hedges_in;
              string_of_int cs.H.cs_trips;
              string_of_int cs.H.cs_probes;
              string_of_int cs.H.cs_degraded_entries;
              cs.H.cs_final_level;
            ])
        o.H.o_classes)
    [
      ("mixed", r.r_mixed);
      ("chaos", r.r_chaos);
      ("no-failover", r.r_no_failover);
      ("brownout", r.r_brownout);
    ];
  (* The per-device-class cache economics of the mixed arm, through the
     shared serve-metrics pipeline with per-class labels and stalls. *)
  let cache =
    Metrics.cache_table
      ~labels:(H.cache_labels r.r_mixed)
      ~stalls:(H.class_stalls r.r_mixed)
      (H.to_scheduler_outcome r.r_mixed)
  in
  let m_mixed = metrics r.r_mixed in
  let m_gpu = metrics r.r_gpu_only in
  let m_npu = metrics r.r_npu_only in
  let m_chaos = metrics r.r_chaos in
  let m_nofail = metrics r.r_no_failover in
  {
    Exp.tables = [ main; classes; cache ];
    summary =
      [
        Printf.sprintf
          "The mixed 2xGPU+3xNPU fleet (312 PEs) serves %.2f goodput req/s vs %.2f for gpu-only (324 PEs) and %.2f for npu-only (320 PEs): the deadline-aware router keeps tight-budget interactive prefills on the latency-strong GPU class and soaks the batch conv jobs on the NPU class's per-PE compute, so neither single-backend fleet's extra PEs make up for serving both families on one device class."
          m_mixed.Metrics.goodput_rps m_gpu.Metrics.goodput_rps
          m_npu.Metrics.goodput_rps;
        Printf.sprintf
          "Under the same GPU-class outage, failover holds %.3f SLO attainment vs %.3f without it: the breaker trips after %d failed steps, %d requests drain to the NPU class through push_front (recompiles charged on arrival), %d gold hedges fire near deadline, and the half-open probe re-closes the class after the window."
          m_chaos.Metrics.slo_attainment m_nofail.Metrics.slo_attainment
          (class_stat r.r_chaos "gpu" (fun cs -> cs.H.cs_trips))
          r.r_chaos.H.o_reroutes r.r_chaos.H.o_hedges;
        Printf.sprintf
          "Every arm conserves its terminal-status ledger (%d requests -> completed+dropped+rate-limited, chaos digest %s); the brown-out ladder degrades and recovers the throttled class in %d transitions."
          (List.length r.r_trace) r.r_chaos.H.o_status_digest
          (class_stat r.r_brownout "gpu" (fun cs -> cs.H.cs_level_transitions));
        Exp.gates_summary (gates r)
          ~all_hold:
            "All hetero gates hold (mixed beats both single-backend fleets, \
             failover beats no-failover, breaker/hedge/ladder engaged, no \
             silent losses).";
      ];
  }

let run ~quick = report (results ~quick)

let exp =
  {
    Exp.id = "hetero";
    title = "Heterogeneous mixed-fleet serving with cross-device failover";
    paper_claim =
      "Extension of Section 7: per-accelerator micro-kernel templates let one \
       fleet mix GPU and NPU device classes — each class keeps its own \
       fingerprint-keyed kernel store, the online cost model routes each \
       shape to the class that runs it cheapest, and the fault plane fails \
       classes over with recompile-on-arrival instead of losing requests";
    run;
  }
