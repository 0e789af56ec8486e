(* Tests for the accelerator model: hardware presets, kernel resource
   model, pipelined-task costs, schedulers and the program simulator —
   including the paper's Section 6 case-study numbers, which the simulator
   must reproduce. *)

open Mikpoly_accel

let qtest = QCheck_alcotest.to_alcotest

let gpu = Hardware.a100

let npu = Hardware.ascend910

let mk ?(eff = 0.88) um un uk = Kernel_desc.make ~codegen_eff:eff ~um ~un ~uk ()

let kernel_a = mk 256 128 32 (* the case study's kernel A *)

let kernel_b = mk 64 64 64 (* the case study's kernel B *)

(* --- Hardware --- *)

let test_hardware_presets () =
  Alcotest.(check int) "A100 SMs" 108 gpu.num_pes;
  Alcotest.(check int) "Ascend cores" 32 npu.num_pes;
  Alcotest.(check bool) "A100 matrix peak ~312 TFLOPS" true
    (abs_float (Hardware.peak_tflops gpu Hardware.Matrix -. 312.) < 5.);
  Alcotest.(check bool) "Ascend matrix peak ~262 TFLOPS" true
    (abs_float (Hardware.peak_tflops npu Hardware.Matrix -. 262.) < 5.);
  Alcotest.(check int) "gpu matrix slots" 8 (Hardware.slots gpu Hardware.Matrix);
  Alcotest.(check int) "npu one task per core" 1 (Hardware.slots npu Hardware.Matrix)

let test_cycles_to_seconds () =
  Alcotest.(check (float 1e-12)) "1 cycle at 1GHz" 1e-9
    (Hardware.cycles_to_seconds npu 1.)

(* --- Kernel_desc --- *)

let test_kernel_desc_validation () =
  Alcotest.check_raises "non multiple of 16"
    (Invalid_argument
       "Kernel_desc.make: tile dimensions must be positive multiples of 16")
    (fun () -> ignore (Kernel_desc.make ~um:17 ~un:16 ~uk:16 ()));
  Alcotest.check_raises "bad eff"
    (Invalid_argument "Kernel_desc.make: codegen_eff must be in (0, 1]")
    (fun () -> ignore (Kernel_desc.make ~codegen_eff:1.5 ~um:16 ~un:16 ~uk:16 ()))

let test_kernel_desc_accounting () =
  Alcotest.(check (float 0.)) "flops" (2. *. 256. *. 128. *. 32.)
    (Kernel_desc.flops kernel_a);
  Alcotest.(check (float 0.)) "load bytes"
    (float_of_int (((256 * 32) + (32 * 128)) * 2))
    (Kernel_desc.load_bytes kernel_a);
  Alcotest.(check (float 0.)) "store bytes"
    (float_of_int (256 * 128 * 2))
    (Kernel_desc.store_bytes kernel_a);
  Alcotest.(check string) "name" "mk256x128x32" (Kernel_desc.name kernel_a)

(* --- Kernel_model: the paper's occupancy figures --- *)

let test_warps_match_paper () =
  (* Section 6: kernel A uses 8 warps (256 threads), kernel B 4 warps. *)
  Alcotest.(check int) "A warps" 8 (Kernel_model.warps gpu kernel_a);
  Alcotest.(check int) "B warps" 4 (Kernel_model.warps gpu kernel_b);
  Alcotest.(check int) "NPU always 1" 1 (Kernel_model.warps npu kernel_a)

let test_blocks_per_pe () =
  (* A: 8 warps of 8 slots -> 1 block/SM (12.5% occupancy). B: 2 blocks. *)
  Alcotest.(check int) "A blocks" 1 (Kernel_model.blocks_per_pe gpu kernel_a);
  Alcotest.(check int) "B blocks" 2 (Kernel_model.blocks_per_pe gpu kernel_b);
  Alcotest.(check int) "A wave capacity" 108 (Kernel_model.wave_capacity gpu kernel_a);
  Alcotest.(check int) "B wave capacity" 216 (Kernel_model.wave_capacity gpu kernel_b)

let test_sched_warps_consistent () =
  List.iter
    (fun (k : Kernel_desc.t) ->
      let blocks = Kernel_model.blocks_per_pe gpu k in
      if blocks >= 1 then
        Alcotest.(check int)
          (Kernel_desc.name k ^ " slots/sched_warps = blocks")
          blocks
          (Hardware.slots gpu k.path / Kernel_model.sched_warps gpu k))
    [ kernel_a; kernel_b; mk 176 64 64; mk 16 16 16; mk 128 128 32 ]

let test_local_bytes_and_fits () =
  let tiny = mk 16 16 16 in
  Alcotest.(check int) "tiny local bytes"
    ((((16 * 16) + (16 * 16)) * 2 * 2) + (16 * 16 * 4))
    (Kernel_model.local_bytes tiny);
  Alcotest.(check bool) "tiny fits" true (Kernel_model.fits gpu tiny);
  let huge = mk 512 512 128 in
  Alcotest.(check bool) "huge does not fit the GPU" false (Kernel_model.fits gpu huge)

let test_shape_eff_monotone () =
  let small = Kernel_model.shape_eff (mk 16 16 16) in
  let large = Kernel_model.shape_eff (mk 256 128 32) in
  Alcotest.(check bool) "larger tiles more efficient" true (large > small);
  Alcotest.(check bool) "bounded by 1" true (large <= 1. && small > 0.)

(* --- Pipeline --- *)

let test_pipeline_formula () =
  let s = Pipeline.step_cycles gpu kernel_a ~active_blocks:108 in
  let t1 = Pipeline.task_cycles gpu kernel_a ~active_blocks:108 ~t_steps:1 in
  let t2 = Pipeline.task_cycles gpu kernel_a ~active_blocks:108 ~t_steps:2 in
  Alcotest.(check (float 1e-6)) "fill + drain"
    (s.load_cycles +. s.compute_cycles +. s.store_cycles)
    t1;
  Alcotest.(check (float 1e-6)) "steady step"
    (max s.load_cycles s.compute_cycles)
    (t2 -. t1)

let test_pipeline_contention () =
  let lone = Pipeline.task_cycles gpu kernel_b ~active_blocks:1 ~t_steps:16 in
  let busy = Pipeline.task_cycles gpu kernel_b ~active_blocks:216 ~t_steps:16 in
  Alcotest.(check bool) "contention slows a task" true (busy > lone)

let prop_pipeline_monotone_in_t =
  QCheck.Test.make ~name:"pipeline: cost increases with t" ~count:50
    QCheck.(pair (int_range 1 100) (int_range 1 100))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      QCheck.assume (lo < hi);
      Pipeline.task_cycles gpu kernel_a ~active_blocks:108 ~t_steps:lo
      < Pipeline.task_cycles gpu kernel_a ~active_blocks:108 ~t_steps:hi)

(* --- Pipeline_sim: the state machine validates the closed form --- *)

let test_pipeline_sim_matches_closed_form () =
  List.iter
    (fun (k, t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s t=%d" (Kernel_desc.name k) t)
        true
        (Pipeline_sim.matches_closed_form gpu k ~active_blocks:108 ~t_steps:t))
    [ (kernel_a, 1); (kernel_a, 128); (kernel_b, 64); (mk 16 16 16, 5120) ]

let prop_pipeline_sim_matches_closed_form =
  QCheck.Test.make ~name:"pipeline state machine == closed form" ~count:50
    QCheck.(
      quad (int_range 1 12) (int_range 1 12) (int_range 1 6) (int_range 1 512))
    (fun (tm, tn, tk, t) ->
      let k = mk (16 * tm) (16 * tn) (16 * tk) in
      QCheck.assume (Kernel_model.blocks_per_pe gpu k >= 1);
      Pipeline_sim.matches_closed_form gpu k ~active_blocks:108 ~t_steps:t)

let test_pipeline_sim_stalls () =
  (* A memory-bound kernel stalls the compute engine on every step. *)
  let memory_bound = mk 16 16 64 in
  let r = Pipeline_sim.run gpu memory_bound ~active_blocks:216 ~t_steps:32 in
  Alcotest.(check bool) "stalls when load-bound" true (r.stalls > 0);
  Alcotest.(check bool) "load engine busier" true (r.load_busy > r.compute_busy)

(* --- Sched --- *)

let region ~duration ~warps ~blocks ~count =
  { Sched.duration; warps; blocks_per_pe = blocks; count }

let test_sched_gpu_single_wave () =
  let o =
    Sched.schedule_gpu ~num_pes:108 ~slot_capacity:8
      [ region ~duration:100. ~warps:8 ~blocks:1 ~count:96 ]
  in
  Alcotest.(check (float 0.)) "one wave" 100. o.makespan;
  Alcotest.(check (float 0.)) "busy = 96 tasks" 9600. o.busy_pe_cycles

let test_sched_gpu_two_waves () =
  let o =
    Sched.schedule_gpu ~num_pes:108 ~slot_capacity:8
      [ region ~duration:100. ~warps:8 ~blocks:1 ~count:128 ]
  in
  Alcotest.(check (float 0.)) "two waves" 200. o.makespan

let test_sched_gpu_multi_block () =
  (* 4-warp tasks, 8 slots: two per PE -> 216 concurrent. *)
  let o =
    Sched.schedule_gpu ~num_pes:108 ~slot_capacity:8
      [ region ~duration:50. ~warps:4 ~blocks:2 ~count:216 ]
  in
  Alcotest.(check (float 0.)) "one packed wave" 50. o.makespan

let test_sched_gpu_mixed_fills_gaps () =
  (* 96 large tasks leave 12 idle PEs; small tasks backfill them. *)
  let o =
    Sched.schedule_gpu ~num_pes:108 ~slot_capacity:8
      [
        region ~duration:100. ~warps:8 ~blocks:1 ~count:96;
        region ~duration:50. ~warps:4 ~blocks:2 ~count:24;
      ]
  in
  Alcotest.(check (float 0.)) "no extra wave" 100. o.makespan

let test_sched_gpu_analytic_fallback () =
  let count = Sched.event_sim_threshold + 1 in
  let o =
    Sched.schedule_gpu ~num_pes:108 ~slot_capacity:8
      [ region ~duration:10. ~warps:8 ~blocks:1 ~count ]
  in
  Alcotest.(check bool) "analytic" false o.exact;
  Alcotest.(check bool) "close to n/capacity * d" true
    (abs_float (o.makespan -. (float_of_int count /. 108. *. 10.)) < 10.)

let test_sched_npu_balance () =
  let o =
    Sched.schedule_npu ~num_pes:32 [ region ~duration:10. ~warps:1 ~blocks:1 ~count:64 ]
  in
  Alcotest.(check (float 0.)) "two per core" 20. o.makespan;
  let o2 =
    Sched.schedule_npu ~num_pes:32 [ region ~duration:10. ~warps:1 ~blocks:1 ~count:65 ]
  in
  Alcotest.(check (float 0.)) "straggler core" 30. o2.makespan

let test_sched_npu_max_min_mixes_durations () =
  (* 32 long + 32 short tasks: max-min pairs one long with one short. *)
  let o =
    Sched.schedule_npu ~num_pes:32
      [
        region ~duration:30. ~warps:1 ~blocks:1 ~count:32;
        region ~duration:10. ~warps:1 ~blocks:1 ~count:32;
      ]
  in
  Alcotest.(check (float 0.)) "paired loads" 40. o.makespan

let test_sched_empty () =
  let o = Sched.schedule_gpu ~num_pes:108 ~slot_capacity:8 [] in
  Alcotest.(check (float 0.)) "empty" 0. o.makespan

let test_sched_rejects_oversized () =
  Alcotest.check_raises "oversized task"
    (Invalid_argument "Sched: task does not fit on a PE") (fun () ->
      ignore
        (Sched.schedule_gpu ~num_pes:108 ~slot_capacity:8
           [ region ~duration:1. ~warps:9 ~blocks:1 ~count:1 ]))

let prop_sched_busy_bounded =
  QCheck.Test.make ~name:"sched: busy <= PEs x makespan" ~count:50
    QCheck.(pair (int_range 1 500) (int_range 1 3))
    (fun (count, wexp) ->
      let warps = 1 lsl wexp in
      let o =
        Sched.schedule_gpu ~num_pes:108 ~slot_capacity:8
          [ region ~duration:10. ~warps ~blocks:(8 / warps) ~count ]
      in
      o.busy_pe_cycles <= (108. *. o.makespan) +. 1e-6)

(* --- Simulator: the case study --- *)

let case_load ~m =
  let ceil_div a b = (a + b - 1) / b in
  Load.make
    ~regions:
      [
        Load.region ~kernel:kernel_a
          ~n_tasks:(ceil_div m 256 * ceil_div 1024 128)
          ~t_steps:(4096 / 32);
      ]
    ~footprint_bytes:
      (Load.gemm_footprint_bytes ~dtype:Mikpoly_tensor.Dtype.F16 ~m ~n:1024 ~k:4096)

let test_case_study_sm_efficiency () =
  let r3072 = Simulator.run gpu (case_load ~m:3072) in
  let r4096 = Simulator.run gpu (case_load ~m:4096) in
  (* Paper Table 9: 86.67% and 58.90%. *)
  Alcotest.(check bool) "M=3072 ~ 89%" true
    (abs_float (r3072.sm_efficiency -. 0.889) < 0.02);
  Alcotest.(check bool) "M=4096 ~ 59%" true
    (abs_float (r4096.sm_efficiency -. 0.593) < 0.02);
  Alcotest.(check int) "grid 96" 96 r3072.grid_size;
  Alcotest.(check int) "grid 128" 128 r4096.grid_size;
  Alcotest.(check (float 0.)) "1 wave" 1. r3072.waves;
  Alcotest.(check (float 0.)) "2 waves" 2. r4096.waves

let test_case_study_wave_jump () =
  (* Figure 15a: execution time roughly doubles between M=3328 and 3584. *)
  let t3328 = (Simulator.run gpu (case_load ~m:3328)).seconds in
  let t3584 = (Simulator.run gpu (case_load ~m:3584)).seconds in
  Alcotest.(check bool) "wave quantization jump" true (t3584 /. t3328 > 1.8)

let test_simulator_never_beats_peak () =
  let r = Simulator.run gpu (case_load ~m:4096) in
  let useful = 2. *. 4096. *. 1024. *. 4096. in
  Alcotest.(check bool) "below peak" true
    (Simulator.tflops r ~useful_flops:useful
     < Hardware.peak_tflops gpu Hardware.Matrix)

let prop_simulator_below_peak =
  QCheck.Test.make ~name:"simulator: achieved TFLOPS <= device peak" ~count:40
    QCheck.(triple (int_range 1 64) (int_range 1 64) (int_range 1 64))
    (fun (tm, tn, tk) ->
      let m = 16 * tm and n = 16 * tn and k = 16 * tk in
      let ceil_div a b = (a + b - 1) / b in
      let kd = kernel_b in
      let load =
        Load.make
          ~regions:
            [
              Load.region ~kernel:kd
                ~n_tasks:(ceil_div m kd.um * ceil_div n kd.un)
                ~t_steps:(ceil_div k kd.uk);
            ]
          ~footprint_bytes:
            (Load.gemm_footprint_bytes ~dtype:Mikpoly_tensor.Dtype.F16 ~m ~n ~k)
      in
      let r = Simulator.run gpu load in
      Simulator.tflops r
        ~useful_flops:(2. *. float_of_int m *. float_of_int n *. float_of_int k)
      <= Hardware.peak_tflops gpu Hardware.Matrix +. 1e-9)

let test_simulator_dram_floor () =
  let kd = mk 16 16 64 in
  let load =
    Load.make
      ~regions:[ Load.region ~kernel:kd ~n_tasks:1 ~t_steps:1 ]
      ~footprint_bytes:1e9
  in
  let r = Simulator.run gpu load in
  Alcotest.(check bool) "dram bound" true r.dram_bound;
  Alcotest.(check bool) "cycles >= footprint/bw" true
    (r.cycles >= 1e9 /. gpu.dram_bytes_per_cycle)

let test_simulator_launch_overhead () =
  let kd = kernel_b in
  let one =
    Simulator.run gpu
      (Load.make ~regions:[ Load.region ~kernel:kd ~n_tasks:1 ~t_steps:1 ]
         ~footprint_bytes:0.)
  in
  let two =
    Simulator.run gpu
      (Load.make
         ~regions:
           [
             Load.region ~kernel:kd ~n_tasks:1 ~t_steps:1;
             Load.region ~kernel:kd ~n_tasks:1 ~t_steps:1;
           ]
         ~footprint_bytes:0.)
  in
  Alcotest.(check bool) "second region costs a launch" true
    (two.seconds > one.seconds)

let test_simulator_rejects_misfit () =
  let huge = mk 512 512 128 in
  Alcotest.check_raises "does not fit" (Simulator.Kernel_does_not_fit "mk512x512x128")
    (fun () ->
      ignore
        (Simulator.run gpu
           (Load.make ~regions:[ Load.region ~kernel:huge ~n_tasks:1 ~t_steps:1 ]
              ~footprint_bytes:0.)))

let test_simulator_mixed_paths_rejected () =
  let a = mk 64 64 64 in
  let b = Kernel_desc.make ~path:Hardware.Vector ~um:64 ~un:64 ~uk:64 () in
  Alcotest.check_raises "mixed paths"
    (Invalid_argument "Simulator.run: mixed compute paths in one program")
    (fun () ->
      ignore
        (Simulator.run gpu
           (Load.make
              ~regions:
                [
                  Load.region ~kernel:a ~n_tasks:1 ~t_steps:1;
                  Load.region ~kernel:b ~n_tasks:1 ~t_steps:1;
                ]
              ~footprint_bytes:0.)))

(* --- Trace --- *)

let test_trace_spans_cover_tasks () =
  let load = case_load ~m:4096 in
  let trace = Trace.record gpu load in
  Alcotest.(check int) "one span per task" (Load.total_tasks load)
    (List.length trace.spans);
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check bool) "pe in range" true
        (Trace.pe s >= 0 && Trace.pe s < gpu.num_pes);
      Alcotest.(check bool) "positive span" true (s.finish > s.start);
      Alcotest.(check bool) "within makespan" true (s.finish <= trace.makespan +. 1e-6))
    trace.spans

let test_trace_occupancy_drop () =
  (* The case study: full first wave, ~18% second wave. *)
  let trace = Trace.record gpu (case_load ~m:4096) in
  let early = Trace.occupancy trace ~at:(trace.makespan *. 0.25) in
  let late = Trace.occupancy trace ~at:(trace.makespan *. 0.75) in
  Alcotest.(check bool) "first wave full" true (early > 0.95);
  Alcotest.(check bool) "second wave ~20/108" true (late > 0.1 && late < 0.3)

let test_trace_timeline_renders () =
  let trace = Trace.record gpu (case_load ~m:3072) in
  let s = Trace.ascii_timeline ~width:40 trace in
  Alcotest.(check bool) "has device line" true
    (List.exists
       (fun l -> String.length l > 6 && String.sub l 0 6 = "device")
       (String.split_on_char '\n' s))

let test_trace_npu_max_min () =
  (* NPU spans come from the static max-min allocation: with 64 equal
     tasks on 32 cores, every core gets exactly two back-to-back spans. *)
  let kd = Kernel_desc.make ~um:64 ~un:64 ~uk:64 () in
  let load =
    Load.make
      ~regions:[ Load.region ~kernel:kd ~n_tasks:64 ~t_steps:8 ]
      ~footprint_bytes:0.
  in
  let trace = Trace.record npu load in
  Alcotest.(check int) "64 spans" 64 (List.length trace.spans);
  let per_core = Array.make npu.num_pes 0 in
  List.iter
    (fun (s : Trace.span) -> per_core.(Trace.pe s) <- per_core.(Trace.pe s) + 1)
    trace.spans;
  Array.iter (fun c -> Alcotest.(check int) "two per core" 2 c) per_core

let test_hardware_presets_valid () =
  List.iter
    (fun (hw : Hardware.t) ->
      Alcotest.(check bool) (hw.name ^ " sane") true
        (hw.num_pes > 0 && hw.clock_hz > 0.
        && hw.matrix_flops_per_cycle > 0.
        && hw.local_mem_bytes > 0
        && hw.fabric_bytes_per_cycle >= hw.dram_bytes_per_cycle
        && hw.matrix_slots >= 1))
    Hardware.presets;
  Alcotest.(check int) "five presets" 5 (List.length Hardware.presets)

let test_trace_rejects_huge () =
  let kd = mk 16 16 64 in
  let load =
    Load.make
      ~regions:
        [ Load.region ~kernel:kd ~n_tasks:(Sched.event_sim_threshold + 1) ~t_steps:1 ]
      ~footprint_bytes:0.
  in
  Alcotest.check_raises "too large"
    (Invalid_argument "Trace.record: program too large for event-driven simulation")
    (fun () -> ignore (Trace.record gpu load))

let test_gemm_footprint () =
  Alcotest.(check (float 0.)) "fp16 footprint"
    (float_of_int (((4 * 6) + (6 * 5) + (4 * 5)) * 2))
    (Load.gemm_footprint_bytes ~dtype:Mikpoly_tensor.Dtype.F16 ~m:4 ~n:5 ~k:6)

let () =
  Alcotest.run "accel"
    [
      ( "hardware",
        [
          Alcotest.test_case "presets" `Quick test_hardware_presets;
          Alcotest.test_case "cycles to seconds" `Quick test_cycles_to_seconds;
        ] );
      ( "kernel_desc",
        [
          Alcotest.test_case "validation" `Quick test_kernel_desc_validation;
          Alcotest.test_case "accounting" `Quick test_kernel_desc_accounting;
        ] );
      ( "kernel_model",
        [
          Alcotest.test_case "warps (paper Section 6)" `Quick test_warps_match_paper;
          Alcotest.test_case "blocks per PE" `Quick test_blocks_per_pe;
          Alcotest.test_case "sched_warps consistency" `Quick test_sched_warps_consistent;
          Alcotest.test_case "local bytes / fits" `Quick test_local_bytes_and_fits;
          Alcotest.test_case "shape efficiency" `Quick test_shape_eff_monotone;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "fill + steady formula" `Quick test_pipeline_formula;
          Alcotest.test_case "contention" `Quick test_pipeline_contention;
          qtest prop_pipeline_monotone_in_t;
          Alcotest.test_case "state machine matches closed form" `Quick
            test_pipeline_sim_matches_closed_form;
          Alcotest.test_case "state machine stalls" `Quick test_pipeline_sim_stalls;
          qtest prop_pipeline_sim_matches_closed_form;
        ] );
      ( "sched",
        [
          Alcotest.test_case "gpu single wave" `Quick test_sched_gpu_single_wave;
          Alcotest.test_case "gpu two waves" `Quick test_sched_gpu_two_waves;
          Alcotest.test_case "gpu multi-block" `Quick test_sched_gpu_multi_block;
          Alcotest.test_case "gpu stream backfill" `Quick test_sched_gpu_mixed_fills_gaps;
          Alcotest.test_case "gpu analytic fallback" `Quick test_sched_gpu_analytic_fallback;
          Alcotest.test_case "npu balance" `Quick test_sched_npu_balance;
          Alcotest.test_case "npu max-min" `Quick test_sched_npu_max_min_mixes_durations;
          Alcotest.test_case "empty" `Quick test_sched_empty;
          Alcotest.test_case "oversized rejected" `Quick test_sched_rejects_oversized;
          qtest prop_sched_busy_bounded;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "case study sm_efficiency (Table 9)" `Quick
            test_case_study_sm_efficiency;
          Alcotest.test_case "case study wave jump (Fig 15a)" `Quick
            test_case_study_wave_jump;
          Alcotest.test_case "never beats peak" `Quick test_simulator_never_beats_peak;
          Alcotest.test_case "dram floor" `Quick test_simulator_dram_floor;
          Alcotest.test_case "launch overhead" `Quick test_simulator_launch_overhead;
          Alcotest.test_case "misfit kernel rejected" `Quick test_simulator_rejects_misfit;
          Alcotest.test_case "mixed paths rejected" `Quick
            test_simulator_mixed_paths_rejected;
          Alcotest.test_case "gemm footprint" `Quick test_gemm_footprint;
          qtest prop_simulator_below_peak;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans cover tasks" `Quick test_trace_spans_cover_tasks;
          Alcotest.test_case "occupancy drop (Fig 15b)" `Quick
            test_trace_occupancy_drop;
          Alcotest.test_case "timeline renders" `Quick test_trace_timeline_renders;
          Alcotest.test_case "npu max-min spans" `Quick test_trace_npu_max_min;
          Alcotest.test_case "hardware presets valid" `Quick
            test_hardware_presets_valid;
          Alcotest.test_case "rejects huge programs" `Quick test_trace_rejects_huge;
        ] );
    ]
