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

let test_sched_rejects_bad_input () =
  let tasks duration = [ region ~duration ~warps:1 ~blocks:1 ~count:5 ] in
  let rejects name message f =
    Alcotest.check_raises name (Invalid_argument message) (fun () -> ignore (f ()))
  in
  let no_pes = "Sched: num_pes must be >= 1" in
  let bad_work = "Sched: count and duration must be >= 0" in
  rejects "gpu, no PEs" no_pes (fun () ->
      Sched.schedule_gpu ~num_pes:0 ~slot_capacity:8 (tasks 10.));
  rejects "npu, no cores" no_pes (fun () -> Sched.schedule_npu ~num_pes:0 (tasks 10.));
  List.iter
    (fun d ->
      let name = Printf.sprintf "duration %h" d in
      rejects ("gpu, " ^ name) bad_work (fun () ->
          Sched.schedule_gpu ~num_pes:108 ~slot_capacity:8 (tasks d));
      rejects ("npu, " ^ name) bad_work (fun () -> Sched.schedule_npu ~num_pes:32 (tasks d)))
    [ nan; -1. ]

(* The task-by-task schedulers [Sched] replaced, kept as reference
   models: a closure-ordered heap of (finish, pe, warps) events and
   list buckets on the GPU, a heap of (load, core) on the NPU. The
   properties below check the current schedulers against them bit for
   bit. *)
module Ref_sched = struct
  open Sched

  let analytic ~num_pes regions =
    let p = float_of_int num_pes in
    let makespan, busy =
      List.fold_left
        (fun (mk, busy) r ->
          let cap = float_of_int (num_pes * r.blocks_per_pe) in
          let n = float_of_int r.count in
          (mk +. (n /. cap *. r.duration), busy +. (n *. r.duration /. float_of_int r.blocks_per_pe)))
        (0., 0.) regions
    in
    { makespan; busy_pe_cycles = min busy (p *. makespan); exact = false }

  let total regions = List.fold_left (fun acc r -> acc + r.count) 0 regions

  type gpu = {
    slots : int;
    free : int array;
    buckets : int list array;
    resident : int array;
    busy_since : float array;
    busy_accum : float array;
  }

  let rec pop_bucket t b =
    match t.buckets.(b) with
    | [] -> None
    | pe :: rest ->
      t.buckets.(b) <- rest;
      if t.free.(pe) = b then Some pe else pop_bucket t b

  let find_pe t ~warps =
    let rec scan b =
      if b < warps then None
      else match pop_bucket t b with Some pe -> Some pe | None -> scan (b - 1)
    in
    scan t.slots

  let push_bucket t pe = t.buckets.(t.free.(pe)) <- pe :: t.buckets.(t.free.(pe))

  let schedule_gpu ?on_span ~num_pes ~slot_capacity regions =
    let regions = List.filter (fun r -> r.count > 0) regions in
    if regions = [] then { makespan = 0.; busy_pe_cycles = 0.; exact = true }
    else if total regions > event_sim_threshold then analytic ~num_pes regions
    else begin
      let st =
        {
          slots = slot_capacity;
          free = Array.make num_pes slot_capacity;
          buckets = Array.make (slot_capacity + 1) [];
          resident = Array.make num_pes 0;
          busy_since = Array.make num_pes 0.;
          busy_accum = Array.make num_pes 0.;
        }
      in
      st.buckets.(slot_capacity) <- List.init num_pes (fun i -> i);
      let remaining = Array.of_list regions in
      let left = Array.map (fun r -> r.count) remaining in
      let events =
        Closure_heap.create ~cmp:(fun (a, _, _) (b, _, _) -> compare (a : float) b)
      in
      let try_assign time =
        let progress = ref true in
        while !progress do
          progress := false;
          let i = ref 0 and assigned = ref false in
          while (not !assigned) && !i < Array.length remaining do
            let r = remaining.(!i) in
            match if left.(!i) > 0 then find_pe st ~warps:r.warps else None with
            | Some pe ->
              st.free.(pe) <- st.free.(pe) - r.warps;
              push_bucket st pe;
              if st.resident.(pe) = 0 then st.busy_since.(pe) <- time;
              st.resident.(pe) <- st.resident.(pe) + 1;
              left.(!i) <- left.(!i) - 1;
              Closure_heap.push events (time +. r.duration, pe, r.warps);
              (match on_span with
              | Some f ->
                f ~pe ~start:time ~finish:(time +. r.duration) ~warps:r.warps ~region:!i
              | None -> ());
              assigned := true;
              progress := true
            | None -> incr i
          done
        done
      in
      try_assign 0.;
      let makespan = ref 0. in
      let rec drain () =
        match Closure_heap.pop events with
        | None -> ()
        | Some (time, pe, warps) ->
          st.free.(pe) <- st.free.(pe) + warps;
          push_bucket st pe;
          st.resident.(pe) <- st.resident.(pe) - 1;
          if st.resident.(pe) = 0 then
            st.busy_accum.(pe) <- st.busy_accum.(pe) +. (time -. st.busy_since.(pe));
          makespan := time;
          try_assign time;
          drain ()
      in
      drain ();
      {
        makespan = !makespan;
        busy_pe_cycles = Array.fold_left ( +. ) 0. st.busy_accum;
        exact = true;
      }
    end

  let schedule_npu ?on_span ~num_pes regions =
    let regions = List.filter (fun r -> r.count > 0) regions in
    if regions = [] then { makespan = 0.; busy_pe_cycles = 0.; exact = true }
    else if total regions > event_sim_threshold then analytic ~num_pes regions
    else begin
      let sorted =
        List.sort
          (fun (_, a) (_, b) -> compare b.duration a.duration)
          (List.mapi (fun i r -> (i, r)) regions)
      in
      let cores = Closure_heap.create ~cmp:(fun (a, _) (b, _) -> compare (a : float) b) in
      for i = 0 to num_pes - 1 do
        Closure_heap.push cores (0., i)
      done;
      List.iter
        (fun (region, r) ->
          for _ = 1 to r.count do
            match Closure_heap.pop cores with
            | None -> assert false
            | Some (load, core) ->
              (match on_span with
              | Some f -> f ~pe:core ~start:load ~finish:(load +. r.duration) ~warps:1 ~region
              | None -> ());
              Closure_heap.push cores (load +. r.duration, core)
          done)
        sorted;
      let makespan = ref 0. and busy = ref 0. in
      let rec drain () =
        match Closure_heap.pop cores with
        | None -> ()
        | Some (load, _) ->
          makespan := max !makespan load;
          busy := !busy +. load;
          drain ()
      in
      drain ();
      { makespan = !makespan; busy_pe_cycles = !busy; exact = true }
    end
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_outcome (a : Sched.outcome) (b : Sched.outcome) =
  same_bits a.makespan b.makespan
  && same_bits a.busy_pe_cycles b.busy_pe_cycles
  && a.exact = b.exact

(* Every span a scheduler reports, in call order. *)
let recorded schedule =
  let spans = ref [] in
  let on_span ~pe ~start ~finish ~warps ~region =
    spans := (pe, start, finish, warps, region) :: !spans
  in
  let o = schedule ~on_span in
  (o, List.rev !spans)

(* Per region: task count, first start, last finish. *)
let region_envelopes nregions spans =
  let env = Array.make nregions (0, infinity, neg_infinity) in
  List.iter
    (fun (_, start, finish, _, region) ->
      let n, lo, hi = env.(region) in
      env.(region) <- (n + 1, Float.min lo start, Float.max hi finish))
    spans;
  env

let same_envelopes a b =
  Array.for_all2
    (fun (n, lo, hi) (n', lo', hi') -> n = n' && same_bits lo lo' && same_bits hi hi')
    a b

(* Random programs: 1–5 regions whose durations are all zero, all equal
   or drawn (integers, to provoke equal loads, or arbitrary floats), and
   whose counts straddle multiples of [num_pes]. *)
let gen_regions ~num_pes ~slots =
  QCheck.Gen.(
    let* nregions = int_range 1 5 in
    let* kind = int_range 0 2 in
    let* equal = map float_of_int (int_range 1 100) in
    list_repeat nregions
      (let* duration =
         match kind with
         | 0 -> return 0.
         | 1 -> return equal
         | _ ->
           oneof
             [ return 0.; map float_of_int (int_range 1 40); float_range 0. 1000. ]
       in
       let* warps = int_range 1 slots in
       let* waves = int_range 0 3 in
       let* skew = int_range (-2) 2 in
       let count = max 0 ((waves * num_pes) + skew) in
       return { Sched.duration; warps; blocks_per_pe = max 1 (slots / warps); count }))

let show_regions regions =
  String.concat "; "
    (List.map
       (fun (r : Sched.region_work) ->
         Printf.sprintf "{d=%h w=%d b=%d n=%d}" r.duration r.warps r.blocks_per_pe r.count)
       regions)

let prop_npu_matches_reference =
  QCheck.Test.make ~name:"npu groups == task-by-task max-min" ~count:300
    (QCheck.make
       ~print:(fun (p, rs) -> Printf.sprintf "cores=%d %s" p (show_regions rs))
       QCheck.Gen.(
         let* num_pes = int_range 1 40 in
         pair (return num_pes) (gen_regions ~num_pes ~slots:1)))
    (fun (num_pes, regions) ->
      let o, spans =
        recorded (fun ~on_span -> Sched.schedule_npu ~on_span ~num_pes regions)
      in
      let ro, rspans =
        recorded (fun ~on_span -> Ref_sched.schedule_npu ~on_span ~num_pes regions)
      in
      let n = List.length regions in
      same_outcome o ro
      && same_outcome (Sched.schedule_npu ~num_pes regions) ro
      && same_envelopes (region_envelopes n spans) (region_envelopes n rspans))

let prop_gpu_matches_reference =
  QCheck.Test.make ~name:"gpu dispatcher == closure-heap dispatcher" ~count:300
    (QCheck.make
       ~print:(fun (s, rs) -> Printf.sprintf "slots=%d %s" s (show_regions rs))
       QCheck.Gen.(
         let* slots = oneofl [ 8; 32 ] in
         pair (return slots) (gen_regions ~num_pes:108 ~slots)))
    (fun (slot_capacity, regions) ->
      let o, spans =
        recorded (fun ~on_span ->
            Sched.schedule_gpu ~on_span ~num_pes:108 ~slot_capacity regions)
      in
      let ro, rspans =
        recorded (fun ~on_span ->
            Ref_sched.schedule_gpu ~on_span ~num_pes:108 ~slot_capacity regions)
      in
      same_outcome o ro
      && same_outcome (Sched.schedule_gpu ~num_pes:108 ~slot_capacity regions) ro
      && List.length spans = List.length rspans
      && List.for_all2
           (fun (pe, s, f, w, r) (pe', s', f', w', r') ->
             pe = pe' && same_bits s s' && same_bits f f' && w = w' && r = r')
           spans rspans)

let test_sched_analytic_matches_reference () =
  let regions =
    [
      region ~duration:7. ~warps:4 ~blocks:2 ~count:(Sched.event_sim_threshold / 2);
      region ~duration:3. ~warps:8 ~blocks:1 ~count:((Sched.event_sim_threshold / 2) + 1);
    ]
  in
  let check name o ro =
    Alcotest.(check bool) (name ^ " analytic") false o.Sched.exact;
    Alcotest.(check bool) (name ^ " bit-identical") true (same_outcome o ro)
  in
  check "gpu"
    (Sched.schedule_gpu ~num_pes:108 ~slot_capacity:8 regions)
    (Ref_sched.schedule_gpu ~num_pes:108 ~slot_capacity:8 regions);
  let npu_regions = List.map (fun r -> { r with Sched.warps = 1 }) regions in
  check "npu" (Sched.schedule_npu ~num_pes:32 npu_regions)
    (Ref_sched.schedule_npu ~num_pes:32 npu_regions)

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

(* --- Load: the GEMM tiling owner --- *)

let test_load_gemm_single_region () =
  let load = Load.gemm kernel_b ~m:100 ~n:100 ~k:100 in
  match load.regions with
  | [ r ] ->
    Alcotest.(check int) "2x2 tiles" 4 r.n_tasks;
    Alcotest.(check int) "2 K steps" 2 r.t_steps;
    Alcotest.(check (float 0.)) "fp16 footprint"
      (Load.gemm_footprint_bytes ~dtype:kernel_b.dtype ~m:100 ~n:100 ~k:100)
      load.footprint_bytes;
    Alcotest.(check int) "waves" 2 (Load.waves ~capacity:3 r.n_tasks)
  | _ -> Alcotest.fail "expected one region"

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

let test_trace_npu_regions () =
  (* Three regions of unequal tasks, none a multiple of the 32 cores:
     every task is a span of its region, and each core runs its spans
     back to back from 0 until at most the makespan, reached by one. *)
  let counts = [ 40; 33; 7 ] in
  let load =
    Load.make
      ~regions:
        (List.mapi
           (fun i n -> Load.region ~kernel:(mk 64 64 64) ~n_tasks:n ~t_steps:(4 * (i + 1)))
           counts)
      ~footprint_bytes:0.
  in
  let trace = Trace.record npu load in
  Alcotest.(check int) "one span per task" (Load.total_tasks load) (List.length trace.spans);
  List.iteri
    (fun i n ->
      Alcotest.(check int) (Printf.sprintf "region %d spans" i) n
        (List.length (List.filter (fun s -> Trace.region s = i) trace.spans)))
    counts;
  for core = 0 to npu.num_pes - 1 do
    let spans =
      List.filter (fun s -> Trace.pe s = core) trace.spans
      |> List.sort (fun (a : Trace.span) b -> Float.compare a.start b.start)
    in
    ignore
      (List.fold_left
         (fun at (s : Trace.span) ->
           Alcotest.(check (float 0.)) (Printf.sprintf "core %d back to back" core) at s.start;
           s.finish)
         0. spans)
  done;
  Alcotest.(check (float 0.)) "latest finish is the makespan" trace.makespan
    (List.fold_left (fun m (s : Trace.span) -> Float.max m s.finish) 0. trace.spans)

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
          Alcotest.test_case "bad input rejected" `Quick test_sched_rejects_bad_input;
          qtest prop_npu_matches_reference;
          qtest prop_gpu_matches_reference;
          Alcotest.test_case "analytic fallback unchanged" `Quick
            test_sched_analytic_matches_reference;
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
      ( "load",
        [
          Alcotest.test_case "single-region gemm" `Quick
            test_load_gemm_single_region;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans cover tasks" `Quick test_trace_spans_cover_tasks;
          Alcotest.test_case "occupancy drop (Fig 15b)" `Quick
            test_trace_occupancy_drop;
          Alcotest.test_case "timeline renders" `Quick test_trace_timeline_renders;
          Alcotest.test_case "npu max-min spans" `Quick test_trace_npu_max_min;
          Alcotest.test_case "npu spans per region and core" `Quick
            test_trace_npu_regions;
          Alcotest.test_case "hardware presets valid" `Quick
            test_hardware_presets_valid;
          Alcotest.test_case "rejects huge programs" `Quick test_trace_rejects_huge;
        ] );
    ]
