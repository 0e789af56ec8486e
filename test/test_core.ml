(* Tests for the MikPoly core: polymerization patterns, the Equation-2
   cost model, the online polymerizer (Algorithm 1) and the compiler
   front-end, including end-to-end numerical correctness of compiled
   programs and oracle-consistency of the search. *)

open Mikpoly_core
open Mikpoly_ir
open Mikpoly_accel

let qtest = QCheck_alcotest.to_alcotest

let gpu = Hardware.a100

let npu = Hardware.ascend910

let gpu_compiler = lazy (Compiler.create gpu)

let npu_compiler = lazy (Compiler.create npu)

(* --- Pattern --- *)

let rect_area (r : Pattern.rect) = r.rows * r.cols

let partitions_exactly ~m ~n rects =
  let area = List.fold_left (fun acc r -> acc + rect_area r) 0 rects in
  let in_bounds (r : Pattern.rect) =
    r.row_off >= 0 && r.col_off >= 0 && r.rows >= 1 && r.cols >= 1
    && r.row_off + r.rows <= m
    && r.col_off + r.cols <= n
  in
  let overlap (a : Pattern.rect) (b : Pattern.rect) =
    a.row_off < b.row_off + b.rows
    && b.row_off < a.row_off + a.rows
    && a.col_off < b.col_off + b.cols
    && b.col_off < a.col_off + a.cols
  in
  let rec no_overlap = function
    | [] -> true
    | r :: rest -> (not (List.exists (overlap r) rest)) && no_overlap rest
  in
  area = m * n && List.for_all in_bounds rects && no_overlap rects

let test_pattern_region_counts () =
  let count p cuts =
    match Pattern.decompose p ~m:100 ~n:100 ~cuts with
    | Some rects -> List.length rects
    | None -> -1
  in
  Alcotest.(check int) "I" 1 (count Pattern.I []);
  Alcotest.(check int) "II" 2 (count Pattern.II [ 40 ]);
  Alcotest.(check int) "III" 2 (count Pattern.III [ 40 ]);
  Alcotest.(check int) "IV" 4 (count Pattern.IV [ 40; 60 ]);
  Alcotest.(check int) "V" 3 (count Pattern.V [ 40; 60 ]);
  Alcotest.(check int) "VI" 3 (count Pattern.VI [ 40; 60 ]);
  Alcotest.(check int) "VII" 3 (count Pattern.VII [ 30; 60 ]);
  Alcotest.(check int) "VIII" 3 (count Pattern.VIII [ 30; 60 ]);
  Alcotest.(check int) "IX" 3 (count Pattern.IX [ 40; 60 ])

let test_pattern_degenerate_cuts () =
  Alcotest.(check bool) "cut at border rejected" true
    (Pattern.decompose Pattern.II ~m:100 ~n:100 ~cuts:[ 100 ] = None);
  Alcotest.(check bool) "cut at 0 rejected" true
    (Pattern.decompose Pattern.II ~m:100 ~n:100 ~cuts:[ 0 ] = None);
  Alcotest.(check bool) "VII needs increasing cuts" true
    (Pattern.decompose Pattern.VII ~m:100 ~n:100 ~cuts:[ 60; 30 ] = None)

let test_pattern_wrong_arity () =
  Alcotest.check_raises "arity"
    (Invalid_argument "Pattern.decompose: wrong number of cuts") (fun () ->
      ignore (Pattern.decompose Pattern.II ~m:10 ~n:10 ~cuts:[]))

let test_pattern_defaults () =
  Alcotest.(check int) "gpu patterns" 2 (List.length Pattern.gpu_defaults);
  Alcotest.(check int) "npu patterns" 9 (List.length Pattern.npu_defaults)

let prop_patterns_partition =
  QCheck.Test.make ~name:"patterns: every decomposition partitions the output"
    ~count:200
    QCheck.(
      quad (int_range 2 300) (int_range 2 300) (int_range 1 299) (int_range 1 299))
    (fun (m, n, c1, c2) ->
      List.for_all
        (fun p ->
          let cuts =
            match Pattern.arity p with
            | 0 -> []
            | 1 -> [ c1 ]
            | _ -> [ min c1 c2; max c1 c2 ]
          in
          if List.length cuts = 2 && c1 = c2 then true
          else
            match Pattern.decompose p ~m ~n ~cuts with
            | None -> true
            | Some rects -> partitions_exactly ~m ~n rects)
        Pattern.all)

(* --- Config --- *)

let test_config_defaults () =
  let g = Config.default gpu in
  Alcotest.(check int) "n_gen" 32 g.n_gen;
  Alcotest.(check int) "n_syn" 12 g.n_syn;
  Alcotest.(check int) "n_mik" 40 g.n_mik;
  Alcotest.(check int) "n_pred" 5120 g.n_pred;
  Alcotest.(check int) "gpu patterns" 2 (List.length g.patterns);
  let n = Config.default npu in
  Alcotest.(check int) "npu patterns" 9 (List.length n.patterns)

let test_config_with_path () =
  let g = Config.with_path Hardware.Vector (Config.default gpu) in
  Alcotest.(check bool) "vector path" true (g.path = Hardware.Vector);
  Alcotest.(check bool) "lower codegen quality" true (g.codegen_eff < 0.88);
  Alcotest.(check bool) "different cache key" true
    (Config.cache_key g <> Config.cache_key (Config.default gpu))

(* --- Kernel_set --- *)

let test_kernel_set_size_and_cache () =
  let set1 = Compiler.kernels (Lazy.force gpu_compiler) in
  Alcotest.(check int) "n_mik entries" 40 (Kernel_set.size set1);
  let set2 = Kernel_set.create gpu (Config.default gpu) in
  Alcotest.(check bool) "memoized" true (set1 == set2)

let test_kernel_set_find () =
  let set = Compiler.kernels (Lazy.force gpu_compiler) in
  let e = set.entries.(0) in
  Alcotest.(check bool) "find existing" true
    (Kernel_set.find set ~um:e.desc.um ~un:e.desc.un ~uk:e.desc.uk <> None);
  Alcotest.(check bool) "missing" true (Kernel_set.find set ~um:512 ~un:512 ~uk:512 = None)

(* --- Cost model --- *)

let entry () = (Compiler.kernels (Lazy.force gpu_compiler)).entries.(0)

let test_cost_model_identities () =
  let e = entry () in
  let rows = 1000 and cols = 900 and k_len = 700 in
  let ceil_div a b = (a + b - 1) / b in
  Alcotest.(check int) "f_parallel"
    (ceil_div rows e.desc.um * ceil_div cols e.desc.un)
    (Cost_model.f_parallel e ~rows ~cols);
  Alcotest.(check int) "f_num" (ceil_div k_len e.desc.uk)
    (Cost_model.f_num e ~k_len);
  let waves = Cost_model.f_wave e ~rows ~cols in
  Alcotest.(check (float 1e-9)) "f_wave = ceil(parallel/capacity)"
    (float_of_int
       (ceil_div (Cost_model.f_parallel e ~rows ~cols) e.wave_capacity))
    waves;
  Alcotest.(check (float 1e-6)) "Eq. 2 product"
    (waves *. Cost_model.f_pipe e ~k_len)
    (Cost_model.region_cost Cost_model.Full e ~rows ~cols ~k_len)

let test_cost_model_program_sum () =
  let compiler = Lazy.force gpu_compiler in
  let op = Operator.gemm ~m:4096 ~n:1024 ~k:4096 () in
  let c = Compiler.compile compiler op in
  let total =
    Cost_model.program_cost Cost_model.Full (Compiler.kernels compiler) c.program
  in
  let per_region =
    List.fold_left
      (fun acc r ->
        acc
        +. Cost_model.region_cost_of Cost_model.Full (Compiler.kernels compiler) r)
      0. c.program.regions
  in
  Alcotest.(check (float 1e-6)) "sum over regions" per_region total

let test_cost_model_correlates_with_simulator () =
  (* The lightweight model must rank programs like the simulator does. *)
  let compiler = Lazy.force gpu_compiler in
  let set = Compiler.kernels compiler in
  let pairs =
    List.map
      (fun (m, n, k) ->
        let op = Operator.gemm ~m ~n ~k () in
        let c = Compiler.compile_fresh compiler op in
        let predicted = Cost_model.program_cost Cost_model.Full set c.program in
        let sim = (Compiler.simulate compiler c).sched_cycles in
        (log predicted, log sim))
      [ (128, 128, 128); (512, 512, 512); (1024, 2048, 256); (4096, 1024, 4096);
        (300, 5000, 700); (64, 64, 8192); (2048, 2048, 2048); (7000, 128, 1760) ]
  in
  Alcotest.(check bool) "rank correlation > 0.95" true
    (Mikpoly_util.Stats.pearson pairs > 0.95)

(* --- Polymerize --- *)

let test_row_cuts_aligned () =
  let e = entry () in
  let cuts = Strategy_space.row_cuts e ~rows:4096 ~cols:1024 ~max_cuts:6 in
  Alcotest.(check bool) "nonempty" true (cuts <> []);
  List.iter
    (fun c ->
      Alcotest.(check int) "multiple of um" 0 (c mod e.desc.um);
      Alcotest.(check bool) "interior" true (c > 0 && c < 4096))
    cuts

let test_row_cuts_small_region () =
  let e = entry () in
  Alcotest.(check (list int)) "no cut fits" []
    (Strategy_space.row_cuts e ~rows:(e.desc.um - 1) ~cols:64 ~max_cuts:6)

let compile_shape ?scorer compiler (m, n, k) =
  Compiler.compile_fresh ?scorer compiler (Operator.gemm ~m ~n ~k ())

let test_polymerize_always_valid () =
  let compiler = Lazy.force gpu_compiler in
  List.iter
    (fun shape ->
      let c = compile_shape compiler shape in
      Alcotest.(check bool) "program validated" true (Program.num_regions c.program >= 1))
    [ (1, 1, 1); (1, 48000, 128); (10752, 1, 500000); (17, 23, 31); (4096, 4096, 4096) ]

let test_polymerize_explores_and_prunes () =
  let compiler = Lazy.force gpu_compiler in
  let c = compile_shape compiler (4096, 1024, 4096) in
  (* The enumerated strategy space is still large, but the analytic
     pruner rules most of it out before scoring. *)
  Alcotest.(check bool) "many candidates considered" true
    (c.candidates + c.pruned + c.pruned_analytic > 50);
  Alcotest.(check bool) "analytic pruning active" true (c.pruned_analytic > 0);
  Alcotest.(check bool) "few candidates actually scored" true
    (c.candidates < c.pruned_analytic);
  Alcotest.(check bool) "search time measured" true (c.search_seconds > 0.)

let test_polymerize_case_study_splits () =
  (* The case-study shape must polymerize into a multi-kernel program on
     the GPU (that is the Section 6 story). *)
  let compiler = Lazy.force gpu_compiler in
  let c = compile_shape compiler (4096, 4096, 4096) in
  Alcotest.(check bool) "multi-region or single with near-perfect fit" true
    (Program.num_regions c.program >= 1)

let test_polymerize_npu_patterns () =
  let compiler = Lazy.force npu_compiler in
  let c = compile_shape compiler (4096, 1024, 4096) in
  Alcotest.(check bool) "npu compiles" true (Program.num_regions c.program >= 1);
  Alcotest.(check bool) "npu explores more patterns" true
    (c.candidates + c.pruned + c.pruned_analytic > 100)

let test_variants_differ () =
  let compiler = Lazy.force gpu_compiler in
  let shape = (4096, 1024, 4096) in
  let full = compile_shape ~scorer:(Polymerize.Model Cost_model.Full) compiler shape in
  let wave = compile_shape ~scorer:(Polymerize.Model Cost_model.Wave_only) compiler shape in
  let pipe = compile_shape ~scorer:(Polymerize.Model Cost_model.Pipe_only) compiler shape in
  let sim c = (Compiler.simulate compiler c).seconds in
  (* MikPoly-Wave favours big kernels, MikPoly-Pipe tiny ones; both should
     be no better than the full model on this shape. *)
  Alcotest.(check bool) "full <= wave" true (sim full <= sim wave +. 1e-12);
  Alcotest.(check bool) "full <= pipe" true (sim full <= sim pipe +. 1e-12)

let test_oracle_at_least_as_good () =
  let compiler = Lazy.force gpu_compiler in
  List.iter
    (fun shape ->
      let model = compile_shape compiler shape in
      let oracle = compile_shape ~scorer:Polymerize.Simulate compiler shape in
      let sim c = (Compiler.simulate compiler c).seconds in
      Alcotest.(check bool) "oracle <= model" true
        (sim oracle <= sim model *. 1.001))
    [ (512, 512, 512); (4096, 1024, 4096); (105, 1024, 2048) ]

let prop_polymerize_valid_random_shapes =
  QCheck.Test.make ~name:"polymerize: valid program for any shape" ~count:40
    QCheck.(triple (int_range 1 5000) (int_range 1 5000) (int_range 1 5000))
    (fun (m, n, k) ->
      let compiler = Lazy.force gpu_compiler in
      let c = compile_shape compiler (m, n, k) in
      (* Program.make already validates; just check it simulates. *)
      (Compiler.simulate compiler c).seconds > 0.)

let prop_polymerize_numerically_correct =
  QCheck.Test.make ~name:"compiled programs compute the exact GEMM" ~count:15
    QCheck.(triple (int_range 1 150) (int_range 1 150) (int_range 1 100))
    (fun (m, n, k) ->
      let compiler = Lazy.force gpu_compiler in
      let c = compile_shape compiler (m, n, k) in
      let open Mikpoly_tensor in
      let rng = Mikpoly_util.Prng.create (m + (1000 * n) + k) in
      let a = Tensor.create (Shape.of_list [ m; k ]) in
      let b = Tensor.create (Shape.of_list [ k; n ]) in
      Tensor.init_random rng a;
      Tensor.init_random rng b;
      Tensor.approx_equal ~tolerance:1e-3
        (Executor.gemm c.program a b)
        (Gemm_ref.gemm a b))

(* --- Search invariants (property tests) --- *)

let prop_region_cost_monotone_in_area =
  QCheck.Test.make ~name:"cost model: region cost nondecreasing in rows" ~count:60
    QCheck.(triple (int_range 1 4000) (int_range 1 4000) (int_range 1 4000))
    (fun (rows, cols, k_len) ->
      let e = entry () in
      Cost_model.region_cost Cost_model.Full e ~rows ~cols ~k_len
      <= Cost_model.region_cost Cost_model.Full e ~rows:(rows + 64) ~cols ~k_len
         +. 1e-9)

(* The baselines' single-kernel lowering ([Load.gemm]) and the compiler's
   ([Program.to_load] of a one-region program) must agree for every
   kernel of either platform's tuned set. *)
let prop_gemm_lowerings_agree =
  QCheck.Test.make
    ~name:"lowering: Load.gemm = Program.to_load of the one-region program"
    ~count:60
    QCheck.(
      quad bool (int_range 0 1000) (int_range 1 3000)
        (pair (int_range 1 3000) (int_range 1 3000)))
    (fun (on_npu, pick, m, (n, k)) ->
      let set =
        Compiler.kernels (Lazy.force (if on_npu then npu_compiler else gpu_compiler))
      in
      let kernel = set.entries.(pick mod Array.length set.entries).desc in
      let program =
        Program.make
          ~op:(Operator.gemm ~dtype:kernel.dtype ~m ~n ~k ())
          ~regions:
            [ Region.make ~row_off:0 ~col_off:0 ~rows:m ~cols:n ~k_len:k ~kernel ]
          ~pattern_name:"I"
      in
      Load.gemm kernel ~m ~n ~k = Program.to_load program)

let prop_polymerize_no_worse_than_pattern_one =
  QCheck.Test.make
    ~name:"polymerize: predicted cost <= best Pattern-I cost" ~count:25
    QCheck.(triple (int_range 1 3000) (int_range 1 3000) (int_range 1 3000))
    (fun (m, n, k) ->
      let compiler = Lazy.force gpu_compiler in
      let set = Compiler.kernels compiler in
      let config = Compiler.config compiler in
      let op = Operator.gemm ~m ~n ~k () in
      let full = Polymerize.polymerize set config op in
      let p1 =
        Polymerize.polymerize set { config with Config.patterns = [ Pattern.I ] } op
      in
      full.predicted_cost <= p1.predicted_cost +. 1e-6)

let prop_cuts_well_formed =
  QCheck.Test.make ~name:"row cuts: aligned, interior, bounded" ~count:100
    QCheck.(pair (int_range 1 20000) (int_range 1 20000))
    (fun (rows, cols) ->
      let e = entry () in
      let cuts = Strategy_space.row_cuts e ~rows ~cols ~max_cuts:6 in
      List.length cuts <= 7
      && List.for_all
           (fun c -> c > 0 && c < rows && c mod e.desc.um = 0)
           cuts)

let prop_compile_deterministic =
  QCheck.Test.make ~name:"polymerize: deterministic for a given shape" ~count:20
    QCheck.(triple (int_range 1 2000) (int_range 1 2000) (int_range 1 2000))
    (fun (m, n, k) ->
      let compiler = Lazy.force gpu_compiler in
      let op = Operator.gemm ~m ~n ~k () in
      let a = Compiler.compile_fresh compiler op in
      let b = Compiler.compile_fresh compiler op in
      Program.to_string a.program = Program.to_string b.program)

(* --- Selfcheck --- *)

let test_selfcheck_passes () =
  let compiler = Lazy.force gpu_compiler in
  (match Selfcheck.check_gemm compiler ~m:123 ~n:45 ~k:67 with
  | Ok () -> ()
  | Error f -> Alcotest.fail f.program);
  match Selfcheck.check_random_shapes compiler ~count:5 ~max_dim:120 with
  | Ok n -> Alcotest.(check int) "all checked" 5 n
  | Error f ->
    let m, n, k = f.shape in
    Alcotest.fail (Printf.sprintf "(%d,%d,%d) diff %g" m n k f.max_abs_diff)

let test_selfcheck_npu () =
  let compiler = Lazy.force npu_compiler in
  match Selfcheck.check_random_shapes compiler ~count:3 ~max_dim:100 with
  | Ok n -> Alcotest.(check int) "npu checked" 3 n
  | Error _ -> Alcotest.fail "npu selfcheck failed"

(* --- Degraded configurations: MikPoly must stay correct --- *)

let test_single_kernel_set_still_universal () =
  (* n_mik = 1: one micro-kernel must cover every shape through padding. *)
  let config = { (Config.default gpu) with Config.n_mik = 1 } in
  let compiler = Compiler.create ~config gpu in
  Alcotest.(check int) "one kernel" 1 (Kernel_set.size (Compiler.kernels compiler));
  List.iter
    (fun (m, n, k) ->
      let op = Operator.gemm ~m ~n ~k () in
      Alcotest.(check bool) "compiles" true
        ((Compiler.simulate compiler (Compiler.compile compiler op)).seconds > 0.))
    [ (1, 1, 1); (4096, 4096, 4096); (3, 70000, 17) ]

let test_degraded_ranking_still_correct () =
  (* The naive ranking retains only large tiles; degenerate shapes must
     still compile (local padding) and compute exactly. *)
  let config =
    { (Config.default gpu) with
      Config.rank_style = Mikpoly_autosched.Autotuner.Mean_tflops }
  in
  let compiler = Compiler.create ~config gpu in
  let op = Operator.gemm ~m:3 ~n:5 ~k:7 () in
  let c = Compiler.compile compiler op in
  let open Mikpoly_tensor in
  let rng = Mikpoly_util.Prng.create 11 in
  let a = Tensor.create (Shape.of_list [ 3; 7 ]) in
  let b = Tensor.create (Shape.of_list [ 7; 5 ]) in
  Tensor.init_random rng a;
  Tensor.init_random rng b;
  Alcotest.(check bool) "numerically exact under heavy padding" true
    (Tensor.approx_equal ~tolerance:1e-3 (Executor.gemm c.program a b)
       (Gemm_ref.gemm a b))

let test_pattern_two_only_falls_back () =
  (* Shapes too small for any split degenerate every Pattern-II candidate;
     the polymerizer must fall back to Pattern I rather than fail. *)
  let config = { (Config.default gpu) with Config.patterns = [ Pattern.II ] } in
  let compiler = Compiler.create ~config gpu in
  let c = Compiler.compile compiler (Operator.gemm ~m:5 ~n:5 ~k:5 ()) in
  Alcotest.(check string) "fell back to Pattern I" "Pattern-I"
    (Pattern.to_string c.pattern)

(* --- Batched GEMM --- *)

let test_batched_gemm_packs_waves () =
  (* 12 attention heads of (128,128,64): one head leaves the device almost
     idle; the batched launch packs the grid and must be far better than
     12 sequential launches. *)
  let compiler = Lazy.force gpu_compiler in
  let single = Operator.gemm ~m:128 ~n:128 ~k:64 () in
  let batched = Operator.batched_gemm ~count:12 ~m:128 ~n:128 ~k:64 () in
  let single_s = Compiler.operator_seconds compiler single in
  let batched_s = Compiler.operator_seconds compiler batched in
  Alcotest.(check bool) "batched beats 12x sequential" true
    (batched_s < 12. *. single_s /. 2.);
  Alcotest.(check bool) "batched costs more than one instance" true
    (batched_s > single_s /. 2.)

let test_batched_gemm_load_scaling () =
  let compiler = Lazy.force gpu_compiler in
  let op = Operator.batched_gemm ~count:7 ~m:256 ~n:256 ~k:64 () in
  let c = Compiler.compile compiler op in
  let load = Program.to_load c.program in
  let per_instance =
    List.fold_left
      (fun acc (r : Mikpoly_ir.Region.t) -> acc + Region.n_tasks r)
      0 c.program.regions
  in
  Alcotest.(check int) "7x the tasks" (7 * per_instance)
    (Mikpoly_accel.Load.total_tasks load)

let test_batched_gemm_executor () =
  let compiler = Lazy.force gpu_compiler in
  let op = Operator.batched_gemm ~count:3 ~m:20 ~n:30 ~k:15 () in
  let c = Compiler.compile compiler op in
  let open Mikpoly_tensor in
  let rng = Mikpoly_util.Prng.create 5 in
  let pairs =
    List.init 3 (fun _ ->
        let a = Tensor.create (Shape.of_list [ 20; 15 ]) in
        let b = Tensor.create (Shape.of_list [ 15; 30 ]) in
        Tensor.init_random rng a;
        Tensor.init_random rng b;
        (a, b))
  in
  let outs = Executor.batched_gemm c.program pairs in
  List.iter2
    (fun (a, b) out ->
      Alcotest.(check bool) "instance matches reference" true
        (Tensor.approx_equal ~tolerance:1e-3 out (Gemm_ref.gemm a b)))
    pairs outs;
  Alcotest.check_raises "count mismatch"
    (Invalid_argument "Executor.batched_gemm: instance count mismatch")
    (fun () -> ignore (Executor.batched_gemm c.program (List.tl pairs)))

(* --- Portability: the full stack runs on every hardware preset --- *)

let test_compiles_on_all_presets () =
  List.iter
    (fun hw ->
      let compiler = Compiler.create hw in
      Alcotest.(check bool)
        (hw.Hardware.name ^ " kernel set nonempty")
        true
        (Kernel_set.size (Compiler.kernels compiler) > 0);
      List.iter
        (fun (m, n, k) ->
          let op = Operator.gemm ~m ~n ~k () in
          let c = Compiler.compile compiler op in
          let sim = Compiler.simulate compiler c in
          Alcotest.(check bool)
            (Printf.sprintf "%s (%d,%d,%d) runs" hw.Hardware.name m n k)
            true (sim.seconds > 0.);
          Alcotest.(check bool) "below peak" true
            (Mikpoly_accel.Simulator.tflops sim ~useful_flops:(Operator.flops op)
             <= Hardware.peak_tflops hw Hardware.Matrix))
        [ (512, 512, 512); (37, 1000, 64); (2048, 768, 3072) ])
    Hardware.presets

(* --- Kernel_store --- *)

let tmp_file name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_kernel_store_roundtrip () =
  let config = Config.default gpu in
  let set = Compiler.kernels (Lazy.force gpu_compiler) in
  let path = tmp_file "mikpoly-kernels-test.txt" in
  Kernel_store.save ~path config set;
  match Kernel_store.load ~path gpu config with
  | Error e -> Alcotest.fail e
  | Ok restored ->
    Alcotest.(check int) "same size" (Kernel_set.size set) (Kernel_set.size restored);
    Array.iteri
      (fun i (e : Kernel_set.entry) ->
        let r = restored.entries.(i) in
        Alcotest.(check string) "same kernel"
          (Mikpoly_accel.Kernel_desc.name e.desc)
          (Mikpoly_accel.Kernel_desc.name r.desc);
        List.iter
          (fun t ->
            let a = Mikpoly_autosched.Perf_model.predict_cycles e.model ~t_steps:t in
            let b = Mikpoly_autosched.Perf_model.predict_cycles r.model ~t_steps:t in
            Alcotest.(check bool) "same prediction" true
              (abs_float (a -. b) /. max 1. a < 1e-6))
          [ 1; 7; 128; 5120 ])
      set.entries;
    Sys.remove path

let test_kernel_store_rejects_mismatch () =
  let config = Config.default gpu in
  let set = Compiler.kernels (Lazy.force gpu_compiler) in
  let path = tmp_file "mikpoly-kernels-test2.txt" in
  Kernel_store.save ~path config set;
  Alcotest.(check bool) "wrong platform rejected" true
    (Result.is_error (Kernel_store.load ~path npu config));
  Alcotest.(check bool) "wrong config rejected" true
    (Result.is_error
       (Kernel_store.load ~path gpu { config with Config.n_mik = 13 }));
  Sys.remove path

let test_kernel_store_rejects_garbage () =
  let path = tmp_file "mikpoly-kernels-garbage.txt" in
  let oc = open_out path in
  output_string oc "not a kernel set\nat all\nreally\n";
  close_out oc;
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Kernel_store.load ~path gpu (Config.default gpu)));
  Sys.remove path;
  Alcotest.(check bool) "missing file" true
    (Result.is_error
       (Kernel_store.load ~path:"/nonexistent/kernels.txt" gpu (Config.default gpu)))

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let test_kernel_store_rejects_truncated () =
  let config = Config.default gpu in
  let set = Compiler.kernels (Lazy.force gpu_compiler) in
  let path = tmp_file "mikpoly-kernels-trunc.txt" in
  Kernel_store.save ~path config set;
  let lines = read_lines path in
  write_lines path (List.filteri (fun i _ -> i < List.length lines - 1) lines);
  Alcotest.(check bool) "truncated file rejected" true
    (Result.is_error (Kernel_store.load ~path gpu config));
  Sys.remove path

let test_kernel_store_rejects_version_bump () =
  let config = Config.default gpu in
  let set = Compiler.kernels (Lazy.force gpu_compiler) in
  let path = tmp_file "mikpoly-kernels-vers.txt" in
  Kernel_store.save ~path config set;
  (match read_lines path with
  | magic :: rest ->
    (* A future format revision must not parse as the current one. *)
    Alcotest.(check bool) "magic carries a version" true
      (String.length magic > 2
      && String.sub magic (String.length magic - 2) 2 = "v3");
    write_lines path ((String.sub magic 0 (String.length magic - 2) ^ "v4") :: rest)
  | [] -> Alcotest.fail "empty artifact");
  Alcotest.(check bool) "bumped version rejected" true
    (Result.is_error (Kernel_store.load ~path gpu config));
  Sys.remove path

let test_kernel_store_rejects_wrong_fingerprint () =
  let config = Config.default gpu in
  let set = Compiler.kernels (Lazy.force gpu_compiler) in
  let path = tmp_file "mikpoly-kernels-fp.txt" in
  Kernel_store.save ~path config set;
  (* Same platform name, one perturbed microarchitectural constant: the
     header's hardware fingerprint — not just the name — must gate the
     load, so a set tuned for one hardware revision is never silently
     applied to another. *)
  let drifted =
    { gpu with Hardware.fabric_bytes_per_cycle = gpu.fabric_bytes_per_cycle *. 0.9 }
  in
  (match Kernel_store.load ~path drifted config with
  | Ok _ -> Alcotest.fail "perturbed hardware must be rejected"
  | Error e ->
    Alcotest.(check bool) "reason mentions the fingerprint" true
      (String.length e > 0));
  (* The unperturbed device still loads. *)
  Alcotest.(check bool) "original hardware accepted" true
    (Result.is_ok (Kernel_store.load ~path gpu config));
  Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_kernel_store_unusable_left_intact () =
  (* An unusable store is never repaired by re-tuning over it: a corrupt
     artifact and a foreign platform's artifact stay byte-identical, and
     the compiler serves in safe mode with the reason. *)
  let check name path hw =
    let before = read_file path in
    let compiler, reason = Compiler.create_resilient ~store_path:path hw in
    Alcotest.(check bool) (name ^ ": safe mode") true (Compiler.safe_mode compiler);
    Alcotest.(check bool) (name ^ ": reason given") true (reason <> None);
    Alcotest.(check string) (name ^ ": left byte-identical") before (read_file path);
    Sys.remove path
  in
  let corrupt = tmp_file "mikpoly-kernels-corrupt.txt" in
  write_lines corrupt [ "corrupt"; "artifact" ];
  check "corrupt" corrupt gpu;
  let foreign = tmp_file "mikpoly-kernels-foreign.txt" in
  Kernel_store.save ~path:foreign (Config.default gpu)
    (Compiler.kernels (Lazy.force gpu_compiler));
  check "foreign" foreign npu

let test_kernel_store_load_or_create () =
  let config = Config.default gpu in
  let path = tmp_file "mikpoly-kernels-loc.txt" in
  if Sys.file_exists path then Sys.remove path;
  let load_or_create () =
    match Kernel_store.load_or_create ~path gpu config with
    | Ok set -> set
    | Error e -> Alcotest.fail e
  in
  let created = load_or_create () in
  Alcotest.(check bool) "artifact written" true (Sys.file_exists path);
  let written = read_file path in
  let reloaded = load_or_create () in
  Alcotest.(check int) "same size" (Kernel_set.size created)
    (Kernel_set.size reloaded);
  Alcotest.(check string) "loaded, not rewritten" written (read_file path);
  Sys.remove path

let test_kernel_store_load_or_create_repairs () =
  (* The one store load_or_create repairs is a missing one — never
     written, or killed during its first save, which leaves only a stale
     tempfile. An existing store it cannot use is not re-tuned over: the
     reason comes back and the file stays byte-identical. *)
  let config = Config.default gpu in
  let path = tmp_file "mikpoly-kernels-repair.txt" in
  if Sys.file_exists path then Sys.remove path;
  let tmp = Mikpoly_util.Atomic_file.temp_path path in
  write_lines tmp [ "mikpoly-kernel-set v3"; "truncated mid-wri" ];
  (match Kernel_store.load_or_create ~path gpu config with
  | Ok set -> (
    match Kernel_store.load ~path gpu config with
    | Ok reloaded ->
      Alcotest.(check int) "repaired artifact loads" (Kernel_set.size set)
        (Kernel_set.size reloaded)
    | Error e -> Alcotest.fail ("repaired artifact rejected: " ^ e))
  | Error e -> Alcotest.fail ("missing store not created: " ^ e));
  Alcotest.(check bool) "stale tempfile consumed" false (Sys.file_exists tmp);
  write_lines path [ "corrupt"; "artifact" ];
  Alcotest.(check bool) "corrupt store rejected" true
    (Result.is_error (Kernel_store.load_or_create ~path gpu config));
  Alcotest.(check string) "corrupt store left byte-identical"
    "corrupt\nartifact\n" (read_file path);
  Sys.remove path

(* --- Compiler --- *)

let test_compiler_cache () =
  let compiler = Lazy.force gpu_compiler in
  let op = Operator.gemm ~m:640 ~n:640 ~k:640 () in
  let c1 = Compiler.compile compiler op in
  let c2 = Compiler.compile compiler op in
  Alcotest.(check bool) "cached" true (c1 == c2)

let test_compiler_cache_stats () =
  (* A fresh compiler so hit/miss counters start from zero. *)
  let compiler = Compiler.create Hardware.a100 in
  let s0 = Compiler.cache_stats compiler in
  Alcotest.(check int) "starts empty" 0 s0.Compiler.size;
  Alcotest.(check int) "no hits yet" 0 s0.Compiler.hits;
  let op = Operator.gemm ~m:320 ~n:192 ~k:256 () in
  ignore (Compiler.compile compiler op);
  ignore (Compiler.compile compiler op);
  let s = Compiler.cache_stats compiler in
  Alcotest.(check int) "one miss" 1 s.Compiler.misses;
  Alcotest.(check int) "one hit" 1 s.Compiler.hits;
  Alcotest.(check int) "one entry" 1 s.Compiler.size

let test_compiler_invalidate () =
  let compiler = Compiler.create Hardware.a100 in
  let op_a = Operator.gemm ~m:320 ~n:192 ~k:256 () in
  let op_b = Operator.gemm ~m:192 ~n:320 ~k:256 () in
  ignore (Compiler.compile compiler op_a);
  ignore (Compiler.compile compiler op_b);
  Alcotest.(check bool) "A dropped" true
    (Compiler.invalidate compiler (320, 192, 256));
  Alcotest.(check bool) "A gone" false (Compiler.cached compiler op_a);
  Alcotest.(check bool) "B untouched" true (Compiler.cached compiler op_b);
  Alcotest.(check bool) "double drop is a no-op" false
    (Compiler.invalidate compiler (320, 192, 256));
  let s = Compiler.cache_stats compiler in
  Alcotest.(check int) "one invalidation" 1 s.Compiler.invalidations;
  Alcotest.(check int) "one entry left" 1 s.Compiler.size;
  ignore (Compiler.compile compiler op_a);
  let s = Compiler.cache_stats compiler in
  Alcotest.(check int) "A recompiled after invalidation: two misses + one" 3
    s.Compiler.misses

let test_compiler_invalidate_if () =
  let compiler = Compiler.create Hardware.a100 in
  let shapes = [ (320, 192, 256); (192, 320, 256); (256, 256, 512) ] in
  List.iter
    (fun (m, n, k) -> ignore (Compiler.compile compiler (Operator.gemm ~m ~n ~k ())))
    shapes;
  let dropped =
    Compiler.invalidate_if compiler (fun shape _ ->
        match shape with m, _, _ -> m >= 256)
  in
  Alcotest.(check int) "two predicates matched" 2 dropped;
  Alcotest.(check bool) "survivor present" true
    (Compiler.cached compiler (Operator.gemm ~m:192 ~n:320 ~k:256 ()));
  Alcotest.(check bool) "victim gone" false
    (Compiler.cached compiler (Operator.gemm ~m:320 ~n:192 ~k:256 ()));
  let s = Compiler.cache_stats compiler in
  Alcotest.(check int) "invalidations counted" 2 s.Compiler.invalidations;
  Alcotest.(check int) "size shrank" 1 s.Compiler.size;
  Alcotest.(check int) "nothing matches now" 0
    (Compiler.invalidate_if compiler (fun (m, _, _) _ -> m >= 256))

(* --- Parallel search determinism --- *)

(* One line per search: program, exact cost and every tally. *)
let search_tally (c : Polymerize.compiled) =
  Printf.sprintf "%s|%h|%d|%d|%d|%d"
    (Program.to_string c.Polymerize.program)
    c.Polymerize.predicted_cost c.Polymerize.candidates c.Polymerize.pruned
    c.Polymerize.pruned_analytic c.Polymerize.first_hit

let compiled_fingerprint (c : Polymerize.compiled) =
  ( Pattern.to_string c.Polymerize.pattern,
    c.Polymerize.predicted_cost,
    Program.to_string c.Polymerize.program )

(* The domain-parallel search contract: [search_batch] fans whole shapes
   over the pool, and the chosen program, predicted cost and every tally
   are bit-identical at every job count. *)
let check_jobs_invariant ?scorer compiler cases =
  let kernels = Compiler.kernels compiler in
  let config = Compiler.config compiler in
  let ops =
    Array.of_list
      (List.map
         (fun (case : Mikpoly_workloads.Gemm_case.t) ->
           Operator.gemm ~m:case.m ~n:case.n ~k:case.k ())
         cases)
  in
  let at jobs =
    Array.to_list
      (Array.map search_tally
         (Polymerize.search_batch ?scorer ~instrument:false ~jobs kernels config
            ops))
  in
  Alcotest.(check (list string)) "jobs=1 vs jobs=4" (at 1) (at 4)

let test_parallel_search_deterministic_gpu () =
  let cases =
    List.filteri (fun i _ -> i mod 16 = 0) (Mikpoly_workloads.Suite.table3_gemm ())
  in
  check_jobs_invariant (Lazy.force gpu_compiler) cases

let test_parallel_search_deterministic_npu () =
  (* all nine patterns in play *)
  let cases =
    List.filteri (fun i _ -> i mod 64 = 0) (Mikpoly_workloads.Suite.table3_gemm ())
  in
  check_jobs_invariant (Lazy.force npu_compiler) cases

let test_parallel_oracle_deterministic () =
  let cases =
    List.filteri (fun i _ -> i mod 128 = 0) (Mikpoly_workloads.Suite.table3_gemm ())
  in
  check_jobs_invariant ~scorer:Polymerize.Simulate (Lazy.force gpu_compiler)
    cases

(* The regression test for [~jobs:0] ("the process default"), which
   [search_batch] used to run on one domain. A pass-through calibration
   records the domains that score candidates; until a second domain has
   scored one it makes every caller wait (up to 5 s), so a batch that can
   run on two domains does. *)
let test_search_batch_jobs0_inherits () =
  let module Dp = Mikpoly_util.Domain_pool in
  if Domain.recommended_domain_count () >= 2 then begin
    let compiler = Lazy.force gpu_compiler in
    let seen = Atomic.make [] in
    let rec note d =
      let l = Atomic.get seen in
      if not (List.mem d l || Atomic.compare_and_set seen l (d :: l)) then note d
    in
    let t0 = Unix.gettimeofday () in
    let correction _ x =
      note (Domain.self () :> int);
      while
        List.length (Atomic.get seen) < 2 && Unix.gettimeofday () -. t0 < 5.
      do
        Domain.cpu_relax ()
      done;
      x
    in
    let ops =
      Array.init 64 (fun i -> Operator.gemm ~m:(64 + i) ~n:256 ~k:128 ())
    in
    let saved = Dp.default_jobs () in
    Dp.set_default_jobs 2;
    Fun.protect
      ~finally:(fun () -> Dp.set_default_jobs saved)
      (fun () ->
        ignore
          (Polymerize.search_batch ~scorer:(Polymerize.Calibrated correction)
             ~instrument:false ~jobs:0 (Compiler.kernels compiler)
             (Compiler.config compiler) ops));
    Alcotest.(check int) "domains that searched" 2
      (List.length (Atomic.get seen))
  end

(* --- Analytic pruning soundness and batched search (this PR) --- *)

let prune_arms compiler (m, n, k) =
  let set = Compiler.kernels compiler in
  let config = Compiler.config compiler in
  let op = Operator.gemm ~m ~n ~k () in
  let at analytic =
    Polymerize.polymerize ~instrument:false set
      { config with Config.analytic_prune = analytic }
      op
  in
  (at true, at false)

let prop_prune_sound_gpu =
  QCheck.Test.make
    ~name:"analytic pruning: identical program and cost (GPU)" ~count:30
    QCheck.(triple (int_range 1 5000) (int_range 1 5000) (int_range 1 5000))
    (fun shape ->
      let pruned, unpruned = prune_arms (Lazy.force gpu_compiler) shape in
      compiled_fingerprint pruned = compiled_fingerprint unpruned)

let prop_prune_sound_npu =
  QCheck.Test.make
    ~name:"analytic pruning: identical program and cost (NPU, 9 patterns)"
    ~count:12
    QCheck.(triple (int_range 1 3000) (int_range 1 3000) (int_range 1 3000))
    (fun shape ->
      let pruned, unpruned = prune_arms (Lazy.force npu_compiler) shape in
      compiled_fingerprint pruned = compiled_fingerprint unpruned)

(* The search counts a skipped subtree's leaves with [row_cut_count] /
   [col_cut_count] and enumerates the others from [row_cuts] /
   [col_cuts]; both are folds of one walk, so the count must be the
   list's length for every entry of either platform, extent, cut budget
   and cut style. *)
let prop_cut_counts_match_lists =
  QCheck.Test.make ~name:"cut counts equal cut-list lengths" ~count:500
    QCheck.(
      quad (int_range 0 1_000) (int_range 1 20_000) (int_range 1 20_000)
        (pair (int_range 1 6) bool))
    (fun (pick, rows, cols, (max_cuts, wave)) ->
      let compiler = Lazy.force (if pick mod 2 = 0 then gpu_compiler else npu_compiler) in
      let entries = (Compiler.kernels compiler).entries in
      let e = entries.(pick / 2 mod Array.length entries) in
      let style = if wave then `Wave_aligned else `Remainder_only in
      Strategy_space.row_cut_count style e ~rows ~cols ~max_cuts
      = List.length (Strategy_space.row_cuts ~style e ~rows ~cols ~max_cuts)
      && Strategy_space.col_cut_count style e ~rows ~cols ~max_cuts
         = List.length (Strategy_space.col_cuts ~style e ~rows ~cols ~max_cuts))

(* A subtree is skipped when its floor strictly exceeds the incumbent,
   which is sound only if the floor never exceeds the float sum a leaf's
   own gate computes: pinned regions at their exact Eq.-2 cost, free
   regions at their floor, added in region order. Checked for the
   whole-pattern floor of Patterns IV (four regions) and V (three), and
   for the (primary, first cut) floor of Pattern VII. *)
let prop_subtree_floor_below_leaf_gates =
  QCheck.Test.make ~name:"subtree floors never exceed a leaf gate" ~count:300
    QCheck.(
      quad (triple (int_range 2 16384) (int_range 2 16384) (int_range 16 16384))
        (pair (int_range 0 1_000) (int_range 0 1_000))
        (pair (int_range 1 16383) (int_range 1 16383))
        (int_range 1 16383))
    (fun ((m, n, k), (pick1, pick2), (a, b), d) ->
      let a = 1 + (a mod (m - 1)) and b = 1 + (b mod (n - 1)) in
      let compiler =
        Lazy.force (if pick1 mod 2 = 0 then gpu_compiler else npu_compiler)
      in
      let set = Compiler.kernels compiler in
      let hw = Compiler.hardware compiler in
      let launch = hw.Hardware.launch_overhead_s *. hw.clock_hz in
      let pipe = Array.map (fun e -> Cost_model.f_pipe e ~k_len:k) set.entries in
      let v = Strategy_space.view (Strategy_space.skeleton set) set ~pipe ~launch in
      let entry i = set.entries.(i mod Array.length set.entries) in
      let e1 = entry (pick1 / 2) and e2 = entry pick2 in
      let exact (e : Kernel_set.entry) rows cols =
        (Cost_model.f_wave e ~rows ~cols *. pipe.(e.rank)) +. launch
      in
      let floor rows cols = Strategy_space.region_floor v ~icount:1 ~rows ~cols in
      let whole regions =
        Strategy_space.subtree_floor v ~pinned:0. ~icount:1 ~regions ~rows:m
          ~cols:n
      in
      let gate_iv =
        exact e1 a b +. floor a (n - b) +. floor (m - a) b +. floor (m - a) (n - b)
      in
      let gate_v = exact e1 a b +. floor a (n - b) +. floor (m - a) n in
      let strip_ok =
        a = m - 1
        ||
        let dr = 1 + (d mod (m - a - 1)) in
        let c1 = exact e1 a n in
        Strategy_space.subtree_floor v ~pinned:c1 ~icount:1 ~regions:2
          ~rows:(m - a) ~cols:n
        <= c1 +. exact e2 dr n +. floor (m - a - dr) n
      in
      whole 4 <= gate_iv && whole 3 <= gate_v && strip_ok)

(* The search scores a split leaf from its cut positions, but emits the
   winner through [Pattern.decompose]; the two must describe the same
   regions, so the predicted cost is the emitted program's Eq.-2 cost
   plus one launch per region. *)
let prop_predicted_cost_is_program_cost =
  QCheck.Test.make ~name:"predicted cost is the emitted program's cost"
    ~count:40
    QCheck.(
      pair bool (triple (int_range 1 16384) (int_range 16 16384) (int_range 16 16384)))
    (fun (on_gpu, (m, n, k)) ->
      let compiler = Lazy.force (if on_gpu then gpu_compiler else npu_compiler) in
      let set = Compiler.kernels compiler in
      let hw = Compiler.hardware compiler in
      let c =
        Polymerize.polymerize ~instrument:false set (Compiler.config compiler)
          (Compiler.gemm compiler (m, n, k))
      in
      let regions = List.length c.Polymerize.program.Program.regions in
      let cost =
        Cost_model.program_cost Cost_model.Full set c.Polymerize.program
        +. (float_of_int regions *. hw.Hardware.launch_overhead_s *. hw.clock_hz)
      in
      Float.abs (cost -. c.Polymerize.predicted_cost)
      <= 1e-9 *. c.Polymerize.predicted_cost)

let test_prune_candidates_reduction () =
  (* The acceptance bar: analytic pruning must cut scored candidates at
     least 5x on the headline shapes while keeping the program. *)
  let compiler = Lazy.force gpu_compiler in
  List.iter
    (fun shape ->
      let pruned, unpruned = prune_arms compiler shape in
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d,%d): >= 5x fewer candidates scored"
           (let a, _, _ = shape in a)
           (let _, b, _ = shape in b)
           (let _, _, c = shape in c))
        true
        (5 * pruned.Polymerize.candidates <= unpruned.Polymerize.candidates);
      Alcotest.(check (triple string (float 0.) string))
        "same program" (compiled_fingerprint unpruned)
        (compiled_fingerprint pruned))
    [ (4096, 1024, 4096); (4096, 4096, 4096); (512, 768, 1024) ]

let test_prune_selfcheck_oracle () =
  let compiler = Lazy.force gpu_compiler in
  match Selfcheck.check_prune_random compiler ~seed:7 ~count:6 with
  | Ok pruned ->
    Alcotest.(check bool) "oracle saw analytic pruning" true (pruned > 0)
  | Error f ->
    Alcotest.failf "prune oracle diverged on (%d,%d,%d): %g vs %g"
      (let a, _, _ = f.Selfcheck.pf_shape in a)
      (let _, b, _ = f.Selfcheck.pf_shape in b)
      (let _, _, c = f.Selfcheck.pf_shape in c)
      f.Selfcheck.pf_pruned_cost f.Selfcheck.pf_unpruned_cost

let test_search_batch_matches_polymerize () =
  let compiler = Lazy.force gpu_compiler in
  let set = Compiler.kernels compiler in
  let config = Compiler.config compiler in
  let shapes =
    [| (512, 512, 512); (4096, 1024, 4096); (17, 23, 31); (1, 48000, 128);
       (105, 1024, 2048); (768, 3072, 768) |]
  in
  let ops =
    Array.map (fun (m, n, k) -> Operator.gemm ~m ~n ~k ()) shapes
  in
  let expect =
    Array.map
      (fun op ->
        compiled_fingerprint (Polymerize.polymerize ~instrument:false set config op))
      ops
  in
  let at jobs =
    Array.map compiled_fingerprint
      (Polymerize.search_batch ~instrument:false ~jobs set config ops)
  in
  Alcotest.(check bool) "jobs=1 matches per-shape polymerize" true
    (at 1 = expect);
  Alcotest.(check bool) "jobs=4 matches per-shape polymerize" true
    (at 4 = expect);
  Alcotest.(check int) "empty batch" 0
    (Array.length (Polymerize.search_batch ~jobs:4 set config [||]))

(* Shapes sharing one reduction extent share one [Strategy_space.view]
   inside [search_batch]; sharing is a pure memoization, so every search
   statistic — candidates scored, both pruning tallies, the first-hit
   index — must match the per-shape searches exactly, not just the chosen
   program. (search_seconds is wall time and excluded.) *)
let test_search_batch_shared_view_tallies () =
  let compiler = Lazy.force gpu_compiler in
  let set = Compiler.kernels compiler in
  let config = Compiler.config compiler in
  let shapes =
    (* same K across the batch: one shared view serves all of them *)
    [| (512, 512, 768); (96, 2048, 768); (1024, 129, 768); (333, 77, 768) |]
  in
  let ops = Array.map (fun (m, n, k) -> Operator.gemm ~m ~n ~k ()) shapes in
  let tallies (c : Polymerize.compiled) =
    ( Program.to_string c.Polymerize.program,
      c.Polymerize.predicted_cost,
      c.Polymerize.candidates,
      c.Polymerize.pruned,
      c.Polymerize.pruned_analytic,
      c.Polymerize.first_hit )
  in
  let expect =
    Array.map
      (fun op ->
        tallies (Polymerize.polymerize ~instrument:false set config op))
      ops
  in
  let batched =
    Array.map tallies
      (Polymerize.search_batch ~instrument:false ~jobs:1 set config ops)
  in
  Alcotest.(check bool) "tallies identical under shared views" true
    (batched = expect)

(* The Table-3 pruning oracle, the only producer of these counts: over
   the 284-shape suite [bench/main.exe --quick] sweeps (every 4th
   Table-3 case, A100), the pruned search scores 546 candidates and
   skips 13 839 unscored, and the unpruned one scores 14 385 and picks
   the same programs — at jobs 1 and at jobs 4, every tally identical
   across the two. *)
let test_table3_pruning_oracle () =
  let compiler = Lazy.force gpu_compiler in
  let set = Compiler.kernels compiler and config = Compiler.config compiler in
  let ops =
    Mikpoly_workloads.Suite.table3_gemm ()
    |> List.filteri (fun i _ -> i mod 4 = 0)
    |> List.map (fun (c : Mikpoly_workloads.Gemm_case.t) ->
           Operator.gemm ~m:c.m ~n:c.n ~k:c.k ())
    |> Array.of_list
  in
  Alcotest.(check int) "shapes" 284 (Array.length ops);
  let unpruned = { config with Config.analytic_prune = false } in
  let sum field cs = Array.fold_left (fun a c -> a + field c) 0 cs in
  let scored = sum (fun (c : Polymerize.compiled) -> c.candidates) in
  let skipped = sum (fun (c : Polymerize.compiled) -> c.pruned_analytic) in
  let programs =
    Array.map (fun (c : Polymerize.compiled) -> Program.to_string c.program)
  in
  let at config jobs =
    Polymerize.search_batch ~instrument:false ~jobs set config ops
  in
  let p1 = at config 1 and p4 = at config 4 in
  let u1 = at unpruned 1 and u4 = at unpruned 4 in
  List.iter
    (fun (label, p, u) ->
      Alcotest.(check int) (label ^ ": scored") 546 (scored p);
      Alcotest.(check int) (label ^ ": skipped unscored") 13_839 (skipped p);
      Alcotest.(check int) (label ^ ": unpruned scored") 14_385 (scored u);
      Alcotest.(check (array string))
        (label ^ ": unpruned programs")
        (programs p) (programs u))
    [ ("jobs 1", p1, u1); ("jobs 4", p4, u4) ];
  Alcotest.(check (array string)) "pruned tallies jobs 1 = jobs 4"
    (Array.map search_tally p1) (Array.map search_tally p4);
  Alcotest.(check (array string)) "unpruned tallies jobs 1 = jobs 4"
    (Array.map search_tally u1) (Array.map search_tally u4)

(* Every search statistic — program, exact predicted cost, candidates
   scored, both prune tallies and the first-hit index — digested over a
   fixed input set: a sample of the Table-3 suite on both platforms
   under the plain model (analytic pruning on), a few shapes under the
   simulator oracle, and a few under a calibrated scorer (the unpruned
   path). The digest was recorded before the search's per-unit state was
   folded into one, so any change to enumeration, counting or pruning
   order shows here. *)
let test_search_tallies_pinned () =
  let every step =
    List.filteri (fun i _ -> i mod step = 0) (Mikpoly_workloads.Suite.table3_gemm ())
  in
  let run ?scorer compiler cases =
    List.map
      (fun (case : Mikpoly_workloads.Gemm_case.t) ->
        search_tally
          (Polymerize.polymerize ?scorer ~instrument:false
             (Compiler.kernels compiler) (Compiler.config compiler)
             (Operator.gemm ~m:case.m ~n:case.n ~k:case.k ())))
      cases
  in
  let gpu_c = Lazy.force gpu_compiler and npu_c = Lazy.force npu_compiler in
  let calibrated =
    Polymerize.Calibrated
      (fun (e : Kernel_set.entry) x ->
        x *. (1. +. (0.05 *. float_of_int (e.rank mod 5))))
  in
  let lines =
    run gpu_c (every 16)
    @ run npu_c (every 64)
    @ run ~scorer:Polymerize.Simulate gpu_c (every 128)
    @ run ~scorer:Polymerize.Simulate npu_c (every 256)
    @ run ~scorer:calibrated gpu_c (every 64)
    @ run ~scorer:calibrated npu_c (every 128)
  in
  Alcotest.(check string) "search tally digest"
    "42891228860247f73c959c50502d9c5e"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* The same digest over the benchmark's compile-cold distribution, where
   the skipped subtrees are large and irregular: 300 log-uniform shapes
   per device (M in [1, 16384], N and K in [16, 16384]) under the plain
   model. Recorded before the search learned to skip whole subtrees. *)
let test_search_tallies_pinned_cold () =
  let rng = Mikpoly_util.Prng.create 0xC01D in
  let shapes =
    List.init 300 (fun _ ->
        let m = Mikpoly_util.Prng.log_int_in rng 1 16384 in
        let n = Mikpoly_util.Prng.log_int_in rng 16 16384 in
        let k = Mikpoly_util.Prng.log_int_in rng 16 16384 in
        (m, n, k))
  in
  let run compiler =
    List.map
      (fun (m, n, k) ->
        search_tally
          (Polymerize.polymerize ~instrument:false (Compiler.kernels compiler)
             (Compiler.config compiler) (Compiler.gemm compiler (m, n, k))))
      shapes
  in
  let lines =
    run (Lazy.force gpu_compiler) @ run (Lazy.force npu_compiler)
  in
  Alcotest.(check string) "compile-cold tally digest"
    "d3b581ef95e75a40646f55100d6285cd"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let test_kernel_set_concurrent_create () =
  Kernel_set.clear_cache ();
  let config = Config.default gpu in
  let tunes () =
    match
      Mikpoly_telemetry.Metrics.find
        (Mikpoly_telemetry.Metrics.snapshot ())
        "offline.tunes"
    with
    | Some (Mikpoly_telemetry.Metrics.Counter { value; _ }) -> value
    | _ -> 0
  in
  let before = tunes () in
  let d1 = Domain.spawn (fun () -> Kernel_set.create gpu config) in
  let d2 = Domain.spawn (fun () -> Kernel_set.create gpu config) in
  let s1 = Domain.join d1 and s2 = Domain.join d2 in
  Alcotest.(check bool) "both domains share the memoized set" true (s1 == s2);
  Alcotest.(check int) "offline stage ran exactly once" 1 (tunes () - before)

let () =
  Alcotest.run "core"
    [
      ( "pattern",
        [
          Alcotest.test_case "region counts" `Quick test_pattern_region_counts;
          Alcotest.test_case "degenerate cuts" `Quick test_pattern_degenerate_cuts;
          Alcotest.test_case "wrong arity" `Quick test_pattern_wrong_arity;
          Alcotest.test_case "platform defaults" `Quick test_pattern_defaults;
          qtest prop_patterns_partition;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "with_path" `Quick test_config_with_path;
        ] );
      ( "kernel_set",
        [
          Alcotest.test_case "size and cache" `Quick test_kernel_set_size_and_cache;
          Alcotest.test_case "find" `Quick test_kernel_set_find;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "Eq. 2 identities" `Quick test_cost_model_identities;
          Alcotest.test_case "program sum" `Quick test_cost_model_program_sum;
          Alcotest.test_case "correlates with simulator" `Quick
            test_cost_model_correlates_with_simulator;
        ] );
      ( "polymerize",
        [
          Alcotest.test_case "row cuts aligned" `Quick test_row_cuts_aligned;
          Alcotest.test_case "row cuts small region" `Quick test_row_cuts_small_region;
          Alcotest.test_case "always valid" `Quick test_polymerize_always_valid;
          Alcotest.test_case "explores and prunes" `Quick
            test_polymerize_explores_and_prunes;
          Alcotest.test_case "case study shape" `Quick test_polymerize_case_study_splits;
          Alcotest.test_case "npu patterns" `Quick test_polymerize_npu_patterns;
          Alcotest.test_case "ablation variants" `Quick test_variants_differ;
          Alcotest.test_case "oracle at least as good" `Quick
            test_oracle_at_least_as_good;
          qtest prop_polymerize_valid_random_shapes;
          qtest prop_polymerize_numerically_correct;
          qtest prop_gemm_lowerings_agree;
        ] );
      ( "search_invariants",
        [
          qtest prop_region_cost_monotone_in_area;
          qtest prop_polymerize_no_worse_than_pattern_one;
          qtest prop_cuts_well_formed;
          qtest prop_compile_deterministic;
        ] );
      ( "selfcheck",
        [
          Alcotest.test_case "gpu" `Quick test_selfcheck_passes;
          Alcotest.test_case "npu" `Quick test_selfcheck_npu;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "single-kernel set universal" `Quick
            test_single_kernel_set_still_universal;
          Alcotest.test_case "naive ranking still exact" `Quick
            test_degraded_ranking_still_correct;
          Alcotest.test_case "Pattern-II-only falls back" `Quick
            test_pattern_two_only_falls_back;
        ] );
      ( "batched",
        [
          Alcotest.test_case "packs waves" `Quick test_batched_gemm_packs_waves;
          Alcotest.test_case "load scaling" `Quick test_batched_gemm_load_scaling;
          Alcotest.test_case "executor" `Quick test_batched_gemm_executor;
        ] );
      ( "portability",
        [ Alcotest.test_case "all hardware presets" `Slow test_compiles_on_all_presets ] );
      ( "kernel_store",
        [
          Alcotest.test_case "roundtrip" `Quick test_kernel_store_roundtrip;
          Alcotest.test_case "rejects mismatch" `Quick
            test_kernel_store_rejects_mismatch;
          Alcotest.test_case "rejects garbage" `Quick test_kernel_store_rejects_garbage;
          Alcotest.test_case "rejects truncated" `Quick
            test_kernel_store_rejects_truncated;
          Alcotest.test_case "rejects version bump" `Quick
            test_kernel_store_rejects_version_bump;
          Alcotest.test_case "rejects wrong fingerprint" `Quick
            test_kernel_store_rejects_wrong_fingerprint;
          Alcotest.test_case "load_or_create" `Quick test_kernel_store_load_or_create;
          Alcotest.test_case "load_or_create repairs" `Quick
            test_kernel_store_load_or_create_repairs;
          Alcotest.test_case "unusable store left intact" `Quick
            test_kernel_store_unusable_left_intact;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "cache" `Quick test_compiler_cache;
          Alcotest.test_case "cache stats" `Quick test_compiler_cache_stats;
          Alcotest.test_case "invalidate" `Quick test_compiler_invalidate;
          Alcotest.test_case "invalidate_if" `Quick test_compiler_invalidate_if;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "search jobs-invariant (GPU suite)" `Quick
            test_parallel_search_deterministic_gpu;
          Alcotest.test_case "search jobs-invariant (NPU, 9 patterns)" `Quick
            test_parallel_search_deterministic_npu;
          Alcotest.test_case "oracle scorer jobs-invariant" `Quick
            test_parallel_oracle_deterministic;
          Alcotest.test_case "~jobs:0 inherits the default" `Quick
            test_search_batch_jobs0_inherits;
          Alcotest.test_case "concurrent offline create tunes once" `Quick
            test_kernel_set_concurrent_create;
        ] );
      ( "strategy_space",
        [
          qtest prop_prune_sound_gpu;
          qtest prop_prune_sound_npu;
          qtest prop_cut_counts_match_lists;
          qtest prop_subtree_floor_below_leaf_gates;
          qtest prop_predicted_cost_is_program_cost;
          Alcotest.test_case "candidates scored drop >= 5x" `Quick
            test_prune_candidates_reduction;
          Alcotest.test_case "selfcheck prune oracle" `Quick
            test_prune_selfcheck_oracle;
          Alcotest.test_case "search_batch matches polymerize" `Quick
            test_search_batch_matches_polymerize;
          Alcotest.test_case "shared views leave tallies unchanged" `Quick
            test_search_batch_shared_view_tallies;
          Alcotest.test_case "Table-3 pruning oracle pinned" `Quick
            test_table3_pruning_oracle;
          Alcotest.test_case "search tallies pinned" `Quick
            test_search_tallies_pinned;
          Alcotest.test_case "search tallies pinned (compile-cold shapes)"
            `Quick test_search_tallies_pinned_cold;
        ] );
    ]
