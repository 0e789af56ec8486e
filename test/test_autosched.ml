(* Tests for the offline stage: tile-space enumeration, synthetic scoring,
   Top-n_mik ranking and the learned g_predict performance models. *)

open Mikpoly_accel
open Mikpoly_autosched

let qtest = QCheck_alcotest.to_alcotest

let gpu = Hardware.a100

(* --- Search space --- *)

let test_tile_candidates () =
  Alcotest.(check (list int)) "multiples of 16" [ 16; 32; 48; 64 ]
    (Search_space.tile_candidates ~n_gen:4)

let test_space_size () =
  Alcotest.(check int) "cube" 32768 (Search_space.space_size gpu ~n_gen:32)

let test_enumerate_filters_misfits () =
  let ks = Search_space.enumerate gpu ~n_gen:32 ~dtype:Mikpoly_tensor.Dtype.F16
      ~path:Hardware.Matrix ~codegen_eff:0.88
  in
  Alcotest.(check bool) "filtered below unconstrained size" true
    (List.length ks < Search_space.space_size gpu ~n_gen:32);
  List.iter
    (fun k ->
      Alcotest.(check bool) "every candidate is resident" true
        (Kernel_model.blocks_per_pe gpu k >= 1))
    ks

let test_enumerate_small_space () =
  let ks = Search_space.enumerate gpu ~n_gen:2 ~dtype:Mikpoly_tensor.Dtype.F16
      ~path:Hardware.Matrix ~codegen_eff:0.88
  in
  Alcotest.(check int) "2^3 candidates all fit" 8 (List.length ks)

(* --- Synthetic scoring --- *)

let test_synthetic_sizes () =
  Alcotest.(check (list int)) "powers of two" [ 1; 2; 4; 8 ]
    (Autotuner.synthetic_sizes ~n_syn:3)

let kernel_a = Kernel_desc.make ~um:256 ~un:128 ~uk:32 ()

let kernel_tiny = Kernel_desc.make ~um:16 ~un:16 ~uk:16 ()

let test_pattern_one_cycles_matches_simulator () =
  (* For an exactly-tiled single-kernel program, the closed-form Pattern-I
     cost equals the simulator's scheduled makespan. *)
  let m = 2048 and n = 1024 and k = 4096 in
  let closed = Autotuner.pattern_one_cycles gpu kernel_a ~m ~n ~k in
  let load =
    Load.make
      ~regions:
        [ Load.region ~kernel:kernel_a ~n_tasks:(m / 256 * (n / 128))
            ~t_steps:(k / 32) ]
      ~footprint_bytes:0.
  in
  let sim = (Simulator.run gpu load).sched_cycles in
  Alcotest.(check bool) "within 1%" true (abs_float (closed -. sim) /. sim < 0.01)

let test_size_tflops_prefers_matched_kernels () =
  (* On a big square problem the large kernel crushes the tiny one; at size
     16 the tiny kernel wins. *)
  let big_large = Autotuner.size_tflops gpu kernel_a ~size:4096 in
  let big_tiny = Autotuner.size_tflops gpu kernel_tiny ~size:4096 in
  Alcotest.(check bool) "large kernel wins at 4096" true (big_large > big_tiny);
  let small_large = Autotuner.size_tflops gpu kernel_a ~size:16 in
  let small_tiny = Autotuner.size_tflops gpu kernel_tiny ~size:16 in
  Alcotest.(check bool) "tiny kernel wins at 16" true (small_tiny > small_large)

(* --- Generate (rank and prune) --- *)

(* The paper's configuration, with a smaller tile space and kernel set. *)
let paper = Mikpoly_core.Config.default gpu

let generated =
  lazy
    (Autotuner.generate ~n_gen:16 ~n_syn:paper.n_syn ~n_mik:20
       ~n_pred:paper.n_pred ~dtype:paper.dtype ~path:paper.path
       ~codegen_eff:paper.codegen_eff ~rank_style:paper.rank_style gpu)

let test_generate_count () =
  Alcotest.(check int) "top n_mik retained" 20 (List.length (Lazy.force generated))

let test_generate_sorted () =
  let scores = List.map (fun (t : Autotuner.tuned) -> t.rank_score) (Lazy.force generated) in
  let sorted = List.sort (fun a b -> compare b a) scores in
  Alcotest.(check bool) "descending scores" true (scores = sorted)

let test_generate_diverse_footprints () =
  let footprints =
    List.map
      (fun (t : Autotuner.tuned) -> (t.model.kernel.um, t.model.kernel.un))
      (Lazy.force generated)
  in
  Alcotest.(check int) "one uk per footprint"
    (List.length footprints)
    (List.length (List.sort_uniq compare footprints))

let test_generate_covers_size_spectrum () =
  let ks = List.map (fun (t : Autotuner.tuned) -> t.model.kernel) (Lazy.force generated) in
  let small = List.exists (fun (k : Kernel_desc.t) -> k.um * k.un <= 32 * 32) ks in
  let large = List.exists (fun (k : Kernel_desc.t) -> k.um * k.un >= 128 * 64) ks in
  Alcotest.(check bool) "has small kernels" true small;
  Alcotest.(check bool) "has large kernels" true large

(* --- Perf model --- *)

let test_sample_points () =
  let pts = Perf_model.sample_points ~n_pred:5120 in
  Alcotest.(check int) "starts at 1" 1 (List.hd pts);
  Alcotest.(check int) "ends at n_pred" 5120 (List.nth pts (List.length pts - 1));
  Alcotest.(check bool) "strictly increasing" true
    (List.for_all2 (fun a b -> a < b)
       (List.filteri (fun i _ -> i < List.length pts - 1) pts)
       (List.tl pts))

let test_perf_model_accuracy () =
  let model = Perf_model.learn ~n_pred:paper.n_pred gpu kernel_a in
  Alcotest.(check bool) "max relative error < 2%" true
    (Perf_model.max_model_error gpu model < 0.02)

let test_perf_model_clamps () =
  let model = Perf_model.learn ~n_pred:paper.n_pred gpu kernel_a in
  Alcotest.(check (float 1e-9)) "t=0 clamps to t=1"
    (Perf_model.predict_cycles model ~t_steps:1)
    (Perf_model.predict_cycles model ~t_steps:0)

let prop_perf_model_monotone =
  QCheck.Test.make ~name:"g_predict: nondecreasing in t" ~count:50
    QCheck.(pair (int_range 1 5000) (int_range 1 5000))
    (fun (a, b) ->
      let model = Perf_model.learn ~n_pred:paper.n_pred gpu kernel_tiny in
      let lo = min a b and hi = max a b in
      Perf_model.predict_cycles model ~t_steps:lo
      <= Perf_model.predict_cycles model ~t_steps:hi +. 1e-6)

let prop_perf_model_accurate_for_random_kernels =
  QCheck.Test.make ~name:"g_predict: <3% error for random kernels" ~count:10
    QCheck.(triple (int_range 1 8) (int_range 1 8) (int_range 1 4))
    (fun (tm, tn, tk) ->
      let k = Kernel_desc.make ~um:(16 * tm) ~un:(16 * tn) ~uk:(16 * tk) () in
      QCheck.assume (Kernel_model.blocks_per_pe gpu k >= 1);
      let model = Perf_model.learn ~n_pred:paper.n_pred gpu k in
      Perf_model.max_model_error gpu model < 0.03)

let () =
  Alcotest.run "autosched"
    [
      ( "search_space",
        [
          Alcotest.test_case "tile candidates" `Quick test_tile_candidates;
          Alcotest.test_case "space size" `Quick test_space_size;
          Alcotest.test_case "filters misfits" `Quick test_enumerate_filters_misfits;
          Alcotest.test_case "small space" `Quick test_enumerate_small_space;
        ] );
      ( "scoring",
        [
          Alcotest.test_case "synthetic sizes" `Quick test_synthetic_sizes;
          Alcotest.test_case "pattern-I closed form vs simulator" `Quick
            test_pattern_one_cycles_matches_simulator;
          Alcotest.test_case "size preference" `Quick
            test_size_tflops_prefers_matched_kernels;
        ] );
      ( "generate",
        [
          Alcotest.test_case "count" `Quick test_generate_count;
          Alcotest.test_case "sorted" `Quick test_generate_sorted;
          Alcotest.test_case "diverse footprints" `Quick test_generate_diverse_footprints;
          Alcotest.test_case "covers size spectrum" `Quick
            test_generate_covers_size_spectrum;
        ] );
      ( "perf_model",
        [
          Alcotest.test_case "sample points" `Quick test_sample_points;
          Alcotest.test_case "accuracy" `Quick test_perf_model_accuracy;
          Alcotest.test_case "clamps t" `Quick test_perf_model_clamps;
          qtest prop_perf_model_monotone;
          qtest prop_perf_model_accurate_for_random_kernels;
        ] );
    ]
