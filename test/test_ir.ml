(* Tests for the IR: operators, two-stage templates, regions, program
   validation and the functional executor (numerical correctness of
   arbitrary polymerizations against the reference operators). *)

open Mikpoly_ir
open Mikpoly_tensor
open Mikpoly_accel

let qtest = QCheck_alcotest.to_alcotest

let mk um un uk = Kernel_desc.make ~um ~un ~uk ()

(* --- Operator --- *)

let test_operator_gemm () =
  let op = Operator.gemm ~m:3 ~n:4 ~k:5 () in
  Alcotest.(check (list int)) "shape" [ 3; 4; 5 ]
    (let m, n, k = Operator.gemm_shape op in
     [ m; n; k ]);
  Alcotest.(check (float 0.)) "flops" 120. (Operator.flops op);
  Alcotest.(check string) "print" "gemm(3,4,5,fp16)" (Operator.to_string op)

let test_operator_conv_lowering () =
  let spec =
    Conv_spec.make ~batch:2 ~in_channels:3 ~out_channels:8 ~in_h:10 ~in_w:10
      ~kernel:3 ()
  in
  let op = Operator.conv spec in
  Alcotest.(check (list int)) "lowered shape" [ 200; 8; 27 ]
    (let m, n, k = Operator.gemm_shape op in
     [ m; n; k ])

(* The conv lowering obeys the GEMM volume bound: 2^40 images of 64×64
   through a 3×3, 64→64 conv lower to a 2^52 × 64 × 576 GEMM, whose
   program the simulator could not size. *)
let test_operator_conv_volume () =
  let rejected name spec =
    match Operator.conv spec with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejected "2^52 x 64 x 576"
    (Conv_spec.make ~batch:(1 lsl 40) ~in_channels:64 ~out_channels:64 ~in_h:64
       ~in_w:64 ~kernel:3 ());
  (* batch·out_h·out_w is 2^80, which wraps to 0 in an int. *)
  rejected "batch·out_h·out_w overflows"
    (Conv_spec.make ~batch:(1 lsl 40) ~in_channels:1 ~out_channels:1
       ~in_h:(1 lsl 20) ~in_w:(1 lsl 20) ~kernel:1 ());
  let spec =
    Conv_spec.make ~batch:8 ~in_channels:64 ~out_channels:64 ~in_h:56 ~in_w:56
      ~kernel:3 ()
  in
  List.iter
    (fun hw ->
      let compiler = Mikpoly_core.Compiler.create hw in
      let r =
        Mikpoly_core.Compiler.simulate compiler
          (Mikpoly_core.Compiler.compile compiler (Operator.conv spec))
      in
      Alcotest.(check bool)
        (hw.Hardware.name ^ ": simulated") true
        (r.Simulator.seconds > 0. && Float.is_finite r.Simulator.seconds))
    [ Hardware.a100; Hardware.ascend910 ]

let test_operator_invalid () =
  Alcotest.check_raises "bad dim"
    (Invalid_argument "Operator.gemm: non-positive dimension") (fun () ->
      ignore (Operator.gemm ~m:0 ~n:1 ~k:1 ()))

(* --- Template --- *)

let test_template_structure () =
  let t = Template.gemm in
  Alcotest.(check int) "six loops" 6 (List.length (Template.loops t));
  Alcotest.(check int) "three offline" 3 (List.length (Template.offline_loops t));
  Alcotest.(check (list string)) "parallel dims" [ "M"; "N" ]
    (List.map Template.dim_to_string (Template.parallel_dims t));
  Alcotest.(check (list string)) "reduction dims" [ "K" ]
    (List.map Template.dim_to_string (Template.reduction_dims t))

let test_template_instantiate () =
  let tile : Template.dim -> int = function M -> 64 | N -> 128 | K -> 32 in
  let kd =
    Template.instantiate_kernel Template.gemm ~tile ~dtype:Dtype.F16
      ~path:Hardware.Matrix ~codegen_eff:0.9
  in
  Alcotest.(check string) "kernel" "mk64x128x32" (Kernel_desc.name kd)

(* --- Region --- *)

let test_region_tasks () =
  let r = Region.make ~row_off:0 ~col_off:0 ~rows:100 ~cols:200 ~k_len:50
      ~kernel:(mk 32 64 16)
  in
  Alcotest.(check int) "tasks = ceil(100/32)*ceil(200/64)" (4 * 4) (Region.n_tasks r);
  Alcotest.(check int) "t_steps = ceil(50/16)" 4 (Region.t_steps r);
  Alcotest.(check (float 0.)) "useful" (2. *. 100. *. 200. *. 50.)
    (Region.useful_flops r);
  Alcotest.(check bool) "padded > useful" true
    (Region.padded_flops r > Region.useful_flops r)

let test_region_invalid () =
  Alcotest.check_raises "negative offset"
    (Invalid_argument "Region.make: negative offset") (fun () ->
      ignore
        (Region.make ~row_off:(-1) ~col_off:0 ~rows:1 ~cols:1 ~k_len:1
           ~kernel:(mk 16 16 16)))

(* --- Program validation --- *)

let op_100x100 = Operator.gemm ~m:100 ~n:100 ~k:64 ()

let region ~row_off ~col_off ~rows ~cols =
  Region.make ~row_off ~col_off ~rows ~cols ~k_len:64 ~kernel:(mk 16 16 16)

let test_program_valid_partition () =
  let regions =
    [ region ~row_off:0 ~col_off:0 ~rows:60 ~cols:100;
      region ~row_off:60 ~col_off:0 ~rows:40 ~cols:100 ]
  in
  Alcotest.(check bool) "valid" true
    (Result.is_ok (Program.validate ~op:op_100x100 ~regions))

let test_program_overlap_rejected () =
  let regions =
    [ region ~row_off:0 ~col_off:0 ~rows:60 ~cols:100;
      region ~row_off:50 ~col_off:0 ~rows:50 ~cols:100 ]
  in
  Alcotest.(check bool) "overlap rejected" true
    (Result.is_error (Program.validate ~op:op_100x100 ~regions))

let test_program_gap_rejected () =
  let regions = [ region ~row_off:0 ~col_off:0 ~rows:60 ~cols:100 ] in
  Alcotest.(check bool) "gap rejected" true
    (Result.is_error (Program.validate ~op:op_100x100 ~regions))

let test_program_out_of_bounds_rejected () =
  let regions = [ region ~row_off:0 ~col_off:0 ~rows:101 ~cols:100 ] in
  Alcotest.(check bool) "oob rejected" true
    (Result.is_error (Program.validate ~op:op_100x100 ~regions))

let test_program_partial_reduction_rejected () =
  let bad =
    Region.make ~row_off:0 ~col_off:0 ~rows:100 ~cols:100 ~k_len:32
      ~kernel:(mk 16 16 16)
  in
  Alcotest.(check bool) "partial K rejected" true
    (Result.is_error (Program.validate ~op:op_100x100 ~regions:[ bad ]))

let test_program_empty_rejected () =
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (Program.validate ~op:op_100x100 ~regions:[]))

let test_program_to_load () =
  let regions =
    [ region ~row_off:0 ~col_off:0 ~rows:60 ~cols:100;
      region ~row_off:60 ~col_off:0 ~rows:40 ~cols:100 ]
  in
  let p = Program.make ~op:op_100x100 ~regions ~pattern_name:"Pattern-II" in
  let load = Program.to_load p in
  Alcotest.(check int) "two regions" 2 (List.length load.regions);
  Alcotest.(check int) "tasks" ((4 * 7) + (3 * 7)) (Load.total_tasks load);
  Alcotest.(check bool) "padding overhead >= 0" true (Program.padding_overhead p >= 0.)

(* --- Executor --- *)

let run_program_check ~m ~n ~k regions =
  let op = Operator.gemm ~m ~n ~k () in
  let prog = Program.make ~op ~regions ~pattern_name:"test" in
  let rng = Mikpoly_util.Prng.create (m + n + k) in
  let a = Tensor.create (Shape.of_list [ m; k ]) in
  let b = Tensor.create (Shape.of_list [ k; n ]) in
  Tensor.init_random rng a;
  Tensor.init_random rng b;
  let got = Executor.gemm prog a b in
  let want = Gemm_ref.gemm a b in
  Tensor.approx_equal ~tolerance:1e-3 got want

let test_executor_single_region_padded () =
  (* 37x29x17 with a 32x32x32 kernel: every tile is padded. *)
  let kernel = mk 32 32 32 in
  let regions =
    [ Region.make ~row_off:0 ~col_off:0 ~rows:37 ~cols:29 ~k_len:17 ~kernel ]
  in
  Alcotest.(check bool) "padded single region" true
    (run_program_check ~m:37 ~n:29 ~k:17 regions)

let test_executor_two_kernels () =
  (* Pattern-II-style split with different kernels per region. *)
  let regions =
    [
      Region.make ~row_off:0 ~col_off:0 ~rows:64 ~cols:50 ~k_len:40
        ~kernel:(mk 32 16 16);
      Region.make ~row_off:64 ~col_off:0 ~rows:36 ~cols:50 ~k_len:40
        ~kernel:(mk 16 32 32);
    ]
  in
  Alcotest.(check bool) "two-kernel program" true
    (run_program_check ~m:100 ~n:50 ~k:40 regions)

let test_executor_quad () =
  let regions =
    [
      Region.make ~row_off:0 ~col_off:0 ~rows:30 ~cols:30 ~k_len:20
        ~kernel:(mk 16 16 16);
      Region.make ~row_off:0 ~col_off:30 ~rows:30 ~cols:34 ~k_len:20
        ~kernel:(mk 16 32 16);
      Region.make ~row_off:30 ~col_off:0 ~rows:34 ~cols:30 ~k_len:20
        ~kernel:(mk 32 16 16);
      Region.make ~row_off:30 ~col_off:30 ~rows:34 ~cols:34 ~k_len:20
        ~kernel:(mk 32 32 16);
    ]
  in
  Alcotest.(check bool) "quad program" true
    (run_program_check ~m:64 ~n:64 ~k:20 regions)

let test_executor_m_equals_one () =
  let regions =
    [ Region.make ~row_off:0 ~col_off:0 ~rows:1 ~cols:40 ~k_len:8
        ~kernel:(mk 16 16 16) ]
  in
  Alcotest.(check bool) "M=1" true (run_program_check ~m:1 ~n:40 ~k:8 regions)

let prop_executor_matches_reference =
  (* Random shapes, horizontal split, random kernels. *)
  QCheck.Test.make ~name:"executor: any 2-region split matches reference GEMM"
    ~count:30
    QCheck.(quad (int_range 2 80) (int_range 1 60) (int_range 1 50) (int_range 1 4))
    (fun (m, n, k, tiles) ->
      let kernel1 = mk (16 * tiles) 16 16 in
      let kernel2 = mk 16 (16 * tiles) 32 in
      let split = max 1 (m / 2) in
      QCheck.assume (split < m);
      let regions =
        [
          Region.make ~row_off:0 ~col_off:0 ~rows:split ~cols:n ~k_len:k
            ~kernel:kernel1;
          Region.make ~row_off:split ~col_off:0 ~rows:(m - split) ~cols:n
            ~k_len:k ~kernel:kernel2;
        ]
      in
      run_program_check ~m ~n ~k regions)

(* Random guillotine partitions: recursively split the output rectangle
   with random horizontal/vertical cuts and give every leaf a random
   kernel — far richer region structures than the nine patterns. *)
let guillotine_regions rng ~m ~n ~k ~max_depth =
  let random_kernel () =
    mk (16 * Mikpoly_util.Prng.int_in rng 1 4)
      (16 * Mikpoly_util.Prng.int_in rng 1 4)
      (16 * Mikpoly_util.Prng.int_in rng 1 3)
  in
  let rec split ~row_off ~col_off ~rows ~cols depth =
    let leaf () =
      [ Region.make ~row_off ~col_off ~rows ~cols ~k_len:k ~kernel:(random_kernel ()) ]
    in
    if depth = 0 then leaf ()
    else begin
      match Mikpoly_util.Prng.int rng 3 with
      | 0 -> leaf ()
      | 1 when rows >= 2 ->
        let cut = Mikpoly_util.Prng.int_in rng 1 (rows - 1) in
        split ~row_off ~col_off ~rows:cut ~cols (depth - 1)
        @ split ~row_off:(row_off + cut) ~col_off ~rows:(rows - cut) ~cols (depth - 1)
      | 2 when cols >= 2 ->
        let cut = Mikpoly_util.Prng.int_in rng 1 (cols - 1) in
        split ~row_off ~col_off ~rows ~cols:cut (depth - 1)
        @ split ~row_off ~col_off:(col_off + cut) ~rows ~cols:(cols - cut) (depth - 1)
      | _ -> leaf ()
    end
  in
  split ~row_off:0 ~col_off:0 ~rows:m ~cols:n max_depth

let prop_executor_guillotine =
  QCheck.Test.make
    ~name:"executor: random guillotine partitions match reference GEMM" ~count:25
    QCheck.(quad (int_range 4 70) (int_range 4 70) (int_range 1 40) small_nat)
    (fun (m, n, k, seed) ->
      let rng = Mikpoly_util.Prng.create (seed + 1) in
      let regions = guillotine_regions rng ~m ~n ~k ~max_depth:3 in
      run_program_check ~m ~n ~k regions)

let prop_guillotine_is_valid_partition =
  QCheck.Test.make ~name:"guillotine generator produces valid programs" ~count:50
    QCheck.(quad (int_range 2 200) (int_range 2 200) (int_range 1 64) small_nat)
    (fun (m, n, k, seed) ->
      let rng = Mikpoly_util.Prng.create (seed + 7) in
      let regions = guillotine_regions rng ~m ~n ~k ~max_depth:4 in
      Result.is_ok (Program.validate ~op:(Operator.gemm ~m ~n ~k ()) ~regions))

let test_executor_conv () =
  let spec =
    Conv_spec.make ~batch:1 ~in_channels:3 ~out_channels:8 ~in_h:8 ~in_w:8
      ~kernel:3 ()
  in
  let op = Operator.conv spec in
  let m, n, k = Operator.gemm_shape op in
  let regions =
    [ Region.make ~row_off:0 ~col_off:0 ~rows:m ~cols:n ~k_len:k
        ~kernel:(mk 32 16 16) ]
  in
  let prog = Program.make ~op ~regions ~pattern_name:"Pattern-I" in
  let rng = Mikpoly_util.Prng.create 77 in
  let input = Tensor.create (Shape.of_list [ 1; 3; 8; 8 ]) in
  let weight = Tensor.create (Shape.of_list [ 8; 3; 3; 3 ]) in
  Tensor.init_random rng input;
  Tensor.init_random rng weight;
  let got = Executor.run_conv prog ~input ~weight in
  let want = Conv_ref.run spec ~input ~weight in
  Alcotest.(check bool) "conv program matches direct conv" true
    (Tensor.approx_equal ~tolerance:1e-3 got want)

(* --- Kernel_exec: specialized implementations agree --- *)

let fill_buffers rng (bufs : Kernel_exec.buffers) =
  Array.iteri
    (fun i _ -> bufs.a_tile.(i) <- Mikpoly_util.Prng.float rng 2. -. 1.)
    bufs.a_tile;
  Array.iteri
    (fun i _ -> bufs.b_tile.(i) <- Mikpoly_util.Prng.float rng 2. -. 1.)
    bufs.b_tile

let test_kernel_exec_variants_agree () =
  List.iter
    (fun (um, un, uk) ->
      let kd = mk um un uk in
      let rng = Mikpoly_util.Prng.create (um + un + uk) in
      let b1 = Kernel_exec.alloc kd and b2 = Kernel_exec.alloc kd in
      fill_buffers rng b1;
      Array.blit b1.a_tile 0 b2.a_tile 0 (Array.length b1.a_tile);
      Array.blit b1.b_tile 0 b2.b_tile 0 (Array.length b1.b_tile);
      Kernel_exec.naive kd b1;
      Kernel_exec.unrolled kd b2;
      let worst = ref 0. in
      Array.iteri
        (fun i v -> worst := max !worst (abs_float (v -. b2.c_tile.(i))))
        b1.c_tile;
      Alcotest.(check bool)
        (Printf.sprintf "naive == unrolled for %dx%dx%d" um un uk)
        true (!worst < 1e-9))
    [ (16, 16, 16); (32, 48, 64); (64, 16, 32) ]

let test_kernel_exec_accumulates () =
  (* Two invocations accumulate, matching the reduction-loop semantics. *)
  let kd = mk 16 16 16 in
  let bufs = Kernel_exec.alloc kd in
  Array.fill bufs.a_tile 0 (Array.length bufs.a_tile) 1.;
  Array.fill bufs.b_tile 0 (Array.length bufs.b_tile) 1.;
  let f = Kernel_exec.compile kd in
  f bufs;
  f bufs;
  Alcotest.(check (float 1e-9)) "accumulated twice" 32. bufs.c_tile.(0)

let test_kernel_exec_selection () =
  Alcotest.(check string) "16-multiple tiles unroll" "unrolled4"
    (Kernel_exec.variant_name (mk 16 16 16))

let test_executor_shape_checks () =
  let op = Operator.gemm ~m:4 ~n:4 ~k:4 () in
  let regions =
    [ Region.make ~row_off:0 ~col_off:0 ~rows:4 ~cols:4 ~k_len:4
        ~kernel:(mk 16 16 16) ]
  in
  let prog = Program.make ~op ~regions ~pattern_name:"Pattern-I" in
  let bad = Tensor.create (Shape.of_list [ 5; 4 ]) in
  let ok = Tensor.create (Shape.of_list [ 4; 4 ]) in
  Alcotest.check_raises "bad A" (Invalid_argument "Executor.run_gemm: bad A shape")
    (fun () -> Executor.run_gemm prog ~a:bad ~b:ok ~c:ok)

let () =
  Alcotest.run "ir"
    [
      ( "operator",
        [
          Alcotest.test_case "gemm" `Quick test_operator_gemm;
          Alcotest.test_case "conv lowering" `Quick test_operator_conv_lowering;
          Alcotest.test_case "conv volume bound" `Quick test_operator_conv_volume;
          Alcotest.test_case "invalid" `Quick test_operator_invalid;
        ] );
      ( "template",
        [
          Alcotest.test_case "structure" `Quick test_template_structure;
          Alcotest.test_case "instantiate" `Quick test_template_instantiate;
        ] );
      ( "region",
        [
          Alcotest.test_case "task arithmetic" `Quick test_region_tasks;
          Alcotest.test_case "invalid" `Quick test_region_invalid;
        ] );
      ( "program",
        [
          Alcotest.test_case "valid partition" `Quick test_program_valid_partition;
          Alcotest.test_case "overlap rejected" `Quick test_program_overlap_rejected;
          Alcotest.test_case "gap rejected" `Quick test_program_gap_rejected;
          Alcotest.test_case "out of bounds rejected" `Quick
            test_program_out_of_bounds_rejected;
          Alcotest.test_case "partial reduction rejected" `Quick
            test_program_partial_reduction_rejected;
          Alcotest.test_case "empty rejected" `Quick test_program_empty_rejected;
          Alcotest.test_case "to_load" `Quick test_program_to_load;
        ] );
      ( "executor",
        [
          Alcotest.test_case "padded single region" `Quick
            test_executor_single_region_padded;
          Alcotest.test_case "two kernels" `Quick test_executor_two_kernels;
          Alcotest.test_case "quad" `Quick test_executor_quad;
          Alcotest.test_case "M = 1" `Quick test_executor_m_equals_one;
          Alcotest.test_case "conv program" `Quick test_executor_conv;
          Alcotest.test_case "shape checks" `Quick test_executor_shape_checks;
          qtest prop_executor_matches_reference;
          qtest prop_executor_guillotine;
          qtest prop_guillotine_is_valid_partition;
        ] );
      ( "kernel_exec",
        [
          Alcotest.test_case "variants agree" `Quick test_kernel_exec_variants_agree;
          Alcotest.test_case "accumulates" `Quick test_kernel_exec_accumulates;
          Alcotest.test_case "selection" `Quick test_kernel_exec_selection;
        ] );
    ]
