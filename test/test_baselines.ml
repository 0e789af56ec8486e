(* Tests for the baseline backends: vendor catalogs, CUTLASS, DietCode and
   Nimble — including their documented failure modes (range errors, grid
   mismatch, generic-code inefficiency). *)

open Mikpoly_accel
open Mikpoly_baselines

let gpu = Hardware.a100

let npu = Hardware.ascend910

(* --- Catalog --- *)

let test_catalog_kernels_fit () =
  List.iter
    (fun (catalog, hw) ->
      let ks =
        Catalog.kernels catalog hw ~path:Hardware.Matrix
          ~dtype:Mikpoly_tensor.Dtype.F16
      in
      Alcotest.(check bool) (catalog.Catalog.name ^ " nonempty") true (ks <> []);
      List.iter
        (fun k ->
          Alcotest.(check bool) "resident" true (Kernel_model.blocks_per_pe hw k >= 1);
          Alcotest.(check (float 0.)) "vendor efficiency" catalog.codegen_eff
            k.Kernel_desc.codegen_eff)
        ks)
    [ (Catalog.cublas, gpu); (Catalog.cudnn, gpu); (Catalog.cann, npu) ]

let test_catalog_selection_large_shape () =
  let k =
    Catalog.select Catalog.cublas gpu ~path:Hardware.Matrix
      ~dtype:Mikpoly_tensor.Dtype.F16 ~m:4096 ~n:4096 ~k:4096
  in
  Alcotest.(check bool) "big tile for big shape" true (k.um * k.un >= 128 * 128)

let test_catalog_selection_small_m () =
  let k =
    Catalog.select Catalog.cublas gpu ~path:Hardware.Matrix
      ~dtype:Mikpoly_tensor.Dtype.F16 ~m:20 ~n:4096 ~k:512
  in
  Alcotest.(check bool) "small um avoids padding" true (k.um <= 64)

(* --- Backend --- *)

let test_backend_of_catalog () =
  let b = Backend.of_catalog Catalog.cublas gpu in
  Alcotest.(check string) "name" "cuBLAS" b.name;
  (match b.gemm ~m:512 ~n:512 ~k:512 with
  | Ok run ->
    Alcotest.(check bool) "positive time" true (run.seconds > 0.);
    Alcotest.(check bool) "kernel named" true (String.length run.description > 0)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "rejects bad shape" true
    (Result.is_error (b.gemm ~m:0 ~n:1 ~k:1))

let test_backend_conv () =
  let b = Backend.of_catalog Catalog.cudnn gpu in
  let spec =
    Mikpoly_tensor.Conv_spec.make ~batch:8 ~in_channels:64 ~out_channels:128
      ~in_h:28 ~in_w:28 ~kernel:3 ()
  in
  match Backend.conv_seconds b spec with
  | Ok s -> Alcotest.(check bool) "positive" true (s > 0.)
  | Error e -> Alcotest.fail e

(* --- CUTLASS --- *)

let test_cutlass_default_tiles () =
  Alcotest.(check (triple int int int)) "large" (128, 128, 32)
    (Cutlass.default_tile ~m:512 ~n:512);
  Alcotest.(check (triple int int int)) "small" (64, 64, 32)
    (Cutlass.default_tile ~m:64 ~n:512)

let test_cutlass_slower_than_cublas_on_big () =
  let cutlass = Cutlass.backend gpu in
  let cublas = Backend.of_catalog Catalog.cublas gpu in
  match (cutlass.gemm ~m:4096 ~n:4096 ~k:4096, cublas.gemm ~m:4096 ~n:4096 ~k:4096) with
  | Ok ct, Ok cb ->
    Alcotest.(check bool) "hand-tuned library wins on aligned big shape" true
      (cb.seconds <= ct.seconds)
  | _ -> Alcotest.fail "backend error"

(* --- DietCode --- *)

let dietcode =
  lazy
    (Dietcode.create gpu ~m_range:(1, 1024) ~n_range:(1, 1024) ~k_range:(1, 1024))

let test_dietcode_program_set () =
  let d = Lazy.force dietcode in
  Alcotest.(check bool) "multiple programs tuned" true (Dietcode.num_programs d > 27)

let test_dietcode_in_range () =
  let b = Dietcode.backend (Lazy.force dietcode) in
  match b.gemm ~m:100 ~n:200 ~k:300 with
  | Ok run ->
    Alcotest.(check bool) "positive" true (run.seconds > 0.);
    Alcotest.(check bool) "reports tuning point" true
      (String.length run.description > 0)
  | Error e -> Alcotest.fail e

let test_dietcode_out_of_range_invalid () =
  let b = Dietcode.backend (Lazy.force dietcode) in
  Alcotest.(check bool) "M too big" true (Result.is_error (b.gemm ~m:2000 ~n:10 ~k:10));
  Alcotest.(check bool) "K too big" true (Result.is_error (b.gemm ~m:10 ~n:10 ~k:5000));
  Alcotest.(check bool) "in range ok" true (Result.is_ok (b.gemm ~m:1024 ~n:1024 ~k:1024))

let test_dietcode_range_check () =
  let d = Lazy.force dietcode in
  Alcotest.(check bool) "in" true (Dietcode.in_range d ~m:1 ~n:1024 ~k:512);
  Alcotest.(check bool) "out" false (Dietcode.in_range d ~m:1025 ~n:1 ~k:1)

let test_dietcode_slower_than_mikpoly_vector () =
  (* Figure 10: on CUDA cores MikPoly beats DietCode on average; check one
     mid-size shape between grid points. *)
  let d = Dietcode.backend (Lazy.force dietcode) in
  let compiler =
    Mikpoly_core.Compiler.create
      ~config:(Mikpoly_core.Config.with_path Hardware.Vector (Mikpoly_core.Config.default gpu))
      gpu
  in
  let op = Mikpoly_ir.Operator.gemm ~m:700 ~n:900 ~k:600 () in
  let mik = Mikpoly_core.Compiler.operator_seconds compiler op in
  match d.gemm ~m:700 ~n:900 ~k:600 with
  | Ok run -> Alcotest.(check bool) "mikpoly faster" true (mik < run.seconds)
  | Error e -> Alcotest.fail e

(* --- Nimble --- *)

let nimble =
  lazy (Nimble.create gpu ~m_range:(1, 1024) ~n_range:(1, 1024) ~k_range:(1, 1024))

let test_nimble_single_kernel () =
  let n = Lazy.force nimble in
  let k = Nimble.kernel n in
  Alcotest.(check bool) "vector path" true (k.path = Hardware.Vector);
  Alcotest.(check bool) "generic quality" true (k.codegen_eff <= 0.70)

let test_nimble_range_and_time () =
  let b = Nimble.backend (Lazy.force nimble) in
  Alcotest.(check bool) "out of range" true (Result.is_error (b.gemm ~m:9999 ~n:1 ~k:1));
  match b.gemm ~m:512 ~n:512 ~k:512 with
  | Ok run -> Alcotest.(check bool) "runs in range" true (run.seconds > 0.)
  | Error e -> Alcotest.fail e

let test_nimble_slower_than_dietcode () =
  (* Nimble's generic single kernel trails DietCode's tuned programs on a
     grid-point shape (Figure 10: 7.54x vs 2.94x gaps to MikPoly). *)
  let nb = Nimble.backend (Lazy.force nimble) in
  let db = Dietcode.backend (Lazy.force dietcode) in
  match (nb.gemm ~m:1024 ~n:1024 ~k:1024, db.gemm ~m:1024 ~n:1024 ~k:1024) with
  | Ok n, Ok d -> Alcotest.(check bool) "dietcode faster" true (d.seconds < n.seconds)
  | _ -> Alcotest.fail "backend error"

let () =
  Alcotest.run "baselines"
    [
      ( "catalog",
        [
          Alcotest.test_case "kernels fit" `Quick test_catalog_kernels_fit;
          Alcotest.test_case "large-shape selection" `Quick
            test_catalog_selection_large_shape;
          Alcotest.test_case "small-M selection" `Quick test_catalog_selection_small_m;
        ] );
      ( "backend",
        [
          Alcotest.test_case "of_catalog" `Quick test_backend_of_catalog;
          Alcotest.test_case "conv path" `Quick test_backend_conv;
        ] );
      ( "cutlass",
        [
          Alcotest.test_case "default tiles" `Quick test_cutlass_default_tiles;
          Alcotest.test_case "loses to cuBLAS on big aligned" `Quick
            test_cutlass_slower_than_cublas_on_big;
        ] );
      ( "dietcode",
        [
          Alcotest.test_case "program set" `Quick test_dietcode_program_set;
          Alcotest.test_case "in range" `Quick test_dietcode_in_range;
          Alcotest.test_case "out of range invalid" `Quick
            test_dietcode_out_of_range_invalid;
          Alcotest.test_case "range check" `Quick test_dietcode_range_check;
          Alcotest.test_case "MikPoly beats it (CUDA cores)" `Quick
            test_dietcode_slower_than_mikpoly_vector;
        ] );
      ( "nimble",
        [
          Alcotest.test_case "single generic kernel" `Quick test_nimble_single_kernel;
          Alcotest.test_case "range and timing" `Quick test_nimble_range_and_time;
          Alcotest.test_case "slower than DietCode" `Quick
            test_nimble_slower_than_dietcode;
        ] );
    ]
