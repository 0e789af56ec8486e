(* Figure 6: MikPoly vs cuBLAS/cuDNN and CUTLASS on GPU Tensor Cores, over
   all Table 3 GEMM and Table 4 convolution cases. Paper: GEMM 1.47x mean
   (max 4.82x) over cuBLAS; conv 1.98x mean (max 5.38x) over cuDNN; 3.02x /
   1.72x over CUTLASS. *)

open Mikpoly_workloads

let run ~quick =
  let mik = Backends.mikpoly_backend (Backends.gpu ()) in
  let cublas = Backends.cublas () in
  let cudnn = Backends.cudnn () in
  let cutlass = Backends.cutlass () in
  let gemm_cases = Operator_eval.quick_sample ~quick ~every:40 (Suite.table3_gemm ()) in
  let conv_cases =
    List.map fst (Operator_eval.quick_sample ~quick ~every:120 (Suite.table4_conv ()))
  in
  let mik_gemm = Operator_eval.gemm_speedups ~baseline:cublas ~target:mik gemm_cases in
  let cut_gemm = Operator_eval.gemm_speedups ~baseline:cublas ~target:cutlass gemm_cases in
  let mik_conv = Operator_eval.conv_speedups ~baseline:cudnn ~target:mik conv_cases in
  let cut_conv = Operator_eval.conv_speedups ~baseline:cudnn ~target:cutlass conv_cases in
  let mik_vs_cutlass_gemm =
    Operator_eval.gemm_speedups ~baseline:cutlass ~target:mik gemm_cases
  in
  let mik_vs_cutlass_conv =
    Operator_eval.conv_speedups ~baseline:cutlass ~target:mik conv_cases
  in
  let summary_table = Exp.speedup_table ~title:"Figure 6: speedups on GPU (baseline cuBLAS/cuDNN)" in
  let add label (results : Operator_eval.case_result list) =
    Exp.speedup_row summary_table ~label
      (List.map (fun (r : Operator_eval.case_result) -> r.speedup) results)
  in
  add "GEMM: MikPoly vs cuBLAS" mik_gemm;
  add "GEMM: CUTLASS vs cuBLAS" cut_gemm;
  add "GEMM: MikPoly vs CUTLASS" mik_vs_cutlass_gemm;
  add "conv: MikPoly vs cuDNN" mik_conv;
  add "conv: CUTLASS vs cuDNN" cut_conv;
  add "conv: MikPoly vs CUTLASS" mik_vs_cutlass_conv;
  let buckets =
    Operator_eval.bucket_table ~title:"Figure 6 series: mean speedup per FLOPs decade"
      [
        ("MikPoly/cuBLAS (GEMM)", mik_gemm);
        ("CUTLASS/cuBLAS (GEMM)", cut_gemm);
        ("MikPoly/cuDNN (conv)", mik_conv);
        ("CUTLASS/cuDNN (conv)", cut_conv);
      ]
  in
  let mean l = Mikpoly_util.Stats.mean (List.map (fun (r : Operator_eval.case_result) -> r.speedup) l) in
  {
    Exp.tables = [ summary_table; buckets ];
    summary =
      [
        Printf.sprintf
          "GEMM: MikPoly %.2fx vs cuBLAS (paper 1.47x, max 4.82x); conv %.2fx vs cuDNN (paper 1.98x, max 5.38x)."
          (mean mik_gemm) (mean mik_conv);
        Printf.sprintf
          "MikPoly vs CUTLASS: GEMM %.2fx (paper 3.02x), conv %.2fx (paper 1.72x)."
          (mean mik_vs_cutlass_gemm) (mean mik_vs_cutlass_conv);
      ];
  }

let exp =
  {
    Exp.id = "fig6";
    title = "Dynamic-shape operators on GPU (Figure 6)";
    paper_claim =
      "MikPoly 1.47x (GEMM) / 1.98x (conv) over cuBLAS/cuDNN; 3.02x / 1.72x over CUTLASS";
    run;
  }
