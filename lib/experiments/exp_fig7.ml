(* Figure 7: MikPoly vs the CANN vendor library on the Ascend NPU, same
   operator suites. Paper: 1.10x mean on GEMM, 1.41x mean on conv. *)

open Mikpoly_workloads

let run ~quick =
  let mik = Backends.mikpoly_backend (Backends.npu ()) in
  let cann = Backends.cann () in
  let gemm_cases = Operator_eval.quick_sample ~quick ~every:40 (Suite.table3_gemm ()) in
  let conv_cases =
    List.map fst (Operator_eval.quick_sample ~quick ~every:120 (Suite.table4_conv ()))
  in
  let gemm = Operator_eval.gemm_speedups ~baseline:cann ~target:mik gemm_cases in
  let conv = Operator_eval.conv_speedups ~baseline:cann ~target:mik conv_cases in
  let summary_table = Exp.speedup_table ~title:"Figure 7: speedups on NPU (baseline CANN)" in
  let speeds l = List.map (fun (r : Operator_eval.case_result) -> r.speedup) l in
  Exp.speedup_row summary_table ~label:"GEMM: MikPoly vs CANN" (speeds gemm);
  Exp.speedup_row summary_table ~label:"conv: MikPoly vs CANN" (speeds conv);
  let buckets =
    Operator_eval.bucket_table ~title:"Figure 7 series: mean speedup per FLOPs decade"
      [ ("MikPoly/CANN (GEMM)", gemm); ("MikPoly/CANN (conv)", conv) ]
  in
  let mean l = Mikpoly_util.Stats.mean (speeds l) in
  {
    Exp.tables = [ summary_table; buckets ];
    summary =
      [
        Printf.sprintf
          "MikPoly vs CANN: GEMM %.2fx (paper 1.10x), conv %.2fx (paper 1.41x)."
          (mean gemm) (mean conv);
      ];
  }

let exp =
  {
    Exp.id = "fig7";
    title = "Dynamic-shape operators on NPU (Figure 7)";
    paper_claim = "MikPoly 1.10x (GEMM) / 1.41x (conv) over CANN";
    run;
  }
