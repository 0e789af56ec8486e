(* Figure 10: comparison with dynamic-shape compilers (DietCode, Nimble)
   and CUTLASS on GPU CUDA cores, over all Table 3 cases, normalized to
   DietCode. DietCode/Nimble are declared the Table 3 dynamic ranges.
   Paper: MikPoly outperforms DietCode / Nimble / CUTLASS by 2.94x / 7.54x
   / 3.59x on average. *)

open Mikpoly_util
open Mikpoly_workloads
open Mikpoly_baselines

let setup () =
  let hw = Mikpoly_accel.Hardware.a100 in
  let m_range, n_range, k_range = Suite.table3_ranges in
  let dietcode = Dietcode.create hw ~m_range ~n_range ~k_range in
  let nimble = Nimble.create hw ~m_range ~n_range ~k_range in
  (Dietcode.backend dietcode, Nimble.backend nimble)

let run ~quick =
  let dietcode, nimble = setup () in
  let mik = Backends.mikpoly_backend (Backends.gpu_vector ()) in
  let cutlass = Backends.cutlass_vector () in
  let cases = Operator_eval.quick_sample ~quick ~every:40 (Suite.table3_gemm ()) in
  let vs_dietcode target =
    Operator_eval.gemm_speedups ~baseline:dietcode ~target cases
  in
  let mik_r = vs_dietcode mik in
  let nim_r = vs_dietcode nimble in
  let cut_r = vs_dietcode cutlass in
  let speeds l = List.map (fun (r : Operator_eval.case_result) -> r.speedup) l in
  let table =
    Exp.speedup_table ~title:"Figure 10: CUDA-core comparison (baseline DietCode)"
  in
  Exp.speedup_row table ~label:"MikPoly vs DietCode" (speeds mik_r);
  Exp.speedup_row table ~label:"Nimble vs DietCode" (speeds nim_r);
  Exp.speedup_row table ~label:"CUTLASS vs DietCode" (speeds cut_r);
  let mik_vs_nimble = Operator_eval.gemm_speedups ~baseline:nimble ~target:mik cases in
  let mik_vs_cutlass = Operator_eval.gemm_speedups ~baseline:cutlass ~target:mik cases in
  Exp.speedup_row table ~label:"MikPoly vs Nimble" (speeds mik_vs_nimble);
  Exp.speedup_row table ~label:"MikPoly vs CUTLASS" (speeds mik_vs_cutlass);
  let buckets =
    Operator_eval.bucket_table
      ~title:"Figure 10 series: mean speedup vs DietCode per FLOPs decade"
      [ ("MikPoly", mik_r); ("Nimble", nim_r); ("CUTLASS", cut_r) ]
  in
  let mean l = Stats.mean (speeds l) in
  {
    Exp.tables = [ table; buckets ];
    summary =
      [
        Printf.sprintf
          "MikPoly vs DietCode %.2fx (paper 2.94x); vs Nimble %.2fx (paper 7.54x); vs CUTLASS %.2fx (paper 3.59x)."
          (mean mik_r) (mean mik_vs_nimble) (mean mik_vs_cutlass);
      ];
  }

let exp =
  {
    Exp.id = "fig10";
    title = "Dynamic-shape compilers on CUDA cores (Figure 10)";
    paper_claim = "MikPoly 2.94x over DietCode, 7.54x over Nimble, 3.59x over CUTLASS";
    run;
  }
