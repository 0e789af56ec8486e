(* Table 1: the multi-level accelerator abstraction of both platforms. *)

open Mikpoly_util
open Mikpoly_accel

let run ~quick:_ =
  let table =
    Table.create ~title:"Table 1: accelerator abstraction"
      ~header:[ "component"; "H_gpu (A100)"; "H_npu (Ascend 910A)" ]
  in
  let row label f = Table.add_row table [ label; f Hardware.a100; f Hardware.ascend910 ] in
  row "P_multi" (fun hw -> Printf.sprintf "%d PEs" hw.num_pes);
  row "clock" (fun hw -> Printf.sprintf "%.2f GHz" (hw.clock_hz /. 1e9));
  row "matrix peak" (fun hw ->
      Printf.sprintf "%.0f TFLOPS" (Hardware.peak_tflops hw Hardware.Matrix));
  row "vector peak" (fun hw ->
      Printf.sprintf "%.1f TFLOPS" (Hardware.peak_tflops hw Hardware.Vector));
  row "M_local / PE" (fun hw -> Printf.sprintf "%d KiB" (hw.local_mem_bytes / 1024));
  row "M_global bw" (fun hw ->
      Printf.sprintf "%.0f GB/s" (hw.dram_bytes_per_cycle *. hw.clock_hz /. 1e9));
  row "task slots / PE" (fun hw -> string_of_int hw.matrix_slots);
  {
    Exp.tables = [ table ];
    summary =
      [
        "Both devices expressed as H = (P_multi, M_local, M_global) per Section 3.1.";
      ];
  }

let exp =
  {
    Exp.id = "tab1";
    title = "Accelerator abstraction (Table 1)";
    paper_claim = "A100: 108 SMs / 192KB; Ascend 910A: 32 DaVinci cores / 1MB";
    run;
  }
