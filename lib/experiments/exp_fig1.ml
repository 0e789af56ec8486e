(* Figure 1: performance of cuBLAS GEMM varies widely across shapes, even
   among compute-bound ones — the motivation for dynamic-shape
   compilation. *)

open Mikpoly_util

let shapes =
  [
    (4096, 4096, 4096);
    (4096, 1024, 4096);
    (2048, 2048, 2048);
    (1024, 1024, 1024);
    (105, 1024, 12544);
    (512, 512, 8192);
    (320, 640, 4096);
    (105, 4096, 4096);
    (3136, 576, 64);
    (12544, 32, 1024);
    (96, 96, 8192);
    (5124, 700, 2048);
  ]

let run ~quick:_ =
  let cublas = Backends.cublas () in
  let table =
    Table.create ~title:"Figure 1: cuBLAS GEMM throughput across shapes"
      ~header:[ "M"; "N"; "K"; "TFLOPS"; "kernel"; "sm_eff" ]
  in
  let tflops = ref [] in
  List.iter
    (fun (m, n, k) ->
      match cublas.gemm ~m ~n ~k with
      | Ok run ->
        let flops = 2. *. float_of_int m *. float_of_int n *. float_of_int k in
        let tf = flops /. run.seconds /. 1e12 in
        tflops := tf :: !tflops;
        Table.add_row table
          [
            string_of_int m; string_of_int n; string_of_int k;
            Printf.sprintf "%.1f" tf; run.description;
            Printf.sprintf "%.0f%%" (100. *. run.sim.sm_efficiency);
          ]
      | Error e -> Table.add_row table [ string_of_int m; string_of_int n; string_of_int k; "-"; e; "-" ])
    shapes;
  let hi = Stats.maximum !tflops and lo = Stats.minimum !tflops in
  {
    Exp.tables = [ table ];
    summary =
      [
        Printf.sprintf
          "cuBLAS spans %.1f-%.1f TFLOPS (%.1fx spread) across shapes; paper reports 262.2 vs 22.3 TFLOPS (11.8x)."
          lo hi (hi /. lo);
      ];
  }

let exp =
  {
    Exp.id = "fig1";
    title = "cuBLAS shape sensitivity (Figure 1)";
    paper_claim = "262.2 TFLOPS at (4096,4096,4096) vs 22.3 TFLOPS at (105,1024,12544)";
    run;
  }
