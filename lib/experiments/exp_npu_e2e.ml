(* Section 5.2.2 (text): end-to-end CNN inference on the NPU vs CANN.
   Paper: AlexNet 1.30x, GoogLeNet 1.19x, ResNet 1.32x, VGG 1.38x. *)

open Mikpoly_util
open Mikpoly_nn

let paper = [ ("alexnet", 1.30); ("googlenet", 1.19); ("resnet18", 1.32); ("vgg11", 1.38) ]

let run ~quick =
  let hw = Mikpoly_accel.Hardware.ascend910 in
  let compiler = Backends.npu () in
  let mik = Backends.mikpoly_gemm compiler in
  let overhead = Backends.mikpoly_overhead compiler in
  let cann = Backends.backend_gemm (Backends.cann ()) in
  let table =
    Table.create ~title:"End-to-end CNNs on NPU (baseline CANN)"
      ~header:[ "model"; "MikPoly"; "paper"; "configs" ]
  in
  let combos =
    if quick then [ (1, 64); (8, 256) ]
    else
      List.concat_map
        (fun b -> List.map (fun i -> (b, 64 * i)) [ 1; 2; 4; 6; 8; 10 ])
        [ 1; 4; 16; 64 ]
  in
  let all = ref [] in
  List.iter
    (fun (cfg : Cnn.config) ->
      let speedups =
        List.filter_map
          (fun (batch, resolution) ->
            if resolution < Cnn.min_resolution cfg then None
            else begin
              let graph = cfg.build ~batch ~resolution in
              let base = Inference.run hw graph ~gemm:cann () in
              let mikr =
                Inference.run hw graph ~gemm:mik
                  ~overhead_per_shape:(fun ~m ~n ~k -> overhead ~m ~n ~k)
                  ()
              in
              if Inference.valid base && Inference.valid mikr then
                Some (base.seconds /. mikr.seconds)
              else None
            end)
          combos
      in
      all := speedups @ !all;
      Table.add_row table
        [
          cfg.name;
          Table.fmt_speedup (Stats.mean speedups);
          Table.fmt_speedup (List.assoc cfg.name paper);
          string_of_int (List.length speedups);
        ])
    Cnn.all;
  {
    Exp.tables = [ table ];
    summary =
      [
        Printf.sprintf "Mean MikPoly NPU end-to-end speedup: %.2fx (paper ~1.30x)."
          (Stats.mean !all);
      ];
  }

let exp =
  {
    Exp.id = "npu_e2e";
    title = "End-to-end CNNs on NPU (Section 5.2.2)";
    paper_claim = "AlexNet 1.30x, GoogLeNet 1.19x, ResNet 1.32x, VGG 1.38x over CANN";
    run;
  }
