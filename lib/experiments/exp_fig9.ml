(* Figure 9: end-to-end inference of four CNNs on the GPU across dynamic
   batch sizes (2^0..2^7) and resolutions (64i, i <= 10). Paper: MikPoly
   1.34x (AlexNet), 1.69x (GoogLeNet), 1.59x (ResNet), 1.22x (VGG) over the
   cuBLAS/cuDNN baseline. *)

open Mikpoly_util
open Mikpoly_nn

let configs ~quick =
  let batches = if quick then [ 1; 16 ] else List.init 8 (fun i -> 1 lsl i) in
  let resolutions =
    if quick then [ 64; 256 ] else List.init 10 (fun i -> 64 * (i + 1))
  in
  List.concat_map (fun b -> List.map (fun r -> (b, r)) resolutions) batches

let model_speedups ~quick (cfg : Cnn.config) =
  let hw = Mikpoly_accel.Hardware.a100 in
  let compiler = Backends.gpu () in
  let mik = Backends.mikpoly_gemm compiler in
  let overhead = Backends.mikpoly_overhead compiler in
  let cublas = Backends.backend_gemm (Backends.cublas ()) in
  let cudnn = Backends.backend_gemm (Backends.cudnn ()) in
  let cutlass = Backends.backend_gemm (Backends.cutlass ()) in
  List.filter_map
    (fun (batch, resolution) ->
      if resolution < Cnn.min_resolution cfg then None
      else begin
        let graph = cfg.build ~batch ~resolution in
        let base = Inference.run hw graph ~gemm:cublas ~conv_gemm:cudnn () in
        let mikr =
          Inference.run hw graph ~gemm:mik
            ~overhead_per_shape:(fun ~m ~n ~k -> overhead ~m ~n ~k)
            ()
        in
        let cutr = Inference.run hw graph ~gemm:cutlass () in
        if Inference.valid base && Inference.valid mikr && Inference.valid cutr
        then Some (base.seconds /. mikr.seconds, base.seconds /. cutr.seconds)
        else None
      end)
    (configs ~quick)

let paper = [ ("alexnet", 1.34); ("googlenet", 1.69); ("resnet18", 1.59); ("vgg11", 1.22) ]

let run ~quick =
  let table =
    Table.create
      ~title:"Figure 9: end-to-end CNNs on GPU (baseline cuBLAS/cuDNN)"
      ~header:[ "model"; "MikPoly"; "CUTLASS"; "paper MikPoly"; "configs" ]
  in
  let all_mik = ref [] in
  List.iter
    (fun (cfg : Cnn.config) ->
      let results = model_speedups ~quick cfg in
      let mik = List.map fst results and cut = List.map snd results in
      all_mik := mik @ !all_mik;
      Table.add_row table
        [
          cfg.name;
          Table.fmt_speedup (Stats.mean mik);
          Table.fmt_speedup (Stats.mean cut);
          Table.fmt_speedup (List.assoc cfg.name paper);
          string_of_int (List.length results);
        ])
    Cnn.all;
  {
    Exp.tables = [ table ];
    summary =
      [
        Printf.sprintf "Mean MikPoly end-to-end CNN speedup: %.2fx (paper ~1.46x)."
          (Stats.mean !all_mik);
      ];
  }

let exp =
  {
    Exp.id = "fig9";
    title = "End-to-end CNNs on GPU (Figure 9)";
    paper_claim = "AlexNet 1.34x, GoogLeNet 1.69x, ResNet 1.59x, VGG 1.22x over cuBLAS/cuDNN";
    run;
  }
