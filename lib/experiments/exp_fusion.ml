(* Extension (paper Section 7 "future work"): combining MikPoly with
   graph-level operator fusion. Elementwise epilogues (ReLU, bias,
   residual, layer-norm reads over the producer's output) fuse into the
   producing GEMM/conv write-back; the experiment reports the extra
   end-to-end speedup this yields on top of MikPoly alone. *)

open Mikpoly_util
open Mikpoly_nn

let run ~quick =
  let hw = Mikpoly_accel.Hardware.a100 in
  let compiler = Backends.gpu () in
  let mik = Backends.mikpoly_gemm compiler in
  let overhead = Backends.mikpoly_overhead compiler in
  let table =
    Table.create
      ~title:"Operator fusion on top of MikPoly (end-to-end, GPU)"
      ~header:
        [
          "model"; "ops"; "fused away"; "saved traffic"; "MikPoly";
          "MikPoly+fusion"; "extra gain";
        ]
  in
  let graphs =
    (if quick then [ Transformer.graph Transformer.bert_base ~seq_len:128 ]
     else
       List.map
         (fun (cfg : Transformer.config) -> Transformer.graph cfg ~seq_len:128)
         Transformer.all)
    @ List.map
        (fun (cfg : Cnn.config) -> cfg.build ~batch:8 ~resolution:224)
        (if quick then [ Cnn.resnet18 ] else Cnn.all)
  in
  let gains =
    List.map
      (fun graph ->
        let fusion = Fusion.fuse graph in
        let fused = fusion.Fusion.graph in
        let time g =
          (Inference.run hw g ~gemm:mik
             ~overhead_per_shape:(fun ~m ~n ~k -> overhead ~m ~n ~k)
             ())
            .seconds
        in
        let plain = time graph and with_fusion = time fused in
        let gain = plain /. with_fusion in
        Table.add_row table
          [
            graph.name;
            string_of_int (List.length graph.ops);
            string_of_int fusion.Fusion.fused_ops;
            Table.fmt_bytes fusion.Fusion.fused_bytes;
            Table.fmt_time_us plain;
            Table.fmt_time_us with_fusion;
            Table.fmt_speedup gain;
          ];
        gain)
      graphs
  in
  {
    Exp.tables = [ table ];
    summary =
      [
        Printf.sprintf
          "Fusing elementwise epilogues into MikPoly's kernels adds %.2fx mean end-to-end on top of polymerization — the graph-level headroom Section 7 anticipates."
          (Stats.mean gains);
      ];
  }

let exp =
  {
    Exp.id = "fusion";
    title = "Operator fusion (extension, paper future work)";
    paper_claim = "Section 7: operator fusion listed as future work at the graph level";
    run;
  }
