(* Figure 8: end-to-end inference of four language models on the GPU with
   150 dynamic sentence lengths in [5, 500]. Paper: MikPoly 1.39x / 1.38x /
   1.36x / 1.37x over the cuBLAS-based baseline for BERT / DistilBERT /
   RoBERTa / ALBERT; consistently above CUTLASS. *)

open Mikpoly_util
open Mikpoly_nn

let sentence_lengths ~count =
  let rng = Prng.create 0x5E9 in
  List.init count (fun _ -> Prng.int_in rng 5 500)

let model_speedups ~quick (cfg : Transformer.config) =
  let hw = Mikpoly_accel.Hardware.a100 in
  let compiler = Backends.gpu () in
  let mik = Backends.mikpoly_gemm compiler in
  let overhead = Backends.mikpoly_overhead compiler in
  let cublas = Backends.backend_gemm (Backends.cublas ()) in
  let cutlass = Backends.backend_gemm (Backends.cutlass ()) in
  let lengths = sentence_lengths ~count:(if quick then 12 else 150) in
  List.filter_map
    (fun seq_len ->
      let graph = Transformer.graph cfg ~seq_len in
      let base = Inference.run hw graph ~gemm:cublas () in
      let mikr =
        Inference.run hw graph ~gemm:mik
          ~overhead_per_shape:(fun ~m ~n ~k -> overhead ~m ~n ~k)
          ()
      in
      let cutr = Inference.run hw graph ~gemm:cutlass () in
      if Inference.valid base && Inference.valid mikr && Inference.valid cutr then
        Some (base.seconds /. mikr.seconds, base.seconds /. cutr.seconds)
      else None)
    lengths

let run ~quick =
  let table =
    Table.create ~title:"Figure 8: end-to-end language models on GPU (baseline cuBLAS)"
      ~header:[ "model"; "MikPoly"; "CUTLASS"; "paper MikPoly"; "runs" ]
  in
  let paper = [ ("bert-base-uncased", 1.39); ("distilbert-base-uncased", 1.38);
                ("roberta-base", 1.36); ("albert-xlarge-v2", 1.37) ] in
  let all_mik = ref [] in
  List.iter
    (fun (cfg : Transformer.config) ->
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
    Transformer.all;
  {
    Exp.tables = [ table ];
    summary =
      [
        Printf.sprintf "Mean MikPoly end-to-end speedup across models: %.2fx (paper ~1.37x)."
          (Stats.mean !all_mik);
      ];
  }

let exp =
  {
    Exp.id = "fig8";
    title = "End-to-end language models on GPU (Figure 8)";
    paper_claim = "BERT 1.39x, DistilBERT 1.38x, RoBERTa 1.36x, ALBERT 1.37x over cuBLAS";
    run;
  }
