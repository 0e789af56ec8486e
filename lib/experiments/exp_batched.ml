(* Extension: grouped/batched GEMM launches. Per-head attention GEMMs are
   tiny (the paper's Transformer workloads run them head by head through
   the library); launching all heads as one polymerized grid packs the
   waves a single head leaves idle. *)

open Mikpoly_util
open Mikpoly_core
open Mikpoly_ir

let cases ~quick =
  let base =
    [
      ("BERT attn scores, seq 128", 12, (128, 128, 64));
      ("BERT attn scores, seq 384", 12, (384, 384, 64));
      ("ALBERT attn ctx, seq 256", 16, (256, 128, 256));
      ("Llama prefill scores, seq 512", 10, (512, 512, 128));
    ]
  in
  if quick then [ List.hd base ] else base

let run ~quick =
  let compiler = Backends.gpu () in
  let table =
    Table.create ~title:"Batched GEMM: one packed grid vs sequential instances"
      ~header:
        [ "workload"; "count"; "sequential"; "batched"; "speedup"; "pattern" ]
  in
  let speedups =
    List.map
      (fun (name, count, (m, n, k)) ->
        let single = Operator.gemm ~m ~n ~k () in
        let batched = Operator.batched_gemm ~count ~m ~n ~k () in
        let seq_s = float_of_int count *. Compiler.operator_seconds compiler single in
        let compiled = Compiler.compile compiler batched in
        let bat_s = (Compiler.simulate compiler compiled).seconds in
        let speedup = seq_s /. bat_s in
        Table.add_row table
          [
            name;
            string_of_int count;
            Table.fmt_time_us seq_s;
            Table.fmt_time_us bat_s;
            Table.fmt_speedup speedup;
            Pattern.to_string compiled.pattern;
          ];
        speedup)
      (cases ~quick)
  in
  {
    Exp.tables = [ table ];
    summary =
      [
        Printf.sprintf
          "Launching attention heads as one polymerized grid is %.1fx faster than head-by-head dispatch (mean): small grids cannot fill a wave alone."
          (Stats.mean speedups);
      ];
  }

let exp =
  {
    Exp.id = "batched";
    title = "Batched GEMM launches (extension)";
    paper_claim =
      "(extension — the paper's per-head attention GEMMs, launched as one grid)";
    run;
  }
