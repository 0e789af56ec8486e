(* Extension (paper Section 7, "Impact on LLM Systems"): MikPoly under
   in-flight batching. A continuous-batching Llama2-13b serving loop makes
   the token dimension of every GEMM change step to step; we compare
   total device time against a FasterTransformer-style cuBLAS engine over
   the same request trace. *)

open Mikpoly_util
open Mikpoly_nn

let run ~quick =
  let hw = Mikpoly_accel.Hardware.a100 in
  let compiler = Backends.gpu () in
  let mik = Backends.mikpoly_gemm compiler in
  let overhead = Backends.mikpoly_overhead compiler in
  let cublas = Backends.backend_gemm (Backends.cublas ()) in
  let requests =
    Inflight.synth_requests ~seed:0x11F ~count:(if quick then 8 else 32)
      ~max_prompt:512 ~max_output:(if quick then 32 else 128)
  in
  let base = Inflight.simulate hw ~gemm:cublas requests in
  let mikr =
    Inflight.simulate hw ~gemm:mik
      ~overhead_per_shape:(fun ~m ~n ~k -> overhead ~m ~n ~k)
      requests
  in
  let table =
    Table.create ~title:"In-flight batching: Llama2-13b serving trace"
      ~header:[ "engine"; "device time"; "steps"; "distinct batch sizes"; "tokens" ]
  in
  let row name (s : Inflight.stats) =
    Table.add_row table
      [
        name;
        Table.fmt_time_us s.total_seconds;
        string_of_int s.steps;
        string_of_int s.distinct_batch_sizes;
        string_of_int s.tokens_generated;
      ]
  in
  row "FasterTransformer (cuBLAS)" base;
  row "MikPoly" mikr;
  {
    Exp.tables = [ table ];
    summary =
      [
        Printf.sprintf
          "Over %d engine steps with %d distinct in-flight token counts, MikPoly serves the trace %.2fx faster — every step's shapes are compiled on the fly, none fail."
          mikr.steps mikr.distinct_batch_sizes
          (base.total_seconds /. mikr.total_seconds);
      ];
  }

let exp =
  {
    Exp.id = "inflight";
    title = "In-flight batching (extension, paper Section 7)";
    paper_claim =
      "Section 7: MikPoly is fully compatible with in-flight batching's dynamic runtime batch sizes";
    run;
  }
