(* Table 5: end-to-end language model inference against DietCode and
   Nimble (CUDA cores), 150 random sentence lengths in [5, 500]. DietCode
   and Nimble were tuned for sequence lengths up to 128 (DietCode's
   published BERT tuning range), so longer sentences are invalid runs for
   them — the paper highlights DietCode's "numerous invalid runs" vs
   MikPoly's zero. Paper: MikPoly outperforms DietCode by 1.55x on valid
   runs. *)

open Mikpoly_util
open Mikpoly_nn
open Mikpoly_baselines

let declared_seq_range = (1, 128)

let setup (cfg : Transformer.config) =
  let hw = Mikpoly_accel.Hardware.a100 in
  let lo, hi = declared_seq_range in
  (* Ranges for every GEMM dimension a transformer layer can produce given
     the declared sequence range. *)
  let m_range = (lo, hi) in
  let n_range = (1, max (3 * cfg.hidden) (max cfg.ffn hi)) in
  let k_range = (1, max cfg.ffn (max cfg.hidden hi)) in
  let dietcode = Dietcode.create hw ~m_range ~n_range ~k_range in
  let nimble = Nimble.create hw ~m_range ~n_range ~k_range in
  (Dietcode.backend dietcode, Nimble.backend nimble)

let run ~quick =
  let hw = Mikpoly_accel.Hardware.a100 in
  let compiler = Backends.gpu_vector () in
  let mik = Backends.mikpoly_gemm compiler in
  let overhead = Backends.mikpoly_overhead compiler in
  let cutlass = Backends.backend_gemm (Backends.cutlass_vector ()) in
  let lengths =
    let rng = Prng.create 0x7AB5 in
    List.init (if quick then 12 else 150) (fun _ -> Prng.int_in rng 5 500)
  in
  let table =
    Table.create
      ~title:"Table 5: end-to-end LMs vs dynamic-shape compilers (CUDA cores)"
      ~header:
        [ "model"; "MikPoly vs DietCode"; "MikPoly vs Nimble"; "MikPoly vs CUTLASS";
          "DietCode invalid"; "Nimble invalid"; "MikPoly invalid" ]
  in
  let models = if quick then [ Transformer.bert_base ] else Transformer.all in
  let all_vs_dietcode = ref [] in
  List.iter
    (fun (cfg : Transformer.config) ->
      let dietcode, nimble = setup cfg in
      let diet_g = Backends.backend_gemm dietcode in
      let nim_g = Backends.backend_gemm nimble in
      let vs_diet = ref [] and vs_nim = ref [] and vs_cut = ref [] in
      let diet_invalid = ref 0 and nim_invalid = ref 0 and mik_invalid = ref 0 in
      List.iter
        (fun seq_len ->
          let graph = Transformer.graph cfg ~seq_len in
          let mikr =
            Inference.run hw graph ~gemm:mik
              ~overhead_per_shape:(fun ~m ~n ~k -> overhead ~m ~n ~k)
              ()
          in
          if not (Inference.valid mikr) then incr mik_invalid;
          let dietr = Inference.run hw graph ~gemm:diet_g () in
          if Inference.valid dietr then
            vs_diet := (dietr.seconds /. mikr.seconds) :: !vs_diet
          else incr diet_invalid;
          let nimr = Inference.run hw graph ~gemm:nim_g () in
          if Inference.valid nimr then vs_nim := (nimr.seconds /. mikr.seconds) :: !vs_nim
          else incr nim_invalid;
          let cutr = Inference.run hw graph ~gemm:cutlass () in
          if Inference.valid cutr then vs_cut := (cutr.seconds /. mikr.seconds) :: !vs_cut)
        lengths;
      all_vs_dietcode := !vs_diet @ !all_vs_dietcode;
      let fmt = function [] -> "-" | l -> Table.fmt_speedup (Stats.mean l) in
      Table.add_row table
        [
          cfg.name; fmt !vs_diet; fmt !vs_nim; fmt !vs_cut;
          string_of_int !diet_invalid; string_of_int !nim_invalid;
          string_of_int !mik_invalid;
        ])
    models;
  {
    Exp.tables = [ table ];
    summary =
      [
        Printf.sprintf
          "MikPoly vs DietCode on valid runs: %.2fx mean (paper 1.55x); MikPoly has zero invalid runs while the range-bound compilers fail on out-of-range lengths."
          (match !all_vs_dietcode with [] -> nan | l -> Stats.mean l);
      ];
  }

let exp =
  {
    Exp.id = "tab5";
    title = "End-to-end LMs vs dynamic-shape compilers (Table 5)";
    paper_claim = "MikPoly 1.55x over DietCode; DietCode has numerous invalid runs, MikPoly zero";
    run;
  }
