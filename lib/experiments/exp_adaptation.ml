(* Extension (ROADMAP: close the cost-model feedback loop): online
   calibration and drift-adaptive recompilation. The execution device
   degrades non-uniformly halfway through a serving-style observation
   trace while the compiler's offline-tuned model goes stale; the
   adapter's scheduled refits recalibrate from prediction residuals,
   invalidate and recompile — and the calibrated model must rank candidate
   programs for unseen shapes measurably better than the stale one. *)

open Mikpoly_util
open Mikpoly_adapt

let pc x = Printf.sprintf "%.2f%%" (100. *. x)

let run ~quick =
  (* A fresh compiler, not the shared [Backends.gpu] one: the scenario
     installs an observer and a correction on it and drifts its execution
     environment, none of which may leak into other experiments. Offline
     tuning comes from the kernel-set cache either way. *)
  let compiler = Mikpoly_core.Compiler.create Mikpoly_accel.Hardware.a100 in
  let seed = Prng.default_seed ~fallback:0xADA () in
  let trace = if quick then 32 else 64 in
  let pool = if quick then 12 else 16 in
  let holdout = if quick then 8 else 10 in
  let r = Scenario.run ~seed ~trace ~pool ~holdout compiler in
  let stats = Adapter.stats r.adapter in
  let ranking =
    Table.create ~title:"Ranking quality on held-out shapes (drifted device)"
      ~header:[ "model"; "Kendall tau"; "top-1 regret"; "shapes" ]
  in
  let ranking_row label (e : Ranking.eval) =
    Table.add_row ranking
      [
        label;
        Printf.sprintf "%.4f" e.tau;
        pc e.top1_regret;
        string_of_int e.samples;
      ]
  in
  ranking_row "stale model" r.before;
  ranking_row "calibrated model" r.after;
  let refits =
    Table.create ~title:"Refits"
      ~header:[ "metric"; "value" ]
  in
  List.iter
    (fun (k, v) -> Table.add_row refits [ k; v ])
    [
      ("observations", string_of_int stats.observations);
      ("recalibrations", string_of_int stats.recalibrations);
      ("programs invalidated", string_of_int stats.invalidated);
      ("hot shapes recompiled", string_of_int stats.recompiles);
      ("recompile stall", Table.fmt_time_us r.stall_seconds);
      ("calibrated kernels", string_of_int stats.calibrated_kernels);
    ];
  let summary =
    [
      Printf.sprintf
        "Under drift the stale model ranks held-out candidates at Kendall tau = %.4f with %.2f%% top-1 regret; after online calibration tau = %.4f and regret %.2f%% — the corrected Eq. 2 picks the right micro-kernels again without re-running offline tuning."
        r.before.tau
        (100. *. r.before.top1_regret)
        r.after.tau
        (100. *. r.after.top1_regret);
      Printf.sprintf
        "The adapter recalibrated %d time(s) over %d observations (a refit every 16 plus one after the probe sweeps), invalidated %d cached program(s) and eagerly recompiled %d hot shape(s), charging %s of modeled search time as serving stall."
        stats.recalibrations stats.observations stats.invalidated
        stats.recompiles
        (Table.fmt_time_us r.stall_seconds);
    ]
  in
  {
    Exp.tables = [ ranking; refits ];
    summary;
  }

let exp =
  {
    Exp.id = "adaptation";
    title = "Online cost-model calibration under hardware drift (extension)";
    paper_claim =
      "Extension of Eq. 2: g_predict is learned offline and assumed fresh; an online residual-feedback loop must keep the ranking sound when the execution environment drifts from the tuned model";
    run;
  }
