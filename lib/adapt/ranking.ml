module Compiler = Mikpoly_core.Compiler
module Kernel_set = Mikpoly_core.Kernel_set
module Cost_model = Mikpoly_core.Cost_model
module Hardware = Mikpoly_accel.Hardware
module Load = Mikpoly_accel.Load
module Simulator = Mikpoly_accel.Simulator
module Stats = Mikpoly_util.Stats

type eval = {
  tau : float;
  top1_regret : float;
  samples : int;
}

(* The candidate portfolio for one shape: every micro-kernel as a
   single-region (Pattern I) program — the per-region choice Equation 2 is
   asked to make. [(predicted, simulated)] per candidate, in rank order. *)
let candidates ~(compiler : Compiler.t) ~(exec_hw : Hardware.t) ?correction
    (m, n, k) =
  let set = Compiler.kernels compiler in
  Array.to_list set.entries
  |> List.map (fun (e : Kernel_set.entry) ->
         let raw =
           Cost_model.region_cost Cost_model.Full e ~rows:m ~cols:n ~k_len:k
         in
         let predicted =
           (* The clamp keeps corrected predictions non-negative, so
              all-tied-at-zero predictions stay a representable outcome
              and τ-b reports 0 for it, not 1. *)
           match correction with
           | Some f -> Float.max 0. (f e raw)
           | None -> raw
         in
         (predicted, (Simulator.run exec_hw (Load.gemm e.desc ~m ~n ~k)).cycles))

let evaluate ~compiler ~exec_hw ?correction shapes =
  if shapes = [] then invalid_arg "Ranking.evaluate: no shapes";
  let taus, regrets =
    List.fold_left
      (fun (taus, regrets) shape ->
        let pairs = candidates ~compiler ~exec_hw ?correction shape in
        (* τ-b ([Stats.kendall_tau]): tied predicted costs are counted in
           the tie terms, never as concordant — a constant predictor
           scores τ = 0, not 1. *)
        let tau = Stats.kendall_tau pairs in
        (* Argmin by predicted resp. simulated cost; [fold_left] keeps the
           first (lowest-rank) candidate on ties, deterministically. *)
        let pick proj =
          List.fold_left
            (fun best cand ->
              match best with
              | Some b when proj b <= proj cand -> best
              | _ -> Some cand)
            None pairs
        in
        let chosen = Option.get (pick fst) and oracle = Option.get (pick snd) in
        let regret =
          if snd oracle > 0. then (snd chosen /. snd oracle) -. 1. else 0.
        in
        (tau :: taus, regret :: regrets))
      ([], []) shapes
  in
  {
    tau = Stats.mean taus;
    top1_regret = Stats.mean regrets;
    samples = List.length shapes;
  }
