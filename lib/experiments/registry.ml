let all =
  [
    Exp_tab1.exp;
    Exp_fig1.exp;
    Exp_suites.tab3;
    Exp_suites.tab4;
    Exp_fig6.exp;
    Exp_fig7.exp;
    Exp_fig8.exp;
    Exp_fig9.exp;
    Exp_npu_e2e.exp;
    Exp_fig10.exp;
    Exp_tab5.exp;
    Exp_llama.tab8;
    Exp_llama.fig11;
    Exp_fig12.exp;
    Exp_fig13.exp;
    Exp_case_study.exp;
    Exp_ablations.exp;
    Exp_winograd.exp;
    Exp_fusion.exp;
    Exp_inflight.exp;
    Exp_batched.exp;
    Exp_costmodel.exp;
    Exp_serving.exp;
    Exp_adaptation.exp;
    Exp_resilience.exp;
    Exp_graph.exp;
    Exp_fleet.exp;
    Exp_hetero.exp;
  ]

let find id = List.find_opt (fun (e : Exp.t) -> e.id = id) all

let ids = List.map (fun (e : Exp.t) -> e.id) all
