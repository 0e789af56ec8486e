(* Figure 13: hyper-parameter sensitivity. Sweeping n_gen, n_syn and n_mik
   shows speedup saturating around the paper's chosen (32, 12, 40). *)

open Mikpoly_util
open Mikpoly_core
open Mikpoly_workloads

let sweep_cases ~quick =
  Suite.sample ~every:(if quick then 250 else 40) (Suite.table3_gemm ())

let run ~quick =
  let base = Config.default Mikpoly_accel.Hardware.a100 in
  let cases = sweep_cases ~quick in
  let table =
    Table.create ~title:"Figure 13: hyper-parameter sensitivity (mean speedup vs cuBLAS)"
      ~header:[ "parameter"; "value"; "mean speedup" ]
  in
  let sweep name values apply =
    List.iter
      (fun v ->
        let config = apply base v in
        let s = Backends.mean_speedup ~config ~cases in
        let star = if v = List.assoc name [ ("n_gen", 32); ("n_syn", 12); ("n_mik", 40) ] then " *" else "" in
        Table.add_row table
          [ name; string_of_int v ^ star; Table.fmt_speedup s ])
      values
  in
  let gen_values = if quick then [ 8; 32 ] else [ 4; 8; 16; 24; 32; 40 ] in
  let syn_values = if quick then [ 6; 12 ] else [ 2; 4; 8; 12; 14 ] in
  let mik_values = if quick then [ 10; 40 ] else [ 5; 10; 20; 40; 60 ] in
  sweep "n_gen" gen_values (fun c v -> { c with Config.n_gen = v });
  sweep "n_syn" syn_values (fun c v -> { c with Config.n_syn = v });
  sweep "n_mik" mik_values (fun c v -> { c with Config.n_mik = v });
  {
    Exp.tables = [ table ];
    summary =
      [
        "Speedup grows with each hyper-parameter and saturates near the paper's (n_gen, n_syn, n_mik) = (32, 12, 40), marked *.";
      ];
  }

let exp =
  {
    Exp.id = "fig13";
    title = "Hyper-parameter sensitivity (Figure 13)";
    paper_claim = "Performance saturates at n_gen=32, n_syn=12, n_mik=40";
    run;
  }
