(* Tables 3 and 4: the dynamic-shape benchmark suites themselves. *)

open Mikpoly_util
open Mikpoly_workloads

let run_tab3 ~quick:_ =
  let table =
    Table.create ~title:"Table 3: benchmarked GEMM with dynamic shapes"
      ~header:[ "category"; "M range"; "N range"; "K range"; "#cases" ]
  in
  let fmt (lo, hi) = Printf.sprintf "[%d, %d]" lo hi in
  let (dm, dn, dk) = Deepbench.ranges in
  Table.add_row table
    [ "deepbench"; fmt dm; fmt dn; fmt dk; string_of_int Deepbench.count ];
  List.iter
    (fun (r : Real_world.row) ->
      Table.add_row table
        [ r.category; fmt r.m_range; fmt r.n_range; fmt r.k_range;
          string_of_int r.count ])
    Real_world.rows;
  let total = Deepbench.count + Real_world.count in
  {
    Exp.tables = [ table ];
    summary =
      [
        Printf.sprintf
          "%d GEMM cases generated (the paper prints per-row counts summing to %d; its in-text total of 1599 does not match its own table — see DESIGN.md)."
          total total;
      ];
  }

let run_tab4 ~quick:_ =
  let table =
    Table.create ~title:"Table 4: benchmarked convolution with dynamic shapes"
      ~header:[ "model"; "filter"; "stride"; "feature-map range"; "#cases" ]
  in
  List.iter
    (fun (r : Conv_suite.row) ->
      let lo, hi = r.spatial_range in
      Table.add_row table
        [
          r.model;
          Printf.sprintf "%dx%d" r.kernel r.kernel;
          string_of_int r.stride;
          Printf.sprintf "[%d, %d]" lo hi;
          string_of_int r.count;
        ])
    Conv_suite.rows;
  {
    Exp.tables = [ table ];
    summary =
      [
        Printf.sprintf "%d convolution cases across 4 CNN families (paper: 5485)."
          Conv_suite.count;
      ];
  }

let tab3 =
  {
    Exp.id = "tab3";
    title = "GEMM suite (Table 3)";
    paper_claim = "166 DeepBench + real-world application GEMM cases";
    run = run_tab3;
  }

let tab4 =
  {
    Exp.id = "tab4";
    title = "Convolution suite (Table 4)";
    paper_claim = "5485 convolution cases across AlexNet/GoogLeNet/ResNet/VGG";
    run = run_tab4;
  }
