(* Extension (paper Section 7 "future work"): Winograd F(2,3) convolution
   as an alternative to the GEMM lowering. For the 3x3 stride-1 rows of
   Table 4 we verify the Winograd path numerically on sampled cases and
   report the arithmetic it saves. *)

open Mikpoly_util
open Mikpoly_tensor

let small_cases () =
  (* Numerical verification needs real tensors: sample small specs. *)
  [
    Conv_spec.make ~batch:1 ~in_channels:8 ~out_channels:8 ~in_h:14 ~in_w:14
      ~kernel:3 ();
    Conv_spec.make ~batch:2 ~in_channels:4 ~out_channels:16 ~in_h:9 ~in_w:9
      ~kernel:3 ();
    Conv_spec.make ~batch:1 ~in_channels:3 ~out_channels:8 ~in_h:20 ~in_w:20
      ~kernel:3 ();
  ]

let verify spec =
  let rng = Prng.create 99 in
  let input =
    Tensor.create (Shape.of_list [ spec.Conv_spec.batch; spec.in_channels; spec.in_h; spec.in_w ])
  in
  let weight =
    Tensor.create (Shape.of_list [ spec.out_channels; spec.in_channels; 3; 3 ])
  in
  Tensor.init_random rng input;
  Tensor.init_random rng weight;
  Tensor.approx_equal ~tolerance:1e-3
    (Winograd.run spec ~input ~weight)
    (Conv_ref.run spec ~input ~weight)

let run ~quick =
  let table =
    Table.create
      ~title:"Winograd F(2,3) vs GEMM lowering on Table 4's 3x3 stride-1 layers"
      ~header:[ "model"; "cases"; "mean multiply reduction" ]
  in
  let suite =
    List.filter
      (fun ((spec : Conv_spec.t), _) -> Winograd.supported spec)
      (Mikpoly_workloads.Suite.table4_conv ())
  in
  let suite = if quick then Mikpoly_workloads.Suite.sample ~every:40 suite else suite in
  let by_model = Hashtbl.create 4 in
  List.iter
    (fun ((spec : Conv_spec.t), model) ->
      let direct = Conv_spec.flops spec /. 2. in
      let ratio = direct /. Winograd.multiplies spec in
      let acc, n = Option.value (Hashtbl.find_opt by_model model) ~default:(0., 0) in
      Hashtbl.replace by_model model (acc +. ratio, n + 1))
    suite;
  Hashtbl.fold (fun model (acc, n) rows -> (model, acc /. float_of_int n, n) :: rows)
    by_model []
  |> List.sort compare
  |> List.iter (fun (model, mean, n) ->
         Table.add_row table
           [ model; string_of_int n; Printf.sprintf "%.2fx" mean ]);
  let all_ok = List.for_all verify (small_cases ()) in
  {
    Exp.tables = [ table ];
    summary =
      [
        Printf.sprintf
          "Winograd F(2,3) verified against the direct convolution on sampled tensors: %s; theoretical multiply reduction approaches 2.25x on large feature maps."
          (if all_ok then "exact" else "MISMATCH");
      ];
  }

let exp =
  {
    Exp.id = "winograd";
    title = "Winograd convolution (extension, paper future work)";
    paper_claim = "Section 7: Winograd listed as future work for the convolution path";
    run;
  }
