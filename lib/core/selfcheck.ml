open Mikpoly_tensor
open Mikpoly_ir

type failure = {
  shape : int * int * int;
  max_abs_diff : float;
  program : string;
}

let check_gemm ?(tolerance = 1e-3) ?(seed = 0) compiler ~m ~n ~k =
  let op = Operator.gemm ~m ~n ~k () in
  let compiled = Compiler.compile compiler op in
  let rng = Mikpoly_util.Prng.create (seed lxor (m + (31 * n) + (977 * k))) in
  let a = Tensor.create (Shape.of_list [ m; k ]) in
  let b = Tensor.create (Shape.of_list [ k; n ]) in
  Tensor.init_random rng a;
  Tensor.init_random rng b;
  let got = Executor.gemm compiled.program a b in
  let want = Gemm_ref.gemm a b in
  if Tensor.approx_equal ~tolerance got want then Ok ()
  else
    Error
      {
        shape = (m, n, k);
        max_abs_diff = Tensor.max_abs_diff got want;
        program = Program.to_string compiled.program;
      }

type prune_failure = {
  pf_shape : int * int * int;
  pf_pruned_key : string;
  pf_unpruned_key : string;
  pf_pruned_cost : float;
  pf_unpruned_cost : float;
}

let check_prune ?config compiler ~m ~n ~k =
  let base =
    match config with Some c -> c | None -> Compiler.config compiler
  in
  let op = Operator.gemm ~m ~n ~k () in
  let run analytic =
    Polymerize.polymerize (Compiler.kernels compiler)
      { base with Config.analytic_prune = analytic }
      op
  in
  let pruned = run true in
  let unpruned = run false in
  let key (c : Polymerize.compiled) = Program.to_string c.Polymerize.program in
  if
    pruned.Polymerize.program = unpruned.Polymerize.program
    && key pruned = key unpruned
    && pruned.Polymerize.predicted_cost = unpruned.Polymerize.predicted_cost
  then Ok pruned.Polymerize.pruned_analytic
  else
    Error
      {
        pf_shape = (m, n, k);
        pf_pruned_key = key pruned;
        pf_unpruned_key = key unpruned;
        pf_pruned_cost = pruned.Polymerize.predicted_cost;
        pf_unpruned_cost = unpruned.Polymerize.predicted_cost;
      }

let check_prune_random ?config ?(seed = 0) ?(max_dim = 4096) compiler ~count =
  if count < 1 then invalid_arg "Selfcheck.check_prune_random: count < 1";
  let rng = Mikpoly_util.Prng.create (seed + 0xA11C) in
  let rec go i acc =
    if i = count then Ok acc
    else begin
      let dim () = Mikpoly_util.Prng.log_int_in rng 1 max_dim in
      match check_prune ?config compiler ~m:(dim ()) ~n:(dim ()) ~k:(dim ()) with
      | Ok pruned -> go (i + 1) (acc + pruned)
      | Error _ as e -> e
    end
  in
  go 0 0

let check_random_shapes ?tolerance ?(seed = 0) ?(max_dim = 300) compiler ~count =
  if count < 1 then invalid_arg "Selfcheck.check_random_shapes: count < 1";
  let rng = Mikpoly_util.Prng.create (seed + 0x5EF) in
  let rec go i =
    if i = count then Ok count
    else begin
      let dim () = Mikpoly_util.Prng.log_int_in rng 1 max_dim in
      match
        check_gemm ?tolerance ~seed:(seed + i) compiler ~m:(dim ()) ~n:(dim ())
          ~k:(dim ())
      with
      | Ok () -> go (i + 1)
      | Error _ as e -> e
    end
  in
  go 0
