open Mikpoly_accel
open Mikpoly_autosched

type t = {
  hw : Hardware.t;
  m_range : int * int;
  n_range : int * int;
  k_range : int * int;
  kernel : Kernel_desc.t;
}

let codegen_eff = 0.70 (* generic VM-dispatched code without specialization *)

let geo_mid (lo, hi) =
  if lo < 1 || lo > hi then invalid_arg "Nimble: invalid range";
  int_of_float (sqrt (float_of_int lo *. float_of_int hi))

let create hw ~m_range ~n_range ~k_range =
  let pool =
    Search_space.enumerate hw ~n_gen:16 ~dtype:Mikpoly_tensor.Dtype.F16
      ~path:Hardware.Vector ~codegen_eff
  in
  let m = max 1 (geo_mid m_range)
  and n = max 1 (geo_mid n_range)
  and k = max 1 (geo_mid k_range) in
  let best = ref None in
  List.iter
    (fun kd ->
      let c = Autotuner.pattern_one_cycles hw kd ~m ~n ~k in
      match !best with
      | Some (_, bc) when bc <= c -> ()
      | _ -> best := Some (kd, c))
    pool;
  let kernel =
    match !best with Some (kd, _) -> kd | None -> failwith "Nimble: empty pool"
  in
  { hw; m_range; n_range; k_range; kernel }

let kernel t = t.kernel

let backend t =
  let within (lo, hi) v = v >= lo && v <= hi in
  let gemm ~m ~n ~k =
    if m < 1 || n < 1 || k < 1 then Error "non-positive GEMM dimension"
    else if
      not (within t.m_range m && within t.n_range n && within t.k_range k)
    then
      Error
        (Printf.sprintf "shape (%d,%d,%d) outside the declared dynamic range" m n k)
    else begin
      let kd = t.kernel in
      Backend.simulate_load t.hw ~description:(Kernel_desc.name kd)
        (Load.gemm kd ~m ~n ~k)
    end
  in
  { Backend.name = "Nimble"; gemm }
