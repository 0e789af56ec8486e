open Mikpoly_accel

type run = {
  seconds : float;
  sim : Simulator.result;
  description : string;
}

type t = {
  name : string;
  gemm : m:int -> n:int -> k:int -> (run, string) result;
}

let simulate_load hw ~description load =
  match Simulator.run hw load with
  | sim -> Ok { seconds = sim.seconds; sim; description }
  | exception Simulator.Kernel_does_not_fit name ->
    Error (Printf.sprintf "kernel %s does not fit the device" name)

let of_catalog ?(path = Hardware.Matrix) ?(dtype = Mikpoly_tensor.Dtype.F16)
    catalog hw =
  let gemm ~m ~n ~k =
    if m < 1 || n < 1 || k < 1 then Error "non-positive GEMM dimension"
    else begin
      let kd = Catalog.select catalog hw ~path ~dtype ~m ~n ~k in
      simulate_load hw ~description:(Kernel_desc.name kd) (Load.gemm kd ~m ~n ~k)
    end
  in
  { name = catalog.Catalog.name; gemm }

let conv_seconds t spec =
  let m, n, k = Mikpoly_tensor.Conv_spec.gemm_shape spec in
  match t.gemm ~m ~n ~k with
  | Ok run -> Ok run.seconds
  | Error _ as e -> e
