open Mikpoly_accel

let default_tile ~m ~n =
  if m >= 128 && n >= 128 then (128, 128, 32) else (64, 64, 32)

let backend ?(path = Hardware.Matrix) hw =
  let dtype = Mikpoly_tensor.Dtype.F16 in
  let gemm ~m ~n ~k =
    if m < 1 || n < 1 || k < 1 then Error "non-positive GEMM dimension"
    else begin
      let um, un, uk = default_tile ~m ~n in
      let kd =
        Kernel_desc.make ~dtype ~path ~codegen_eff:0.90 ~origin:"cutlass" ~um ~un
          ~uk ()
      in
      Backend.simulate_load hw ~description:(Kernel_desc.name kd)
        (Load.gemm kd ~m ~n ~k)
    end
  in
  { Backend.name = "CUTLASS"; gemm }
