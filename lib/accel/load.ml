type region = {
  kernel : Kernel_desc.t;
  n_tasks : int;
  t_steps : int;
}

type t = {
  regions : region list;
  footprint_bytes : float;
}

let region ~kernel ~n_tasks ~t_steps =
  if n_tasks < 1 || t_steps < 1 then
    invalid_arg "Load.region: n_tasks and t_steps must be >= 1";
  { kernel; n_tasks; t_steps }

let make ~regions ~footprint_bytes =
  if footprint_bytes < 0. then invalid_arg "Load.make: negative footprint";
  { regions; footprint_bytes }

let gemm_footprint_bytes ~dtype ~m ~n ~k =
  let elems = (m * k) + (k * n) + (m * n) in
  float_of_int (elems * Mikpoly_tensor.Dtype.bytes dtype)

let ceil_div a b = (a + b - 1) / b

let tiles (kernel : Kernel_desc.t) ~rows ~cols =
  ceil_div rows kernel.um * ceil_div cols kernel.un

let k_steps (kernel : Kernel_desc.t) ~k = ceil_div k kernel.uk

let waves ~capacity n_tasks = ceil_div n_tasks capacity

let gemm (kernel : Kernel_desc.t) ~m ~n ~k =
  make
    ~regions:
      [
        region ~kernel ~n_tasks:(tiles kernel ~rows:m ~cols:n)
          ~t_steps:(k_steps kernel ~k);
      ]
    ~footprint_bytes:(gemm_footprint_bytes ~dtype:kernel.dtype ~m ~n ~k)

let total_tasks t = List.fold_left (fun acc r -> acc + r.n_tasks) 0 t.regions
