open Mikpoly_tensor

type t =
  | Gemm of { m : int; n : int; k : int; dtype : Dtype.t }
  | Conv of Conv_spec.t
  | Batched_gemm of { count : int; m : int; n : int; k : int; dtype : Dtype.t }

let max_volume = 1 lsl 48

(* a ≤ ⌊V/b⌋ exactly when a·b ≤ V, for positive a and b. *)
let within_volume ~count ~m ~n ~k =
  count <= max_volume / m
  && count * m <= max_volume / n
  && count * m * n <= max_volume / k

let gemm ?(dtype = Dtype.F16) ~m ~n ~k () =
  if m <= 0 || n <= 0 || k <= 0 then invalid_arg "Operator.gemm: non-positive dimension";
  if not (within_volume ~count:1 ~m ~n ~k) then
    invalid_arg "Operator.gemm: M·N·K above 2^48";
  Gemm { m; n; k; dtype }

let batched_gemm ?(dtype = Dtype.F16) ~count ~m ~n ~k () =
  if count <= 0 || m <= 0 || n <= 0 || k <= 0 then
    invalid_arg "Operator.batched_gemm: non-positive dimension";
  if not (within_volume ~count ~m ~n ~k) then
    invalid_arg "Operator.batched_gemm: count·M·N·K above 2^48";
  Batched_gemm { count; m; n; k; dtype }

(* The lowered M and K are products too: bound their factors first, so
   no product below can overflow. *)
let conv (spec : Conv_spec.t) =
  let out_h = Conv_spec.out_h spec and out_w = Conv_spec.out_w spec in
  if spec.batch <= 0 || out_h <= 0 || out_w <= 0 || spec.out_channels <= 0
     || spec.in_channels <= 0 || spec.kernel_h <= 0 || spec.kernel_w <= 0
  then invalid_arg "Operator.conv: non-positive dimension";
  if
    not
      (within_volume ~count:spec.batch ~m:out_h ~n:out_w ~k:1
      && within_volume ~count:spec.in_channels ~m:spec.kernel_h ~n:spec.kernel_w ~k:1
      &&
      let m, n, k = Conv_spec.gemm_shape spec in
      within_volume ~count:1 ~m ~n ~k)
  then invalid_arg "Operator.conv: lowered M·N·K above 2^48";
  Conv spec

let gemm_shape = function
  | Gemm { m; n; k; _ } | Batched_gemm { m; n; k; _ } -> (m, n, k)
  | Conv spec -> Conv_spec.gemm_shape spec

let instance_count = function
  | Batched_gemm { count; _ } -> count
  | Gemm _ | Conv _ -> 1

let dtype = function
  | Gemm { dtype; _ } | Batched_gemm { dtype; _ } -> dtype
  | Conv _ -> Dtype.F16

let flops t =
  let m, n, k = gemm_shape t in
  2. *. float_of_int m *. float_of_int n *. float_of_int k
  *. float_of_int (instance_count t)

let footprint_bytes t =
  let m, n, k = gemm_shape t in
  float_of_int (instance_count t)
  *. Mikpoly_accel.Load.gemm_footprint_bytes ~dtype:(dtype t) ~m ~n ~k

let to_string = function
  | Gemm { m; n; k; dtype } ->
    Printf.sprintf "gemm(%d,%d,%d,%s)" m n k (Dtype.to_string dtype)
  | Batched_gemm { count; m; n; k; dtype } ->
    Printf.sprintf "batched_gemm(%dx %d,%d,%d,%s)" count m n k
      (Dtype.to_string dtype)
  | Conv spec -> Conv_spec.to_string spec
