open Mikpoly_accel

type t = {
  row_off : int;
  col_off : int;
  rows : int;
  cols : int;
  k_len : int;
  kernel : Kernel_desc.t;
}

let make ~row_off ~col_off ~rows ~cols ~k_len ~kernel =
  if row_off < 0 || col_off < 0 then invalid_arg "Region.make: negative offset";
  if rows < 1 || cols < 1 || k_len < 1 then
    invalid_arg "Region.make: non-positive extent";
  { row_off; col_off; rows; cols; k_len; kernel }

let n_tasks t = Load.tiles t.kernel ~rows:t.rows ~cols:t.cols

let t_steps t = Load.k_steps t.kernel ~k:t.k_len

let useful_flops t =
  2. *. float_of_int t.rows *. float_of_int t.cols *. float_of_int t.k_len

let padded_flops t =
  float_of_int (n_tasks t) *. float_of_int (t_steps t) *. Kernel_desc.flops t.kernel

let to_load_region t =
  Load.region ~kernel:t.kernel ~n_tasks:(n_tasks t) ~t_steps:(t_steps t)

let to_string t =
  Printf.sprintf "R[%d+%d, %d+%d; K=%d; %s]" t.row_off t.rows t.col_off t.cols
    t.k_len (Kernel_desc.name t.kernel)
