open Mikpoly_accel

type t = {
  n_gen : int;
  n_syn : int;
  n_mik : int;
  n_pred : int;
  dtype : Mikpoly_tensor.Dtype.t;
  path : Hardware.compute_path;
  codegen_eff : float;
  patterns : Pattern.t list;
  primary_kernels : int;
  secondary_kernels : int;
  max_cuts : int;
  rank_style : Mikpoly_autosched.Autotuner.rank_style;
  search_launch_term : bool;
  cut_style : [ `Wave_aligned | `Remainder_only ];
  search_jobs : int;
  analytic_prune : bool;
}

let default (hw : Hardware.t) =
  match hw.kind with
  | Gpu ->
    {
      n_gen = 32;
      n_syn = 12;
      n_mik = 40;
      n_pred = 5120;
      dtype = Mikpoly_tensor.Dtype.F16;
      path = Hardware.Matrix;
      codegen_eff = 0.88;
      patterns = Pattern.gpu_defaults;
      primary_kernels = 12;
      secondary_kernels = 8;
      max_cuts = 6;
      rank_style = Mikpoly_autosched.Autotuner.Champion;
      search_launch_term = true;
      cut_style = `Wave_aligned;
      search_jobs = 0;
      analytic_prune = true;
    }
  | Npu ->
    {
      n_gen = 32;
      n_syn = 12;
      n_mik = 40;
      n_pred = 5120;
      dtype = Mikpoly_tensor.Dtype.F16;
      path = Hardware.Matrix;
      codegen_eff = 0.88;
      patterns = Pattern.npu_defaults;
      primary_kernels = 12;
      secondary_kernels = 8;
      max_cuts = 4;
      rank_style = Mikpoly_autosched.Autotuner.Champion;
      search_launch_term = true;
      cut_style = `Wave_aligned;
      search_jobs = 0;
      analytic_prune = true;
    }

let with_path path t =
  let codegen_eff = match path with Hardware.Matrix -> t.codegen_eff | Vector -> 0.85 in
  { t with path; codegen_eff }

let cache_key t =
  Printf.sprintf "g%d-s%d-m%d-p%d-%s-%s-%.3f-%s" t.n_gen t.n_syn t.n_mik t.n_pred
    (Mikpoly_tensor.Dtype.to_string t.dtype)
    (match t.path with Hardware.Matrix -> "matrix" | Vector -> "vector")
    t.codegen_eff
    (match t.rank_style with
    | Mikpoly_autosched.Autotuner.Champion -> "champion"
    | Mean_normalized -> "meannorm"
    | Mean_tflops -> "meantf")
