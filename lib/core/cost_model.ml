open Mikpoly_autosched

type objective = Full | Wave_only | Pipe_only

module Load = Mikpoly_accel.Load

let f_parallel (e : Kernel_set.entry) ~rows ~cols = Load.tiles e.desc ~rows ~cols

let f_num (e : Kernel_set.entry) ~k_len = Load.k_steps e.desc ~k:k_len

let f_wave (e : Kernel_set.entry) ~rows ~cols =
  float_of_int (Load.waves ~capacity:e.wave_capacity (f_parallel e ~rows ~cols))

let f_pipe (e : Kernel_set.entry) ~k_len =
  Perf_model.predict_cycles e.model ~t_steps:(f_num e ~k_len)

let region_cost objective e ~rows ~cols ~k_len =
  let wave = f_wave e ~rows ~cols in
  let pipe = f_pipe e ~k_len in
  match objective with
  | Full -> wave *. pipe
  | Wave_only ->
    (* Waves dominate; ties among equal-wave kernels go to the smallest
       padded compute volume, which lands on large tiles for regular
       shapes — the paper observes MikPoly-Wave "produces large-sized
       micro-kernels" — but knows nothing about pipeline efficiency. *)
    let padded =
      float_of_int (f_parallel e ~rows ~cols)
      *. float_of_int (f_num e ~k_len)
      *. Mikpoly_accel.Kernel_desc.flops e.desc
    in
    (wave *. 1e18) +. padded
  | Pipe_only -> pipe

let entry_for (set : Kernel_set.t) (r : Mikpoly_ir.Region.t) =
  match
    Kernel_set.find set ~um:r.kernel.um ~un:r.kernel.un ~uk:r.kernel.uk
  with
  | Some e -> e
  | None -> raise Not_found

let region_cost_of objective set (r : Mikpoly_ir.Region.t) =
  region_cost objective (entry_for set r) ~rows:r.rows ~cols:r.cols ~k_len:r.k_len

let program_cost objective set (p : Mikpoly_ir.Program.t) =
  List.fold_left (fun acc r -> acc +. region_cost_of objective set r) 0. p.regions
