open Mikpoly_accel
open Mikpoly_autosched

type t = {
  hw : Hardware.t;
  m_range : int * int;
  n_range : int * int;
  k_range : int * int;
  m_grid : int array;
  n_grid : int array;
  k_grid : int array;
  programs : (int * int * int, Kernel_desc.t) Hashtbl.t;
}

let codegen_eff = 0.85 (* auto-scheduler grade CUDA-core code *)

(* The tuning grid takes the powers of [grid_step] inside each range. *)
let grid_step = 4

let grid_points (lo, hi) =
  if lo < 1 || lo > hi then invalid_arg "Dietcode: invalid range";
  let acc = ref [ lo; hi ] in
  let v = ref 1 in
  while !v <= hi do
    if !v >= lo then acc := !v :: !acc;
    v := !v * grid_step
  done;
  Array.of_list (List.sort_uniq compare !acc)

let kernel_pool hw =
  Search_space.enumerate hw ~n_gen:16 ~dtype:Mikpoly_tensor.Dtype.F16
    ~path:Hardware.Vector ~codegen_eff

let tune_point hw pool ~m ~n ~k =
  let best = ref None in
  List.iter
    (fun kd ->
      let c = Autotuner.pattern_one_cycles hw kd ~m ~n ~k in
      match !best with
      | Some (_, bc) when bc <= c -> ()
      | _ -> best := Some (kd, c))
    pool;
  match !best with Some (kd, _) -> kd | None -> failwith "DietCode: empty kernel pool"

let create hw ~m_range ~n_range ~k_range =
  let m_grid = grid_points m_range in
  let n_grid = grid_points n_range in
  let k_grid = grid_points k_range in
  let pool = kernel_pool hw in
  let programs = Hashtbl.create 256 in
  Array.iter
    (fun m ->
      Array.iter
        (fun n ->
          Array.iter
            (fun k ->
              Hashtbl.replace programs (m, n, k) (tune_point hw pool ~m ~n ~k))
            k_grid)
        n_grid)
    m_grid;
  { hw; m_range; n_range; k_range; m_grid; n_grid; k_grid; programs }

let num_programs t = Hashtbl.length t.programs

let in_range t ~m ~n ~k =
  let within (lo, hi) v = v >= lo && v <= hi in
  within t.m_range m && within t.n_range n && within t.k_range k

let nearest grid v =
  let lv = log (float_of_int v) in
  let best = ref grid.(0) and best_d = ref infinity in
  Array.iter
    (fun g ->
      let d = abs_float (log (float_of_int g) -. lv) in
      if d < !best_d then begin
        best := g;
        best_d := d
      end)
    grid;
  !best

let backend t =
  let gemm ~m ~n ~k =
    if m < 1 || n < 1 || k < 1 then Error "non-positive GEMM dimension"
    else if not (in_range t ~m ~n ~k) then
      Error
        (Printf.sprintf "shape (%d,%d,%d) outside the declared dynamic range" m n k)
    else begin
      let gm = nearest t.m_grid m and gn = nearest t.n_grid n and gk = nearest t.k_grid k in
      let kd = Hashtbl.find t.programs (gm, gn, gk) in
      Backend.simulate_load t.hw
        ~description:
          (Printf.sprintf "%s (tuned for %dx%dx%d)" (Kernel_desc.name kd) gm gn gk)
        (Load.gemm kd ~m ~n ~k)
    end
  in
  { Backend.name = "DietCode"; gemm }
