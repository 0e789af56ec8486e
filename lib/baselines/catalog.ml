open Mikpoly_accel

type t = {
  name : string;
  codegen_eff : float;
  tiles : (int * int * int) list;
}

let gpu_tiles =
  [
    (256, 128, 32);
    (128, 256, 32);
    (128, 128, 32);
    (128, 128, 64);
    (256, 64, 32);
    (64, 256, 32);
    (128, 64, 32);
    (64, 128, 32);
    (64, 64, 32);
    (64, 64, 64);
    (32, 64, 64);
    (64, 32, 64);
    (32, 32, 64);
  ]

let cublas = { name = "cuBLAS"; codegen_eff = 0.96; tiles = gpu_tiles }

let cudnn = { name = "cuDNN"; codegen_eff = 0.93; tiles = gpu_tiles }

let cann =
  {
    name = "CANN";
    codegen_eff = 0.92;
    tiles =
      [
        (256, 256, 64);
        (256, 128, 64);
        (128, 256, 64);
        (128, 128, 128);
        (256, 64, 64);
        (64, 256, 64);
        (128, 128, 64);
        (128, 64, 64);
        (64, 128, 64);
        (64, 64, 128);
        (64, 64, 64);
      ];
  }

let kernels t hw ~path ~dtype =
  List.filter_map
    (fun (um, un, uk) ->
      let k = Kernel_desc.make ~dtype ~path ~codegen_eff:t.codegen_eff
          ~origin:t.name ~um ~un ~uk ()
      in
      if Kernel_model.blocks_per_pe hw k >= 1 then Some k else None)
    t.tiles

(* Estimated padded compute time, ignoring wave quantization: the padded
   flop volume divided by the tile's shape-limited throughput. *)
let heuristic_score (k : Kernel_desc.t) ~m ~n ~k:kk =
  let padded_m = Load.ceil_div m k.um * k.um in
  let padded_n = Load.ceil_div n k.un * k.un in
  let padded_k = Load.ceil_div kk k.uk * k.uk in
  let padded_flops =
    2. *. float_of_int padded_m *. float_of_int padded_n *. float_of_int padded_k
  in
  padded_flops /. Kernel_model.shape_eff k

let select t hw ~path ~dtype ~m ~n ~k =
  match kernels t hw ~path ~dtype with
  | [] -> failwith (t.name ^ ": no catalog kernel fits this device")
  | ks ->
    let best =
      List.fold_left
        (fun acc cand ->
          let s = heuristic_score cand ~m ~n ~k in
          match acc with
          | Some (_, bs) when bs <= s -> acc
          | _ -> Some (cand, s))
        None ks
    in
    (match best with Some (kd, _) -> kd | None -> assert false)
