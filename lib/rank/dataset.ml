module Compiler = Mikpoly_core.Compiler
module Kernel_set = Mikpoly_core.Kernel_set
module Polymerize = Mikpoly_core.Polymerize
module Pattern = Mikpoly_core.Pattern
module Config = Mikpoly_core.Config
module Hardware = Mikpoly_accel.Hardware
module Operator = Mikpoly_ir.Operator
module Region = Mikpoly_ir.Region
module Program = Mikpoly_ir.Program
module Prng = Mikpoly_util.Prng

type example = {
  ex_features : float array;
  ex_target : float;
  ex_shape : int * int * int;
  ex_kernel : int * int * int;
  ex_raw : float;
  ex_observed : float;
}

let ceil_div a b = (a + b - 1) / b

(* Deterministic log-uniform GEMM shapes, the range the adaptation
   scenario probes; [distinct] shapes so train/holdout splits by prefix
   never alias. *)
let sample_shapes ~seed ~count =
  let rng = Prng.create seed in
  let seen = Hashtbl.create 64 in
  let rec draw budget =
    let s =
      ( Prng.log_int_in rng 64 2048,
        Prng.log_int_in rng 64 2048,
        Prng.log_int_in rng 64 1024 )
    in
    if Hashtbl.mem seen s && budget > 0 then draw (budget - 1)
    else begin
      Hashtbl.replace seen s ();
      s
    end
  in
  List.init count (fun _ -> draw 64)

let harvest ~(compiler : Compiler.t) ?hw shapes =
  let device =
    match hw with Some h -> h | None -> Compiler.hardware compiler
  in
  let set = Compiler.kernels compiler in
  let dtype = (Compiler.config compiler).Config.dtype in
  let acc = ref [] in
  (* Observations flow through the compiler's residual-feedback hook —
     the same channel the adaptation layer listens on. The hook is
     temporarily ours; callers that keep a live adapter should harvest on
     a dedicated compiler. *)
  Compiler.set_observer compiler (Some (fun ob -> acc := ob :: !acc));
  Fun.protect
    ~finally:(fun () -> Compiler.set_observer compiler None)
    (fun () ->
      List.iter
        (fun (m, n, k) ->
          let op = Operator.gemm ~dtype ~m ~n ~k () in
          Array.iter
            (fun (e : Kernel_set.entry) ->
              (* One single-region Pattern-I program per kernel: the same
                 per-kernel probe grid the ranking evaluator scores, so
                 training targets and evaluation candidates coincide. *)
              let region =
                Region.make ~row_off:0 ~col_off:0 ~rows:m ~cols:n ~k_len:k
                  ~kernel:e.desc
              in
              let program =
                Program.make ~op ~regions:[ region ] ~pattern_name:"I"
              in
              let compiled =
                {
                  Polymerize.program;
                  predicted_cost = 0.;
                  pattern = Pattern.I;
                  candidates = 1;
                  pruned = 0;
                  pruned_analytic = 0;
                  search_seconds = 0.;
                  first_hit = 1;
                }
              in
              ignore (Compiler.simulate_observed ~hw:device compiler compiled))
            set.entries)
        shapes);
  List.concat_map
    (fun (ob : Compiler.observation) ->
      let m, n, k = ob.ob_shape in
      List.filter_map
        (fun (r : Compiler.region_observation) ->
          let d = r.ro_kernel in
          match Kernel_set.find set ~um:d.um ~un:d.un ~uk:d.uk with
          | None -> None
          | Some e ->
            let waves = ceil_div r.ro_n_tasks e.wave_capacity in
            let pipe = r.ro_predicted /. float_of_int waves in
            let features =
              Features.of_candidate ~hw:device ~m ~n ~k ~um:d.um ~un:d.un
                ~uk:d.uk ~wave_capacity:e.wave_capacity
                ~n_tasks:r.ro_n_tasks ~pipe
            in
            let target =
              log
                (Float.max 1e-9 r.ro_observed
                /. Float.max 1e-9 r.ro_predicted)
            in
            Some
              {
                ex_features = features;
                ex_target = target;
                ex_shape = (m, n, k);
                ex_kernel = (d.um, d.un, d.uk);
                ex_raw = r.ro_predicted;
                ex_observed = r.ro_observed;
              })
        ob.ob_regions)
    (List.rev !acc)
