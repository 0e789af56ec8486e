open Mikpoly_accel

type tuned = {
  model : Perf_model.t;
  rank_score : float;
}

type rank_style = Champion | Mean_normalized | Mean_tflops

let synthetic_sizes ~n_syn =
  if n_syn < 0 then invalid_arg "Autotuner.synthetic_sizes: n_syn < 0";
  List.init (n_syn + 1) (fun i -> 1 lsl i)

let pattern_one_cycles hw (kd : Kernel_desc.t) ~m ~n ~k =
  let t_steps = Load.k_steps kd ~k in
  let waves =
    Load.waves ~capacity:(Kernel_model.wave_capacity hw kd)
      (Load.tiles kd ~rows:m ~cols:n)
  in
  float_of_int waves *. Pipeline.nominal_task_cycles hw kd ~t_steps

let size_tflops hw kd ~size =
  let cycles = pattern_one_cycles hw kd ~m:size ~n:size ~k:size in
  let seconds = Hardware.cycles_to_seconds hw cycles in
  let flops = 2. *. (float_of_int size ** 3.) in
  flops /. seconds /. 1e12

let generate ~n_gen ~n_syn ~n_mik ~n_pred ~dtype ~path ~codegen_eff
    ~rank_style hw =
  (* Candidate scoring and g_predict learning are pure per-kernel maps —
     the bulk of the offline stage — so they go through the domain pool;
     each result lands at its own index, so the list is identical to the
     sequential one. *)
  let pmap f l =
    Array.to_list
      (Mikpoly_util.Domain_pool.map ~min_chunk:8 f (Array.of_list l))
  in
  let candidates = Search_space.enumerate hw ~n_gen ~dtype ~path ~codegen_eff in
  let sizes = Array.of_list (synthetic_sizes ~n_syn) in
  let perfs =
    pmap
      (fun kd -> (kd, Array.map (fun s -> size_tflops hw kd ~size:s) sizes))
      candidates
  in
  (* Best-normalized mean across the synthetic sizes. *)
  let n_sizes = Array.length sizes in
  let best_per_size = Array.make n_sizes 0. in
  List.iter
    (fun (_, v) ->
      Array.iteri (fun i x -> if x > best_per_size.(i) then best_per_size.(i) <- x) v)
    perfs;
  let score v =
    (* Default (Champion): a kernel is kept for the sizes it excels at —
       rank primarily by its best normalized performance across the
       synthetic sizes (so every per-size champion leads the ranking),
       tie-broken by the mean. The other styles exist for the ranking-rule
       ablation. *)
    let best_ratio = ref 0. and mean_norm = ref 0. and mean_tf = ref 0. in
    Array.iteri
      (fun i x ->
        mean_tf := !mean_tf +. x;
        if best_per_size.(i) > 0. then begin
          let r = x /. best_per_size.(i) in
          if r > !best_ratio then best_ratio := r;
          mean_norm := !mean_norm +. r
        end)
      v;
    match rank_style with
    | Champion -> !best_ratio +. (0.05 *. !mean_norm /. float_of_int n_sizes)
    | Mean_normalized -> !mean_norm /. float_of_int n_sizes
    | Mean_tflops -> !mean_tf /. float_of_int n_sizes
  in
  let ranked =
    List.sort
      (fun (_, a) (_, b) -> compare (b : float) a)
      (List.map (fun (kd, v) -> (kd, score v)) perfs)
  in
  (* Keep one reduction depth per (uM, uN) footprint, Top-n_mik overall. *)
  let seen = Hashtbl.create 64 in
  let top = ref [] and kept = ref 0 in
  List.iter
    (fun ((kd : Kernel_desc.t), s) ->
      if !kept < n_mik && not (Hashtbl.mem seen (kd.um, kd.un)) then begin
        Hashtbl.add seen (kd.um, kd.un) ();
        top := (kd, s) :: !top;
        incr kept
      end)
    ranked;
  pmap
    (fun (kd, rank_score) -> { model = Perf_model.learn ~n_pred hw kd; rank_score })
    (List.rev !top)
