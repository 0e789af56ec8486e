open Mikpoly_accel

type t = {
  kernel : Kernel_desc.t;
  g : Mikpoly_util.Piecewise.t;
}

let sample_points ~n_pred =
  if n_pred < 2 then invalid_arg "Perf_model.sample_points: n_pred < 2";
  let rec grow acc t = if t >= n_pred then List.rev (n_pred :: acc) else grow (t :: acc) (max (t + 1) (t * 3 / 2)) in
  grow [] 1

let learn ~n_pred hw kernel =
  let samples =
    List.map
      (fun t ->
        ( float_of_int t,
          Pipeline.nominal_task_cycles hw kernel ~t_steps:t ))
      (sample_points ~n_pred)
  in
  { kernel; g = Mikpoly_util.Piecewise.fit ~max_segments:8 ~tolerance:0.005 samples }

let predict_cycles t ~t_steps =
  Mikpoly_util.Piecewise.eval t.g (float_of_int (max 1 t_steps))

let max_model_error hw t =
  let worst = ref 0. in
  let check ts =
    let exact = Pipeline.nominal_task_cycles hw t.kernel ~t_steps:ts in
    let approx = predict_cycles t ~t_steps:ts in
    if exact > 0. then worst := max !worst (abs_float (approx -. exact) /. exact)
  in
  let ts = ref 1 in
  while !ts <= 5120 do
    check !ts;
    ts := !ts + max 1 (!ts / 7)
  done;
  !worst
