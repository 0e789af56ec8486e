module Compiler = Mikpoly_core.Compiler
module Hardware = Mikpoly_accel.Hardware
module Prng = Mikpoly_util.Prng

type result = {
  adapter : Adapter.t;
  before : Ranking.eval;
  after : Ranking.eval;
  stall_seconds : float;
  trace_length : int;
  holdout : (int * int * int) list;
}

let drifted_hardware ?(severity = 0.35) (hw : Hardware.t) =
  if severity < 0. || severity >= 1. then
    invalid_arg "Scenario.drifted_hardware: severity must be in [0, 1)";
  (* Non-uniform degradation: shared-fabric and DRAM bandwidth fall
     hardest, vector throughput somewhat, launches get costlier — so
     bandwidth-bound micro-kernels slow down relative to compute-bound
     ones and the stale model's ranking is genuinely wrong, not merely
     offset by a constant factor. *)
  {
    hw with
    fabric_bytes_per_cycle = hw.fabric_bytes_per_cycle *. (1. -. severity);
    dram_bytes_per_cycle = hw.dram_bytes_per_cycle *. (1. -. (0.7 *. severity));
    vector_flops_per_cycle =
      hw.vector_flops_per_cycle *. (1. -. (0.5 *. severity));
    launch_overhead_s = hw.launch_overhead_s *. (1. +. (2. *. severity));
  }

let draw_shape rng =
  let m = Prng.log_int_in rng 64 2048 in
  let n = Prng.log_int_in rng 64 2048 in
  let k = Prng.log_int_in rng 64 1024 in
  (m, n, k)

let distinct_shapes rng count =
  let seen = Hashtbl.create count in
  let rec go acc remaining =
    if remaining = 0 then List.rev acc
    else begin
      let s = draw_shape rng in
      if Hashtbl.mem seen s then go acc remaining
      else begin
        Hashtbl.add seen s ();
        go (s :: acc) (remaining - 1)
      end
    end
  in
  go [] count

let run ?(seed = 0xADA) ?(severity = 0.35) ?(trace = 48) ?(pool = 12)
    ?(holdout = 8) compiler =
  let adapter = Adapter.create compiler in
  let rng = Prng.create seed in
  let pool_shapes = Array.of_list (distinct_shapes rng pool) in
  let holdout_rng = Prng.split rng in
  let holdout_shapes =
    (* Disjoint from the training pool: the evaluator must see shapes the
       calibration never observed. *)
    distinct_shapes holdout_rng (holdout + pool)
    |> List.filter (fun s -> not (Array.exists (( = ) s) pool_shapes))
    |> List.filteri (fun i _ -> i < holdout)
  in
  let hw = Compiler.hardware compiler in
  let drifted = drifted_hardware ~severity hw in
  for i = 0 to trace - 1 do
    if i = trace / 2 then Adapter.set_execution_hardware adapter drifted;
    ignore (Adapter.observe_shape adapter (Prng.choice rng pool_shapes))
  done;
  let before =
    Ranking.evaluate ~compiler ~exec_hw:drifted holdout_shapes
  in
  (* Probe sweeps spanning the shape range after the trace: every kernel
     gets operating points from small to large problems, so the refit
     interpolates on the held-out shapes instead of extrapolating from a
     single point. Then recalibrate so the evaluated correction reflects
     the full coverage. *)
  List.iter
    (Adapter.probe adapter)
    [ (128, 128, 128); (384, 512, 256); (1024, 768, 512); (2048, 2048, 1024) ];
  Adapter.calibrate adapter;
  let correction = Adapter.correction adapter in
  let after =
    Ranking.evaluate ~compiler ~exec_hw:drifted ?correction holdout_shapes
  in
  {
    adapter;
    before;
    after;
    stall_seconds = Adapter.drain_stall_seconds adapter;
    trace_length = trace;
    holdout = holdout_shapes;
  }
