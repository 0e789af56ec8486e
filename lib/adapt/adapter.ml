open Mikpoly_ir
module Compiler = Mikpoly_core.Compiler
module Polymerize = Mikpoly_core.Polymerize
module Kernel_set = Mikpoly_core.Kernel_set
module Cost_model = Mikpoly_core.Cost_model
module Hardware = Mikpoly_accel.Hardware
module Kernel_desc = Mikpoly_accel.Kernel_desc
module Load = Mikpoly_accel.Load
module Simulator = Mikpoly_accel.Simulator
module Tm = Mikpoly_telemetry

let m_observations = Tm.Metrics.counter "adapt.observations"

let m_recompiles = Tm.Metrics.counter "adapt.recompiles"

(* Per-kernel observation window (most recent kept). *)
let window = 64

(* Observations between scheduled refits. *)
let refit_every = 16

(* Shapes recompiled eagerly per refit. *)
let hot_limit = 8

type stats = {
  observations : int;
  recalibrations : int;
  recompiles : int;
  invalidated : int;
  calibrated_kernels : int;
}

type hot = { mutable touches : int }

type t = {
  compiler : Compiler.t;
  lock : Mutex.t;
  windows : (Calibration.key, (float * float) list) Hashtbl.t;
  hot : (int * int * int, hot) Hashtbl.t;
  mutable exec_hw : Hardware.t option;
  mutable calibration : Calibration.t;
  mutable observations : int;
  mutable recalibrations : int;
  mutable recompiles : int;
  mutable invalidated : int;
  mutable pending_stall : float;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let window_sample_locked t key sample =
  let w = Option.value (Hashtbl.find_opt t.windows key) ~default:[] in
  let w = sample :: w in
  Hashtbl.replace t.windows key
    (List.filteri (fun i _ -> i < window) w)

let key_of_desc (d : Kernel_desc.t) = (d.um, d.un, d.uk)

let model_fingerprint t = Hardware.fingerprint (Compiler.hardware t.compiler)

(* The fingerprint a calibration is valid for: the device observations
   actually come from — the injected execution hardware under drift, the
   compiler's own model otherwise. *)
let effective_fingerprint t =
  match t.exec_hw with
  | Some hw -> Hardware.fingerprint hw
  | None -> model_fingerprint t

let effective_hardware t =
  match t.exec_hw with Some hw -> hw | None -> Compiler.hardware t.compiler

(* Caller holds the lock. Refit all per-kernel corrections from the
   current observation windows, swap the compiler's scorer, invalidate
   every cached program ranked with a since-changed kernel correction and
   recompile the hottest invalidated shapes, charging the modeled search
   time to [pending_stall]. *)
let recalibrate_locked t =
  let samples =
    Hashtbl.fold (fun key w acc -> (key, w) :: acc) t.windows []
    |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
  in
  let previous = t.calibration in
  let cal = Calibration.fit ~fingerprint:(effective_fingerprint t) samples in
  t.calibration <- cal;
  t.recalibrations <- t.recalibrations + 1;
  let correction =
    Calibration.correction_for_set cal (Compiler.kernels t.compiler)
  in
  Compiler.set_correction t.compiler (Some correction);
  let changed =
    let refit =
      List.filter
        (fun (key, curve) ->
          match Calibration.find previous key with
          | Some old -> not (Calibration.curve_equal old curve)
          | None -> not (Calibration.curve_equal Calibration.Identity curve))
        (Calibration.curves cal)
      |> List.map fst
    in
    (* Kernels calibrated before but absent from the refit revert to the
       raw model — programs ranked under their old curve are stale too. *)
    let reverted =
      List.filter_map
        (fun (key, _) ->
          match Calibration.find cal key with
          | None -> Some key
          | Some _ -> None)
        (Calibration.curves previous)
    in
    refit @ reverted
  in
  let uses_changed _shape (c : Polymerize.compiled) =
    List.exists
      (fun (r : Region.t) -> List.mem (key_of_desc r.kernel) changed)
      c.program.regions
  in
  let dropped = Compiler.invalidate_if t.compiler uses_changed in
  t.invalidated <- t.invalidated + dropped;
  (* Recompile the hottest shapes immediately so the steady state pays no
     first-touch stall; everything else recompiles lazily on next use. *)
  let hottest =
    Hashtbl.fold (fun shape h acc -> (shape, h.touches) :: acc) t.hot []
    |> List.sort (fun (s1, c1) (s2, c2) ->
           match compare c2 c1 with 0 -> compare s1 s2 | c -> c)
    |> List.filteri (fun i _ -> i < hot_limit)
    |> List.map fst
  in
  let recompiled =
    List.fold_left
      (fun acc shape ->
        let op = Compiler.gemm t.compiler shape in
        if Compiler.cached t.compiler op then acc
        else begin
          let c = Compiler.compile t.compiler op in
          t.pending_stall <-
            t.pending_stall +. Polymerize.modeled_search_seconds c;
          acc + 1
        end)
      0 hottest
  in
  t.recompiles <- t.recompiles + recompiled;
  for _ = 1 to recompiled do
    Tm.Metrics.incr m_recompiles
  done;
  (dropped, recompiled)

let observe t (obs : Compiler.observation) =
  locked t (fun () ->
      t.observations <- t.observations + 1;
      Tm.Metrics.incr m_observations;
      List.iter
        (fun (r : Compiler.region_observation) ->
          window_sample_locked t (key_of_desc r.ro_kernel)
            (r.ro_predicted, r.ro_observed))
        obs.ob_regions;
      (match Hashtbl.find_opt t.hot obs.ob_shape with
      | Some h -> h.touches <- h.touches + 1
      | None -> Hashtbl.add t.hot obs.ob_shape { touches = 1 });
      if t.observations mod refit_every = 0 then begin
        Tm.Tracer.with_span "adapt.recalibrate" (fun () ->
            let dropped, recompiled = recalibrate_locked t in
            if Tm.Tracer.enabled () then begin
              Tm.Tracer.annotate "invalidated" (string_of_int dropped);
              Tm.Tracer.annotate "recompiled" (string_of_int recompiled)
            end);
        (* Each refit sees only the samples gathered since the last one,
           so samples from before a device change age out within one
           schedule period. *)
        Hashtbl.reset t.windows
      end)

let create compiler =
  let t =
    {
      compiler;
      lock = Mutex.create ();
      windows = Hashtbl.create 64;
      hot = Hashtbl.create 64;
      exec_hw = None;
      calibration =
        Calibration.identity
          ~fingerprint:(Hardware.fingerprint (Compiler.hardware compiler));
      observations = 0;
      recalibrations = 0;
      recompiles = 0;
      invalidated = 0;
      pending_stall = 0.;
    }
  in
  Compiler.set_observer compiler (observe t);
  t

let compiler t = t.compiler

let set_execution_hardware t hw = locked t (fun () -> t.exec_hw <- Some hw)

let observe_shape t shape =
  let op = Compiler.gemm t.compiler shape in
  let c = Compiler.compile t.compiler op in
  let hw = locked t (fun () -> t.exec_hw) in
  Compiler.simulate_observed ?hw t.compiler c

let calibrate t = locked t (fun () -> ignore (recalibrate_locked t))

let probe t (m, n, k) =
  (* Active profiling: run one single-kernel program per micro-kernel on
     the execution device and window the (predicted, observed) pair, so a
     subsequent recalibration covers the whole kernel set rather than only
     the kernels compiled programs happened to use. Probes are
     measurements, not serving traffic: they count toward no refit
     schedule. *)
  let hw = locked t (fun () -> effective_hardware t) in
  let set = Compiler.kernels t.compiler in
  let samples =
    Array.to_list set.entries
    |> List.map (fun (e : Kernel_set.entry) ->
           let captured = ref [] in
           ignore
             (Simulator.run ~observe:(fun os -> captured := os) hw
                (Load.gemm e.desc ~m ~n ~k));
           let observed =
             match !captured with
             | [ o ] -> o.Simulator.obs_cycles
             | _ -> 0.
           in
           let predicted =
             Cost_model.region_cost Cost_model.Full e ~rows:m ~cols:n ~k_len:k
           in
           (key_of_desc e.desc, (predicted, observed)))
    |> List.filter (fun (_, (p, o)) -> p > 0. && o > 0.)
  in
  locked t (fun () ->
      List.iter (fun (key, sample) -> window_sample_locked t key sample) samples)

let calibration t = locked t (fun () -> t.calibration)

let correction t = Compiler.correction t.compiler

let drain_stall_seconds t =
  locked t (fun () ->
      let s = t.pending_stall in
      t.pending_stall <- 0.;
      s)

let stats t =
  locked t (fun () ->
      {
        observations = t.observations;
        recalibrations = t.recalibrations;
        recompiles = t.recompiles;
        invalidated = t.invalidated;
        calibrated_kernels = List.length (Calibration.curves t.calibration);
      })

let save_profile t ~path =
  locked t (fun () ->
      Profile_store.save ~path (effective_hardware t) t.calibration)

let load_profile t ~path =
  let hw = locked t (fun () -> effective_hardware t) in
  match Profile_store.load ~path hw with
  | Error _ as e -> e
  | Ok cal ->
    locked t (fun () ->
        t.calibration <- cal;
        t.recalibrations <- t.recalibrations + 1;
        let correction =
          Calibration.correction_for_set cal (Compiler.kernels t.compiler)
        in
        Compiler.set_correction t.compiler (Some correction));
    Ok ()
