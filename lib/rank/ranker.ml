module Kernel_set = Mikpoly_core.Kernel_set
module Calibration = Mikpoly_adapt.Calibration
module Hardware = Mikpoly_accel.Hardware

type t = {
  cal : Calibration.t;
  model : Model.t;
  hw : Hardware.t;
}

let ceil_div a b = (a + b - 1) / b

(* The calibrated-Eq.-2 baseline, fit from the very same harvested
   examples the learner trains on — both the equal-information comparison
   the ranking experiment gates against and the first stage of the
   ranker itself (the stumps boost its residuals, so a 0-stump ranker
   degenerates to exactly calibrated Eq. 2). *)
let calibration_of_examples ~fingerprint examples =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (e : Dataset.example) ->
      let prev =
        match Hashtbl.find_opt groups e.ex_kernel with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace groups e.ex_kernel ((e.ex_raw, e.ex_observed) :: prev))
    examples;
  let samples =
    Hashtbl.fold (fun key l acc -> (key, List.rev l) :: acc) groups []
  in
  let samples = List.sort compare samples in
  Calibration.fit ~fingerprint samples

let fit_arrays ~cal examples =
  let features =
    Array.of_list (List.map (fun e -> e.Dataset.ex_features) examples)
  in
  (* Boost what calibration leaves on the table: the log residual of the
     per-kernel-corrected prediction, not of raw Eq. 2 ([ex_target]) —
     centered per shape. Ranking only compares candidates {e within} one
     shape, so a shape-level offset is invisible to the ranker's job while
     dominating the uncentered SSE; removing it makes every boosting round
     spend its split on cross-kernel structure. *)
  let residual (e : Dataset.example) =
    log
      (Float.max 1e-9 e.ex_observed
      /. Float.max 1e-9 (Calibration.apply cal e.ex_kernel e.ex_raw))
  in
  let sums = Hashtbl.create 16 in
  List.iter
    (fun (e : Dataset.example) ->
      let s, c =
        match Hashtbl.find_opt sums e.ex_shape with
        | Some sc -> sc
        | None -> (0., 0)
      in
      Hashtbl.replace sums e.ex_shape (s +. residual e, c + 1))
    examples;
  let targets =
    Array.of_list
      (List.map
         (fun (e : Dataset.example) ->
           let s, c = Hashtbl.find sums e.ex_shape in
           residual e -. (s /. float_of_int c))
         examples)
  in
  (features, targets)

let train ?rounds ?learning_rate ?seed ~hw examples =
  let cal =
    calibration_of_examples ~fingerprint:(Hardware.fingerprint hw) examples
  in
  let features, targets = fit_arrays ~cal examples in
  {
    cal;
    model = Model.fit ?rounds ?learning_rate ?seed ~features ~targets ();
    hw;
  }

(* Only splits on shape features survive a fingerprint change: the
   hardware features are constant within one platform's dataset, so any
   split on them encodes the source device, not transferable structure. *)
let transferable (m : Model.t) =
  {
    m with
    Model.stumps =
      List.filter
        (fun (s : Model.stump) -> s.s_feature < Features.shape_dim)
        m.Model.stumps;
  }

let warm_start ?rounds ?learning_rate ?seed ?(damping = 0.5) ~base ~hw
    examples =
  (* The target platform always gets its own per-kernel calibration (the
     source platform's curves key on a different kernel set); what
     transfers is the boosted shape structure on top of it — damped, so
     the source acts as a prior rather than an assertion — and boosting
     then continues on the target's examples with the same free-round
     budget a cold fit would get. Where the prior contradicts the
     target's own observations the continuation cancels it (the
     continuation's targets are the prior's residuals); where the
     target's tiny budget is silent, the prior's shape structure stands. *)
  let prior =
    let m = transferable base.model in
    {
      m with
      Model.stumps =
        List.map
          (fun (s : Model.stump) ->
            {
              s with
              Model.s_left = damping *. s.Model.s_left;
              s_right = damping *. s.Model.s_right;
            })
          m.Model.stumps;
    }
  in
  let cal =
    calibration_of_examples ~fingerprint:(Hardware.fingerprint hw) examples
  in
  let features, targets = fit_arrays ~cal examples in
  {
    cal;
    model =
      Model.fit ~base:prior ?rounds ?learning_rate ?seed ~features ~targets ();
    hw;
  }

(* The ranking score: the calibrated Eq.-2 region cost scaled by the
   boosted residual. Exponentiating keeps the correction positive, and a
   zero-stump model degenerates to exactly calibrated Eq. 2. *)
let score t ~m ~n ~k ~um ~un ~uk ~wave_capacity ~n_tasks ~pipe =
  let features =
    Features.of_candidate ~hw:t.hw ~m ~n ~k ~um ~un ~uk ~wave_capacity
      ~n_tasks ~pipe
  in
  let waves = ceil_div n_tasks wave_capacity in
  let raw = float_of_int waves *. pipe in
  Calibration.apply t.cal (um, un, uk) raw *. exp (Model.predict t.model features)

(* Shape-aware scorer for [Ranking.evaluate ?scorer]: [score],
   reconstructed from the single-region candidate the evaluator builds
   (raw = waves × pipe for that candidate). *)
let ranking_scorer t (m, n, k) (e : Kernel_set.entry) raw =
  let d = e.desc in
  let n_tasks = ceil_div m d.um * ceil_div n d.un in
  let waves = ceil_div n_tasks e.wave_capacity in
  let pipe = raw /. float_of_int waves in
  score t ~m ~n ~k ~um:d.um ~un:d.un ~uk:d.uk
    ~wave_capacity:e.wave_capacity ~n_tasks ~pipe
