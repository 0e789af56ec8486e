(* Tests for the online adaptation subsystem: calibration fitting,
   profile persistence (round-trip and wrong-hardware rejection), the
   adapter's fixed refit schedule, its reaction end to end on the drift
   scenario, and determinism of the whole loop across job counts. *)

open Mikpoly_adapt
module Hardware = Mikpoly_accel.Hardware
module Compiler = Mikpoly_core.Compiler
module Config = Mikpoly_core.Config

let gpu = Hardware.a100

let gpu_compiler = lazy (Compiler.create gpu)

let temp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

(* --- Calibration --- *)

let test_calibration_scale () =
  let cal =
    Calibration.fit ~fingerprint:"fp" [ ((16, 16, 16), [ (2., 5.) ]) ]
  in
  (match Calibration.find cal (16, 16, 16) with
  | Some (Calibration.Scale a) ->
    Alcotest.(check (float 1e-9)) "ratio" 2.5 a
  | _ -> Alcotest.fail "expected Scale");
  Alcotest.(check (float 1e-9)) "apply" 10. (Calibration.apply cal (16, 16, 16) 4.);
  Alcotest.(check (float 1e-9)) "unknown kernel is identity" 4.
    (Calibration.apply cal (32, 32, 16) 4.)

let test_calibration_affine () =
  let samples = [ (1., 3.); (2., 5.); (3., 7.) ] in
  let cal = Calibration.fit ~fingerprint:"fp" [ ((32, 32, 16), samples) ] in
  (match Calibration.find cal (32, 32, 16) with
  | Some (Calibration.Affine (a, b)) ->
    Alcotest.(check (float 1e-6)) "slope" 2. a;
    Alcotest.(check (float 1e-6)) "intercept" 1. b
  | _ -> Alcotest.fail "expected Affine");
  Alcotest.(check (float 1e-6)) "extrapolates" 9.
    (Calibration.apply cal (32, 32, 16) 4.)

let test_calibration_knots () =
  (* Four distinct operating points on a convex curve: the piecewise fit
     must reproduce the samples themselves. *)
  let samples = [ (1., 2.); (2., 5.); (4., 12.); (8., 30.) ] in
  let cal = Calibration.fit ~fingerprint:"fp" [ ((64, 64, 16), samples) ] in
  (match Calibration.find cal (64, 64, 16) with
  | Some (Calibration.Knots _) -> ()
  | _ -> Alcotest.fail "expected Knots");
  List.iter
    (fun (x, y) ->
      Alcotest.(check (float 0.3)) "interpolates" y
        (Calibration.apply cal (64, 64, 16) x))
    samples

let test_calibration_clamps () =
  let cal =
    Calibration.of_curves ~fingerprint:"fp"
      [ ((16, 16, 16), Calibration.Affine (1., -10.)) ]
  in
  Alcotest.(check (float 1e-9)) "clamped to zero" 0.
    (Calibration.apply cal (16, 16, 16) 5.)

let test_calibration_duplicate_abscissae () =
  (* Same predicted value observed twice: condensed to the mean, fit as a
     single-point scale — never a crash from Piecewise's duplicate check. *)
  let cal =
    Calibration.fit ~fingerprint:"fp"
      [ ((16, 16, 16), [ (2., 3.); (2., 5.) ]) ]
  in
  match Calibration.find cal (16, 16, 16) with
  | Some (Calibration.Scale a) -> Alcotest.(check (float 1e-9)) "mean ratio" 2. a
  | _ -> Alcotest.fail "expected Scale"

let test_calibration_negative_slope_falls_back () =
  (* A decreasing relation would make the corrected cost non-monotone in
     the raw cost; the fit must fall back to a scale. *)
  let cal =
    Calibration.fit ~fingerprint:"fp"
      [ ((16, 16, 16), [ (1., 10.); (2., 6.); (3., 2.) ]) ]
  in
  match Calibration.find cal (16, 16, 16) with
  | Some (Calibration.Scale _) -> ()
  | _ -> Alcotest.fail "expected Scale fallback"

(* --- Profile store --- *)

let sample_calibration fp =
  Calibration.fit ~fingerprint:fp
    [
      ((16, 16, 16), [ (2., 5.) ]);
      ((32, 32, 16), [ (1., 3.); (2., 5.); (3., 7.) ]);
      ((64, 64, 16), [ (1., 2.); (2., 5.); (4., 12.); (8., 30.) ]);
    ]

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_profile_roundtrip () =
  let path = temp_path "mikpoly_test_profile.cal" in
  let cal = sample_calibration (Hardware.fingerprint gpu) in
  Profile_store.save ~path gpu cal;
  (match Profile_store.load ~path gpu with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
    Alcotest.(check bool) "identical corrections" true
      (Calibration.equal cal loaded);
    (* Canonical serialization: saving the loaded profile reproduces the
       artifact byte for byte. *)
    let first = read_file path in
    Profile_store.save ~path gpu loaded;
    Alcotest.(check string) "byte-identical re-save" first (read_file path));
  Sys.remove path

let test_profile_rejects_wrong_hardware () =
  let path = temp_path "mikpoly_test_profile_hw.cal" in
  let cal = sample_calibration (Hardware.fingerprint gpu) in
  Profile_store.save ~path gpu cal;
  (* Same device name, different microarchitectural constants: the
     fingerprint line must reject it. *)
  let drifted = Scenario.drifted_hardware ~severity:0.3 gpu in
  (match Profile_store.load ~path drifted with
  | Ok _ -> Alcotest.fail "wrong-hardware profile must be rejected"
  | Error e ->
    Alcotest.(check bool) "mentions hardware" true
      (String.length e > 0));
  (* A genuinely different platform is rejected on the name line. *)
  (match Profile_store.load ~path Hardware.v100 with
  | Ok _ -> Alcotest.fail "wrong-platform profile must be rejected"
  | Error _ -> ());
  Sys.remove path

let test_profile_rejects_version_bump () =
  let path = temp_path "mikpoly_test_profile_v.cal" in
  let cal = sample_calibration (Hardware.fingerprint gpu) in
  Profile_store.save ~path gpu cal;
  let contents = read_file path in
  Alcotest.(check bool) "current version is v2" true
    (String.length Profile_store.magic >= 2
    && String.sub Profile_store.magic
         (String.length Profile_store.magic - 2)
         2
       = "v2");
  let oc = open_out path in
  output_string oc
    ("mikpoly-calibration v3"
    ^ String.sub contents (String.length Profile_store.magic)
        (String.length contents - String.length Profile_store.magic));
  close_out oc;
  (match Profile_store.load ~path gpu with
  | Ok _ -> Alcotest.fail "version-bumped profile must be rejected"
  | Error _ -> ());
  Sys.remove path

let test_profile_rejects_garbage () =
  let path = temp_path "mikpoly_test_profile_g.cal" in
  let oc = open_out path in
  output_string oc "not a calibration file\n";
  close_out oc;
  (match Profile_store.load ~path gpu with
  | Ok _ -> Alcotest.fail "garbage must be rejected"
  | Error _ -> ());
  Sys.remove path

(* --- Adapter and scenario --- *)

let test_adapter_stable_no_drift () =
  (* Serving on the hardware the model was tuned for: the only refit is
     the scheduled one at the 16th observation, and nothing else adapts
     in between. *)
  let compiler = Compiler.create gpu in
  let adapter = Adapter.create compiler in
  let shapes = [ (512, 512, 256); (384, 768, 256); (1024, 256, 512) ] in
  for i = 1 to 24 do
    ignore (Adapter.observe_shape adapter (List.nth shapes (i mod 3)));
    Alcotest.(check int)
      (Printf.sprintf "refits after observation %d" i)
      (if i < 16 then 0 else 1)
      (Adapter.stats adapter).recalibrations
  done;
  Alcotest.(check int) "observations" 24 (Adapter.stats adapter).observations

(* The scheduled refit fits only the samples gathered since the previous
   one: after 16 observations on the tuned device and 16 on a drifted
   one, the installed calibration is exactly the fit of the second 16. *)
let test_adapter_refits_from_last_period () =
  let compiler = Compiler.create gpu in
  let adapter = Adapter.create compiler in
  let shapes =
    [| (512, 512, 256); (384, 768, 256); (1024, 256, 512); (200, 900, 320) |]
  in
  let feed () =
    List.init 16 (fun i ->
        snd (Adapter.observe_shape adapter shapes.(i mod Array.length shapes)))
  in
  ignore (feed ());
  let drifted = Scenario.drifted_hardware gpu in
  Adapter.set_execution_hardware adapter drifted;
  let second = feed () in
  let samples = Hashtbl.create 16 in
  List.iter
    (fun (obs : Compiler.observation) ->
      List.iter
        (fun (r : Compiler.region_observation) ->
          let key = (r.ro_kernel.um, r.ro_kernel.un, r.ro_kernel.uk) in
          let prev = Option.value (Hashtbl.find_opt samples key) ~default:[] in
          Hashtbl.replace samples key ((r.ro_predicted, r.ro_observed) :: prev))
        obs.ob_regions)
    second;
  let expected =
    Calibration.fit
      ~fingerprint:(Hardware.fingerprint drifted)
      (Hashtbl.fold (fun key w acc -> (key, w) :: acc) samples []
      |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2))
  in
  let actual = Adapter.calibration adapter in
  Alcotest.(check int) "two refits" 2 (Adapter.stats adapter).recalibrations;
  Alcotest.(check string) "fingerprint of the drifted device"
    (Hardware.fingerprint drifted)
    (Calibration.fingerprint actual);
  Alcotest.(check string) "fit of the second 16 observations alone"
    (Calibration.to_string expected)
    (Calibration.to_string actual)

(* Serving A/B on a healthy device: the same 16-request trace with and
   without an attached adapter, on both devices. The scheduled refits
   have no drift to correct, so attaching the adapter must not cost SLO
   attainment. *)
let test_adapter_serving_no_worse () =
  let open Mikpoly_serve in
  let config =
    {
      Scheduler.replicas = 2;
      batcher = Batcher.Greedy { max_batch = 32 };
      bucketing = Bucketing.Aligned 8;
      cache_capacity = 64;
    }
  in
  let requests =
    Request.poisson ~seed:0x5E2 ~rate:30. ~count:16 ~max_prompt:64
      ~max_output:8 ()
  in
  let slo_attainment (hw : Hardware.t) ~adapted =
    let compiler = Compiler.create hw in
    let adapter = if adapted then Some (Adapter.create compiler) else None in
    let adapt =
      Option.map (fun a () -> Adapter.drain_stall_seconds a) adapter
    in
    let m =
      Metrics.of_outcome
        (Scheduler.run ?adapt config (Scheduler.mikpoly_engine compiler)
           requests)
    in
    Option.iter
      (fun a ->
        Alcotest.(check bool) (hw.name ^ ": the adapter refit") true
          ((Adapter.stats a).recalibrations >= 1))
      adapter;
    m.Metrics.slo_attainment
  in
  List.iter
    (fun hw ->
      let without = slo_attainment hw ~adapted:false in
      let with_adapt = slo_attainment hw ~adapted:true in
      Alcotest.(check bool)
        (Printf.sprintf "%s: SLO attainment %.4f with the adapter vs %.4f without"
           hw.name with_adapt without)
        true
        (with_adapt >= without -. 1e-9))
    [ gpu; Hardware.ascend910 ]

let scenario_result = lazy (Scenario.run ~seed:0xADA (Lazy.force gpu_compiler))

(* The scenario checks hold at the default 48-step trace and at a shorter
   32-step one. *)
let scenario_results =
  lazy
    [
      Lazy.force scenario_result;
      Scenario.run ~seed:0xADA ~trace:32 (Compiler.create gpu);
    ]

let test_scenario_detects_drift () =
  List.iter
    (fun (r : Scenario.result) ->
      let stats = Adapter.stats r.adapter in
      Alcotest.(check bool) "programs invalidated" true (stats.invalidated >= 1);
      Alcotest.(check bool) "hot shapes recompiled" true (stats.recompiles >= 1);
      Alcotest.(check bool) "stall charged" true (r.stall_seconds > 0.))
    (Lazy.force scenario_results)

let test_scenario_improves_ranking () =
  List.iter
    (fun (r : Scenario.result) ->
      Alcotest.(check bool)
        (Printf.sprintf "tau improves (%.4f -> %.4f)" r.before.tau r.after.tau)
        true
        (r.after.tau > r.before.tau);
      Alcotest.(check bool)
        (Printf.sprintf "regret no worse (%.4f -> %.4f)" r.before.top1_regret
           r.after.top1_regret)
        true
        (r.after.top1_regret <= r.before.top1_regret +. 1e-9))
    (Lazy.force scenario_results)

let test_scenario_deterministic_across_jobs () =
  (* The full adaptation loop — same observations, different search
     parallelism — must produce a bit-identical calibration profile and
     identical recompiled programs. *)
  let run jobs =
    let saved = Mikpoly_util.Domain_pool.default_jobs () in
    Mikpoly_util.Domain_pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Mikpoly_util.Domain_pool.set_default_jobs saved)
      (fun () ->
        let compiler = Compiler.create gpu in
        let r = Scenario.run ~seed:0xADA compiler in
        let programs =
          List.map
            (fun (m, n, k) ->
              Mikpoly_ir.Program.to_string
                (Compiler.compile compiler
                   (Mikpoly_ir.Operator.gemm ~m ~n ~k ()))
                  .program)
            r.holdout
        in
        (Calibration.to_string (Adapter.calibration r.adapter), programs, r))
  in
  let cal1, progs1, r1 = run 1 in
  let cal4, progs4, r4 = run 4 in
  Alcotest.(check string) "bit-identical calibration" cal1 cal4;
  Alcotest.(check (list string)) "bit-identical recompiled programs" progs1
    progs4;
  Alcotest.(check int) "same recalibrations"
    (Adapter.stats r1.adapter).recalibrations
    (Adapter.stats r4.adapter).recalibrations;
  Alcotest.(check (float 1e-12)) "same tau after" r1.after.tau r4.after.tau

let test_adapter_profile_roundtrip_through_store () =
  let r = Lazy.force scenario_result in
  let path = temp_path "mikpoly_test_adapter_profile.cal" in
  Adapter.save_profile r.adapter ~path;
  (* A fresh adapter on the same (drifted) execution hardware warm-starts
     from the artifact with identical corrections. Each adapter gets its
     own compiler: creating one installs it as the compiler's observer. *)
  let fresh = Adapter.create (Compiler.create gpu) in
  Adapter.set_execution_hardware fresh
    (Scenario.drifted_hardware ~severity:0.35 gpu);
  (match Adapter.load_profile fresh ~path with
  | Error e -> Alcotest.fail e
  | Ok () ->
    (* Canonical-form comparison: fitted floats need not survive the
       artifact's %.9g encoding bit for bit, but the serialized profile —
       what any later save would write — must. *)
    Alcotest.(check string) "identical corrections"
      (Calibration.to_string (Adapter.calibration r.adapter))
      (Calibration.to_string (Adapter.calibration fresh)));
  (* And a mismatched execution device refuses the artifact. *)
  let mismatched = Adapter.create (Compiler.create gpu) in
  (match Adapter.load_profile mismatched ~path with
  | Ok () -> Alcotest.fail "wrong-hardware warm start must fail"
  | Error _ -> ());
  Sys.remove path

let () =
  Alcotest.run "adapt"
    [
      ( "calibration",
        [
          Alcotest.test_case "single point becomes scale" `Quick
            test_calibration_scale;
          Alcotest.test_case "few points become affine" `Quick
            test_calibration_affine;
          Alcotest.test_case "many points become knots" `Quick
            test_calibration_knots;
          Alcotest.test_case "corrections clamp at zero" `Quick
            test_calibration_clamps;
          Alcotest.test_case "duplicate abscissae condensed" `Quick
            test_calibration_duplicate_abscissae;
          Alcotest.test_case "negative slope falls back" `Quick
            test_calibration_negative_slope_falls_back;
        ] );
      ( "profile store",
        [
          Alcotest.test_case "roundtrip" `Quick test_profile_roundtrip;
          Alcotest.test_case "rejects wrong hardware" `Quick
            test_profile_rejects_wrong_hardware;
          Alcotest.test_case "rejects version bump" `Quick
            test_profile_rejects_version_bump;
          Alcotest.test_case "rejects garbage" `Quick
            test_profile_rejects_garbage;
        ] );
      ( "adapter",
        [
          Alcotest.test_case "stable serving never adapts" `Quick
            test_adapter_stable_no_drift;
          Alcotest.test_case "refits from the last 16 observations" `Quick
            test_adapter_refits_from_last_period;
          Alcotest.test_case "serving SLO no worse" `Quick
            test_adapter_serving_no_worse;
          Alcotest.test_case "scenario detects drift" `Quick
            test_scenario_detects_drift;
          Alcotest.test_case "calibration improves ranking" `Quick
            test_scenario_improves_ranking;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_scenario_deterministic_across_jobs;
          Alcotest.test_case "profile roundtrip via adapter" `Quick
            test_adapter_profile_roundtrip_through_store;
        ] );
    ]
