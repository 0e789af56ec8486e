(* Tests for the learned candidate-ranking experiment: feature-schema
   identity, model fitting determinism, dataset harvesting through the
   observer hook, and the GPU->NPU warm start. *)

open Mikpoly_rank
module Hardware = Mikpoly_accel.Hardware
module Compiler = Mikpoly_core.Compiler
module Operator = Mikpoly_ir.Operator

let gpu = Hardware.a100

let gpu_compiler = lazy (Compiler.create gpu)

let train_shapes = [ (96, 256, 128); (512, 192, 320); (768, 640, 96) ]

let trained =
  lazy
    (let compiler = Lazy.force gpu_compiler in
     let examples = Dataset.harvest ~compiler train_shapes in
     (examples, Ranker.train ~rounds:24 ~learning_rate:0.1 ~hw:gpu examples))

(* --- Features --- *)

let test_feature_schema () =
  Alcotest.(check int) "dim matches names" Features.dim
    (Array.length Features.names);
  Alcotest.(check bool) "shape prefix is a proper prefix" true
    (Features.shape_dim > 0 && Features.shape_dim < Features.dim);
  (* The schema id commits to the exact feature list: it embeds the
     version and a digest of the comma-joined names. *)
  let expected =
    Printf.sprintf "rank-fs-v%d-%s" Features.schema_version
      (Mikpoly_util.Checksum.fnv1a64_hex
         (String.concat "," (Array.to_list Features.names)))
  in
  Alcotest.(check string) "schema id" expected Features.schema_id;
  let v =
    Features.of_candidate ~hw:gpu ~m:777 ~n:1234 ~k:555 ~um:64 ~un:64 ~uk:64
      ~wave_capacity:108 ~n_tasks:260 ~pipe:12.5
  in
  Alcotest.(check int) "vector length" Features.dim (Array.length v);
  Array.iteri
    (fun i x ->
      if Float.is_nan x then
        Alcotest.failf "feature %s is NaN" Features.names.(i))
    v

(* --- Model --- *)

let test_model_fit_deterministic () =
  let n = 64 in
  let features =
    Array.init n (fun i ->
        [| float_of_int (i mod 7); float_of_int (i mod 11); float_of_int i |])
  in
  let targets =
    Array.init n (fun i -> sin (float_of_int i) +. (0.1 *. float_of_int (i mod 5)))
  in
  let fit () = Model.fit ~rounds:32 ~learning_rate:0.2 ~features ~targets () in
  Alcotest.(check bool) "same data, same model" true (fit () = fit ())

let test_model_reduces_training_error () =
  let n = 128 in
  let features =
    Array.init n (fun i -> [| float_of_int (i mod 16); float_of_int (i / 16) |])
  in
  let targets =
    Array.init n (fun i -> if i mod 16 < 8 then 1.0 else -1.0)
  in
  let sse m =
    let s = ref 0. in
    Array.iteri
      (fun i x ->
        let d = targets.(i) -. Model.predict m x in
        s := !s +. (d *. d))
      features;
    !s
  in
  let m0 = Model.fit ~rounds:0 ~features ~targets () in
  let m = Model.fit ~rounds:48 ~features ~targets () in
  Alcotest.(check bool) "boosting reduces SSE" true (sse m < 0.1 *. sse m0)

(* --- Dataset --- *)

let test_harvest_shapes_and_cleanup () =
  let compiler = Lazy.force gpu_compiler in
  let examples, _ = Lazy.force trained in
  let set = Compiler.kernels compiler in
  Alcotest.(check int) "one example per shape x kernel"
    (List.length train_shapes * Array.length set.entries)
    (List.length examples);
  List.iter
    (fun (e : Dataset.example) ->
      Alcotest.(check int) "feature dim" Features.dim
        (Array.length e.ex_features);
      Alcotest.(check bool) "positive observed" true (e.ex_observed > 0.);
      Alcotest.(check bool) "positive raw" true (e.ex_raw > 0.))
    examples;
  (* The observer hook must be cleared afterwards: a fresh simulate on
     the same compiler must not grow anyone's accumulator, which we can
     only check indirectly — installing our own observer still works and
     sees exactly our own traffic. *)
  let count = ref 0 in
  Compiler.set_observer compiler (Some (fun _ -> incr count));
  let c = Compiler.compile compiler (Operator.gemm ~m:96 ~n:256 ~k:128 ()) in
  ignore (Compiler.simulate_observed compiler c);
  Compiler.set_observer compiler None;
  Alcotest.(check int) "observer sees one compile's observation" 1 !count

let test_sample_shapes_deterministic () =
  let a = Dataset.sample_shapes ~seed:42 ~count:12 in
  let b = Dataset.sample_shapes ~seed:42 ~count:12 in
  Alcotest.(check bool) "same seed, same shapes" true (a = b);
  let sorted = List.sort_uniq compare a in
  Alcotest.(check int) "distinct shapes" (List.length a) (List.length sorted);
  List.iter
    (fun (m, n, k) ->
      let ok = m >= 64 && m <= 2048 && n >= 64 && n <= 2048 && k >= 64 && k <= 1024 in
      Alcotest.(check bool) "in range" true ok)
    a

let test_warm_start_produces_usable_ranker () =
  let _, ranker = Lazy.force trained in
  let npu = Hardware.ascend910 in
  let npu_compiler = Compiler.create npu in
  let examples = Dataset.harvest ~compiler:npu_compiler [ (256, 384, 192) ] in
  let warm =
    Ranker.warm_start ~rounds:8 ~learning_rate:0.1 ~base:ranker ~hw:npu
      examples
  in
  let s =
    Ranker.score warm ~m:777 ~n:1234 ~k:555 ~um:32 ~un:32 ~uk:32
      ~wave_capacity:32 ~n_tasks:950 ~pipe:8.
  in
  Alcotest.(check bool) "positive finite score" true
    (s > 0. && Float.is_finite s)

let () =
  Alcotest.run "rank"
    [
      ( "features",
        [ Alcotest.test_case "schema identity" `Quick test_feature_schema ] );
      ( "model",
        [
          Alcotest.test_case "fit deterministic" `Quick
            test_model_fit_deterministic;
          Alcotest.test_case "boosting reduces SSE" `Quick
            test_model_reduces_training_error;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "harvest covers shapes x kernels" `Quick
            test_harvest_shapes_and_cleanup;
          Alcotest.test_case "sampled shapes deterministic" `Quick
            test_sample_shapes_deterministic;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "warm start yields a usable ranker" `Quick
            test_warm_start_produces_usable_ranker;
        ] );
    ]
