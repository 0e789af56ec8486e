module Sch = Mikpoly_serve.Scheduler
module Conv_spec = Mikpoly_tensor.Conv_spec
module Compiler = Mikpoly_core.Compiler

(* A residual-style three-stage conv stack (the mid-network shapes that
   dominate CNN inference time), each stage launched per block. The
   im2col GEMMs are tall-and-skinny (M = batch·H·W), the opposite
   regime from the square-ish Llama projection GEMMs — so the two
   request families stress different micro-kernel shapes. *)
let conv_stack ~batch =
  [
    (Conv_spec.make ~batch ~in_channels:64 ~out_channels:64 ~in_h:28 ~in_w:28
       ~kernel:3 (), 12);
    (Conv_spec.make ~batch ~in_channels:128 ~out_channels:128 ~in_h:14
       ~in_w:14 ~kernel:3 (), 12);
    (Conv_spec.make ~batch ~in_channels:256 ~out_channels:256 ~in_h:7 ~in_w:7
       ~kernel:3 (), 12);
  ]

let conv_shapes ~batch =
  if batch < 1 then invalid_arg "Engines.conv_shapes: batch must be >= 1";
  List.map (fun (c, launches) -> (Conv_spec.gemm_shape c, launches))
    (conv_stack ~batch)

let mixed_engine ?(cnn_cut = 64) compiler =
  if cnn_cut < 2 then invalid_arg "Engines.mixed_engine: cnn_cut must be >= 2";
  let llm = Sch.mikpoly_engine compiler in
  let hw = Compiler.hardware compiler in
  (* Image batch grows with the token budget well past one image per
     [cnn_cut] tokens, so the conv tail is genuinely heavy — a large
     CNN job costs the same order as (or more than) an LLM step, and
     misplacing it is what the router pays for. *)
  let conv_batch ~tokens = max 1 (tokens / 2) in
  let conv_memo =
    Sch.memoize (module Mikpoly_util.Int_keys.Int) 32 (fun batch ->
        List.fold_left
          (fun acc (shape, launches) ->
            acc
            +. float_of_int launches
               *. Compiler.operator_seconds compiler (Compiler.gemm compiler shape))
          0.
          (conv_shapes ~batch))
  in
  let conv_seconds ~tokens = conv_memo (conv_batch ~tokens) in
  {
    Sch.engine_name = "mixed@" ^ hw.Mikpoly_accel.Hardware.name;
    step_seconds =
      (fun ~tokens ~kv_tokens ->
        if tokens < cnn_cut then llm.Sch.step_seconds ~tokens ~kv_tokens
        else conv_seconds ~tokens);
    step_shapes =
      (fun ~tokens ->
        if tokens < cnn_cut then llm.Sch.step_shapes ~tokens
        else conv_shapes ~batch:(conv_batch ~tokens));
    compile_seconds = llm.Sch.compile_seconds;
    precompile_batch = llm.Sch.precompile_batch;
  }
