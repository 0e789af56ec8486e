open Mikpoly_accel
open Mikpoly_core
open Mikpoly_baselines

let memo f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some v -> v
    | None ->
      let v = f () in
      cell := Some v;
      v

let gpu = memo (fun () -> Compiler.create Hardware.a100)

let npu = memo (fun () -> Compiler.create Hardware.ascend910)

let gpu_vector =
  memo (fun () ->
      let config = Config.with_path Hardware.Vector (Config.default Hardware.a100) in
      Compiler.create ~config Hardware.a100)

let mikpoly_backend compiler =
  let gemm ~m ~n ~k =
    if m < 1 || n < 1 || k < 1 then Error "non-positive GEMM dimension"
    else begin
      let op = Mikpoly_ir.Operator.gemm ~dtype:(Compiler.config compiler).dtype ~m ~n ~k () in
      let compiled = Compiler.compile compiler op in
      let sim = Compiler.simulate compiler compiled in
      Ok
        {
          Backend.seconds = sim.seconds;
          sim;
          description = Mikpoly_ir.Program.to_string compiled.program;
        }
    end
  in
  { Backend.name = "MikPoly"; gemm }

let backend_gemm (b : Backend.t) ~m ~n ~k =
  match b.gemm ~m ~n ~k with
  | Ok run -> Ok run.Backend.seconds
  | Error _ as e -> e

let mikpoly_gemm compiler = backend_gemm (mikpoly_backend compiler)

let mikpoly_overhead compiler ~m ~n ~k =
  (* Compiled programs are cached per shape for the whole serving session,
     so the polymerization cost is only paid the first time a shape is
     met; the charge is the modeled production dispatch cost (see
     EXPERIMENTS.md for the rationale). *)
  let op = Mikpoly_ir.Operator.gemm ~dtype:(Compiler.config compiler).dtype ~m ~n ~k () in
  if Compiler.cached compiler op then 0.
  else Polymerize.modeled_search_seconds (Compiler.compile compiler op)

let cublas = memo (fun () -> Backend.of_catalog Catalog.cublas Hardware.a100)

let cudnn = memo (fun () -> Backend.of_catalog Catalog.cudnn Hardware.a100)

let cutlass = memo (fun () -> Cutlass.backend Hardware.a100)

let cutlass_vector = memo (fun () -> Cutlass.backend ~path:Hardware.Vector Hardware.a100)

let cann = memo (fun () -> Backend.of_catalog Catalog.cann Hardware.ascend910)

let speedup_or_skip ~baseline ~target =
  match (baseline, target) with
  | Ok b, Ok t when t > 0. -> Some (b /. t)
  | _ -> None
