open Mikpoly_tensor

(* Stage a (rows x cols) window of [src] at (r0, c0) into [dst] laid out as
   (rows_t x cols_t), zero-padding outside the window or the source. *)
let load_tile src ~r0 ~c0 ~src_rows ~src_cols ~rows_t ~cols_t ~win_rows ~win_cols dst =
  for i = 0 to rows_t - 1 do
    let sr = r0 + i in
    let in_row = i < win_rows && sr < src_rows in
    for j = 0 to cols_t - 1 do
      let sc = c0 + j in
      dst.((i * cols_t) + j) <-
        (if in_row && j < win_cols && sc < src_cols then Tensor.get2 src sr sc
         else 0.)
    done
  done

let run_region (reg : Region.t) ~a ~b ~c ~m ~n ~k =
  let kd = reg.kernel in
  let bufs = Kernel_exec.alloc kd in
  let kernel_impl = Kernel_exec.compile kd in
  let tiles_m = Mikpoly_accel.Load.ceil_div reg.rows kd.um in
  let tiles_n = Mikpoly_accel.Load.ceil_div reg.cols kd.un in
  let steps_k = Region.t_steps reg in
  for ti = 0 to tiles_m - 1 do
    for tj = 0 to tiles_n - 1 do
      (* One pipelined task: accumulate over the reduction loop. *)
      Array.fill bufs.c_tile 0 (kd.um * kd.un) 0.;
      let r0 = reg.row_off + (ti * kd.um) in
      let c0 = reg.col_off + (tj * kd.un) in
      let win_rows = min kd.um (reg.rows - (ti * kd.um)) in
      let win_cols = min kd.un (reg.cols - (tj * kd.un)) in
      for tk = 0 to steps_k - 1 do
        let k0 = tk * kd.uk in
        let win_k = min kd.uk (reg.k_len - k0) in
        load_tile a ~r0 ~c0:k0 ~src_rows:m ~src_cols:k ~rows_t:kd.um ~cols_t:kd.uk
          ~win_rows ~win_cols:win_k bufs.a_tile;
        load_tile b ~r0:k0 ~c0 ~src_rows:k ~src_cols:n ~rows_t:kd.uk ~cols_t:kd.un
          ~win_rows:win_k ~win_cols bufs.b_tile;
        (* The micro-kernel proper: a full fixed-size (uM,uN,uK) MMA,
           through the kernel's compiled implementation. *)
        kernel_impl bufs
      done;
      (* Write-back, clamped to the region window. *)
      for i = 0 to win_rows - 1 do
        for j = 0 to win_cols - 1 do
          Tensor.set2 c (r0 + i) (c0 + j) bufs.c_tile.((i * kd.un) + j)
        done
      done
    done
  done

let run_gemm (prog : Program.t) ~a ~b ~c =
  let m, n, k = Operator.gemm_shape prog.op in
  (match prog.op with
  | Operator.Gemm _ -> ()
  | Operator.Conv _ -> invalid_arg "Executor.run_gemm: program is a convolution"
  | Operator.Batched_gemm _ ->
    invalid_arg "Executor.run_gemm: use run_batched_gemm for batched operators");
  let check t rows cols what =
    match Shape.dims (Tensor.shape t) with
    | [ r; c ] when r = rows && c = cols -> ()
    | _ -> invalid_arg (Printf.sprintf "Executor.run_gemm: bad %s shape" what)
  in
  check a m k "A";
  check b k n "B";
  check c m n "C";
  List.iter (fun reg -> run_region reg ~a ~b ~c ~m ~n ~k) prog.regions

let gemm (prog : Program.t) a b =
  let m, n, _ = Operator.gemm_shape prog.op in
  let c = Tensor.create (Shape.of_list [ m; n ]) in
  run_gemm prog ~a ~b ~c;
  c

let batched_gemm (prog : Program.t) pairs =
  match prog.op with
  | Operator.Batched_gemm { count; m; n; k; dtype } ->
    if List.length pairs <> count then
      invalid_arg "Executor.batched_gemm: instance count mismatch";
    let per_instance =
      Program.make
        ~op:(Operator.gemm ~dtype ~m ~n ~k ())
        ~regions:prog.regions ~pattern_name:prog.pattern_name
    in
    List.map (fun (a, b) -> gemm per_instance a b) pairs
  | Operator.Gemm _ | Operator.Conv _ ->
    invalid_arg "Executor.batched_gemm: program is not batched"

let run_conv (prog : Program.t) ~input ~weight =
  match prog.op with
  | Operator.Gemm _ | Operator.Batched_gemm _ ->
    invalid_arg "Executor.run_conv: program is a GEMM"
  | Operator.Conv spec ->
    Im2col.conv_via_gemm spec ~input ~weight ~gemm:(fun a b ->
        (* Reinterpret the program as the lowered GEMM for execution. *)
        let m, n, k = Conv_spec.gemm_shape spec in
        let as_gemm =
          Program.make
            ~op:(Operator.gemm ~dtype:(Operator.dtype prog.op) ~m ~n ~k ())
            ~regions:prog.regions ~pattern_name:prog.pattern_name
        in
        gemm as_gemm a b)
