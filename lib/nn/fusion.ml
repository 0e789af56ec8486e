let fp16 = 2.

type result = {
  graph : Op.graph;
  fused_ops : int;
  fused_bytes : float;
}

let output_bytes (op : Op.t) =
  match op with
  | Op.Gemm { m; n; repeat; _ } -> Some (float_of_int (m * n * repeat) *. fp16)
  | Op.Conv { spec; _ } ->
    let m, n, _ = Mikpoly_tensor.Conv_spec.gemm_shape spec in
    Some (float_of_int (m * n) *. fp16)
  | Op.Mem _ | Op.Comm _ -> None

(* Largest epilogue traffic, in producer-output bytes, that still counts
   as elementwise: read and write plus one residual input. *)
let max_ratio = 4.

let fuse (g : Op.graph) =
  (* One epilogue per producer: after fusing a Mem node into the preceding
     GEMM/conv, the producer's write-back slot is consumed. *)
  let rec fold acc n bytes producer_out = function
    | [] -> (List.rev acc, n, bytes)
    | (Op.Mem { bytes = b; _ } as mem) :: rest -> (
      match producer_out with
      | Some out when b <= max_ratio *. out -> fold acc (n + 1) (bytes +. b) None rest
      | _ -> fold (mem :: acc) n bytes None rest)
    | op :: rest -> fold (op :: acc) n bytes (output_bytes op) rest
  in
  let ops, fused_ops, fused_bytes = fold [] 0 0. None g.ops in
  (* keep the graph's name when nothing fused, so zero-rewrite graphs
     stay joinable with their unfused reports *)
  let name = if fused_ops > 0 then g.name ^ "+fused" else g.name in
  { graph = Op.graph ~name ops; fused_ops; fused_bytes }

let fuse_epilogues g = (fuse g).graph

let fused_ops ~(original : Op.graph) ~(fused : Op.graph) =
  List.length original.ops - List.length fused.ops
