let fp16 = 2.

type bound = {
  b_dag : Dag.t;
  b_env : Symdim.env;
  (* value id -> (concrete dims, instance count) *)
  b_vals : (int, int list * int) Hashtbl.t;
  (* GEMM/conv node id -> (lowered shape, repeat) *)
  b_shapes : (int, (int * int * int) * int) Hashtbl.t;
}

exception Bind_error of string

let dag b = b.b_dag

let env b = b.b_env

let value b id =
  match Hashtbl.find_opt b.b_vals id with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Infer: no value %d" id)

let dims b id = fst (value b id)

let repeat b id = snd (value b id)

let elements ds = List.fold_left ( * ) 1 ds

let bytes b id =
  let ds, rep = value b id in
  fp16 *. float_of_int rep *. float_of_int (elements ds)

let gemm_shape b id = Hashtbl.find_opt b.b_shapes id

let shape_launches b =
  let tally = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ (shape, rep) ->
      Hashtbl.replace tally shape
        (rep + Option.value (Hashtbl.find_opt tally shape) ~default:0))
    b.b_shapes;
  List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) tally [])

let distinct_shapes b = List.map fst (shape_launches b)

let bind (dag : Dag.t) ~env =
  let vals = Hashtbl.create (2 * List.length dag.Dag.nodes) in
  let shapes = Hashtbl.create 64 in
  let fail (n : Dag.node) fmt =
    Printf.ksprintf
      (fun s -> raise (Bind_error (Printf.sprintf "%s (node %S)" s n.label)))
      fmt
  in
  let value_of n id =
    match Hashtbl.find_opt vals id with
    | Some v -> v
    | None -> fail n "input value %d has no inferred shape" id
  in
  let eval_dims n ds =
    match Symdim.eval_all env ds with
    | Ok ds -> ds
    | Error e -> fail n "%s" e
  in
  let infer (n : Dag.node) =
    let ins = List.map (value_of n) n.inputs in
    match n.Dag.kind with
    | Dag.Input ds -> (eval_dims n ds, 1)
    | Dag.Weight ds -> (ds, 1)
    | Dag.View ds ->
      let ds = eval_dims n ds in
      let pdims, prep = List.hd ins in
      if elements ds > prep * elements pdims then
        fail n "view %s exceeds its parent's %d x %s elements"
          (Symdim.dims_to_string (List.map (fun d -> Symdim.Const d) ds))
          prep
          (Symdim.dims_to_string (List.map (fun d -> Symdim.Const d) pdims));
      (ds, 1)
    | Dag.Gemm { repeat } -> (
      match ins with
      | [ ([ m; ka ], _); ([ kb; nn ], _) ] ->
        if ka <> kb then fail n "contraction mismatch: k=%d vs %d" ka kb;
        Hashtbl.replace shapes n.id ((m, nn, ka), repeat);
        ([ m; nn ], repeat)
      | [ (a, _); (b, _) ] ->
        fail n "gemm operands must be rank-2, got %s x %s"
          (Symdim.dims_to_string (List.map (fun d -> Symdim.Const d) a))
          (Symdim.dims_to_string (List.map (fun d -> Symdim.Const d) b))
      | _ -> fail n "gemm takes exactly two operands")
    | Dag.Conv { out_channels; kernel; stride; pad } -> (
      match ins with
      | [ ([ b; c; h; w ], _) ] ->
        let spec =
          try
            Mikpoly_tensor.Conv_spec.make ~stride ~pad ~batch:b ~in_channels:c
              ~out_channels ~in_h:h ~in_w:w ~kernel ()
          with Invalid_argument e -> fail n "%s" e
        in
        let oh = Mikpoly_tensor.Conv_spec.out_h spec in
        let ow = Mikpoly_tensor.Conv_spec.out_w spec in
        Hashtbl.replace shapes n.id (Mikpoly_tensor.Conv_spec.gemm_shape spec, 1);
        ([ b; out_channels; oh; ow ], 1)
      | _ -> fail n "conv expects one NCHW input")
    | Dag.Pool { kernel; stride; pad; _ } -> (
      match ins with
      | [ ([ b; c; h; w ], rep) ] ->
        let oh = max 1 (Mikpoly_tensor.Conv_spec.out_dim h kernel stride pad) in
        let ow = max 1 (Mikpoly_tensor.Conv_spec.out_dim w kernel stride pad) in
        ([ b; c; oh; ow ], rep)
      | _ -> fail n "pool expects one NCHW input")
    | Dag.Global_pool { target; _ } -> (
      match ins with
      | [ ([ b; c; _; _ ], rep) ] -> ([ b; c; target; target ], rep)
      | _ -> fail n "global_pool expects one NCHW input")
    | Dag.Elemwise _ -> (
      match ins with
      | [] -> fail n "elemwise needs at least one input"
      | first :: rest ->
        List.iter
          (fun (ds, rep) ->
            if (ds, rep) <> first then
              fail n "elementwise inputs disagree: %s x%d vs %s x%d"
                (Symdim.dims_to_string (List.map (fun d -> Symdim.Const d) (fst first)))
                (snd first)
                (Symdim.dims_to_string (List.map (fun d -> Symdim.Const d) ds))
                rep)
          rest;
        first)
    | Dag.Scan _ -> (
      match ins with
      | (ds, rep) :: _ :: _ -> (ds, rep)
      | _ -> fail n "scan expects a state and a cache operand")
    | Dag.Concat { axis } -> (
      match ins with
      | [] -> fail n "concat needs at least one input"
      | (first, _) :: _ ->
        let rank = List.length first in
        if axis >= rank then fail n "concat axis %d out of rank %d" axis rank;
        let sum =
          List.fold_left
            (fun acc (ds, rep) ->
              if List.length ds <> rank then
                fail n "concat inputs disagree on rank";
              List.iteri
                (fun i d ->
                  if i <> axis && d <> List.nth first i then
                    fail n "concat inputs disagree off-axis (%d vs %d)" d
                      (List.nth first i))
                ds;
              acc + (rep * List.nth ds axis))
            0 ins
        in
        (List.mapi (fun i d -> if i = axis then sum else d) first, 1))
    | Dag.Comm _ -> List.hd ins
  in
  try
    List.iter (fun n -> Hashtbl.replace vals n.Dag.id (infer n)) dag.Dag.nodes;
    Ok { b_dag = dag; b_env = env; b_vals = vals; b_shapes = shapes }
  with Bind_error e -> Error e

let bind_exn dag ~env =
  match bind dag ~env with
  | Ok b -> b
  | Error e -> invalid_arg ("Infer.bind: " ^ e)
