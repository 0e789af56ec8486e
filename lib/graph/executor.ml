module Tracer = Mikpoly_telemetry.Tracer
module Metrics = Mikpoly_telemetry.Metrics
module Compiler = Mikpoly_core.Compiler
module Hardware = Mikpoly_accel.Hardware

type backend = {
  bk_name : string;
  bk_compile : int * int * int -> float;
  bk_gemm : int * int * int -> float;
  bk_precompile : jobs:int -> (int * int * int) list -> int;
  bk_launch : float;
  bk_dram_bps : float;
}

let mikpoly_backend c =
  let hw = Compiler.hardware c in
  let gemm_memo = Hashtbl.create 64 in
  let compile_memo = Hashtbl.create 64 in
  let memo tbl f shape =
    match Hashtbl.find_opt tbl shape with
    | Some s -> s
    | None ->
      let s = f shape in
      Hashtbl.replace tbl shape s;
      s
  in
  {
    bk_name = "mikpoly";
    bk_compile = memo compile_memo (Compiler.compile_seconds c);
    bk_gemm =
      memo gemm_memo (fun shape ->
          Compiler.operator_seconds c (Compiler.gemm c shape));
    bk_precompile = (fun ~jobs shapes -> Compiler.warm ~jobs c shapes);
    bk_launch = hw.Hardware.launch_overhead_s;
    bk_dram_bps = hw.Hardware.dram_bytes_per_cycle *. hw.Hardware.clock_hz;
  }

let synthetic_backend () =
  {
    bk_name = "synthetic";
    bk_compile = (fun _ -> 5e-4);
    bk_gemm =
      (fun (m, n, k) -> float_of_int m *. float_of_int n *. float_of_int k
                        /. 1e12);
    bk_precompile = (fun ~jobs:_ _ -> 0);
    bk_launch = 1e-6;
    bk_dram_bps = 100e9;
  }

type node_cost = {
  nc_id : int;
  nc_label : string;
  nc_kind : string;
  nc_shape : ((int * int * int) * int) option;
  nc_exec_seconds : float;
  nc_compile_seconds : float;
  nc_fused_bytes : float;
  nc_chain_bytes : float;
}

let node_costs bk bound =
  (* Warm the backend's compile path for every shape the bound graph
     launches in one batched search (whole shapes over the domain pool,
     at the process default's job count) before the per-node sweep
     prices them — the sweep's [bk_compile] calls then hit the compiler
     memo. Charged costs are identical either way; this only moves the
     wall-clock work into one batch. *)
  ignore (bk.bk_precompile ~jobs:0 (Infer.distinct_shapes bound));
  let g = Infer.dag bound in
  let input_bytes (n : Dag.node) =
    List.fold_left (fun acc v -> acc +. Infer.bytes bound v) 0. n.Dag.inputs
  in
  let cost (n : Dag.node) =
    let fused_bytes =
      List.fold_left
        (fun acc fe -> acc +. (fe.Dag.fe_ratio *. Infer.bytes bound n.Dag.id))
        0. n.Dag.fused
    in
    let dram bytes = bytes /. bk.bk_dram_bps in
    let exec, shape, compile, chain_bytes =
      match n.Dag.kind with
      | Dag.Gemm _ | Dag.Conv _ ->
        let ((shape, repeat) as sh) =
          match Infer.gemm_shape bound n.Dag.id with
          | Some s -> s
          | None -> assert false
        in
        let raw = (bk.bk_gemm shape *. float_of_int repeat) +. bk.bk_launch in
        let saved_s, saved_b =
          match n.Dag.chain with
          | None -> (0., 0.)
          | Some v ->
            (* producer's write + our read skip DRAM, capped so a chain
               can never erase more than half the node's own time *)
            let s =
              Float.min (dram (2. *. Infer.bytes bound v)) (0.5 *. raw)
            in
            (s, s *. bk.bk_dram_bps)
        in
        (raw -. saved_s, Some sh, bk.bk_compile shape, saved_b)
      | Dag.Elemwise { traffic; _ } ->
        ((traffic *. dram (input_bytes n)) +. bk.bk_launch, None, 0., 0.)
      | Dag.Scan { traffic } ->
        let cache_bytes =
          match n.Dag.inputs with
          | _ :: rest ->
            List.fold_left (fun acc v -> acc +. Infer.bytes bound v) 0. rest
          | [] -> 0.
        in
        ((traffic *. dram cache_bytes) +. bk.bk_launch, None, 0., 0.)
      | Dag.Pool { traffic; _ } | Dag.Global_pool { traffic; _ } ->
        ((traffic *. dram (input_bytes n)) +. bk.bk_launch, None, 0., 0.)
      | Dag.Concat _ ->
        ( dram (input_bytes n +. Infer.bytes bound n.Dag.id) +. bk.bk_launch,
          None, 0., 0. )
      | Dag.Comm { gbps; traffic } ->
        ( (traffic *. input_bytes n /. (gbps *. 1e9)) +. bk.bk_launch,
          None, 0., 0. )
      | Dag.Input _ | Dag.Weight _ | Dag.View _ -> assert false
    in
    {
      nc_id = n.Dag.id;
      nc_label = n.Dag.label;
      nc_kind = Dag.kind_name n.Dag.kind;
      nc_shape = shape;
      nc_exec_seconds = exec;
      nc_compile_seconds = compile;
      nc_fused_bytes = fused_bytes;
      nc_chain_bytes = chain_bytes;
    }
  in
  List.map cost (Dag.device_nodes g)

type run = {
  r_graph : string;
  r_overlap : bool;
  r_e2e_seconds : float;
  r_exec_seconds : float;
  r_compile_seconds : float;
  r_hidden_seconds : float;
  r_stall_seconds : float;
  r_compiles : int;
  r_cache_hits : int;
  r_fused_bytes : float;
  r_nodes : int;
}

let graph_track = "graph"

let executions_c = Metrics.counter "graph.executions"

let compiles_c = Metrics.counter "graph.compiles"

let cache_hits_c = Metrics.counter "graph.cache_hits"

let execute ?(overlap = true) bk bound =
  let costs = node_costs bk bound in
  let tracing = Tracer.enabled () in
  if tracing then Tracer.set_units ~track:graph_track ~per_second:1.0;
  let seen = Hashtbl.create 32 in
  let host = ref 0. in
  let dev = ref 0. in
  let exec_t = ref 0. in
  let compile_t = ref 0. in
  let stall_t = ref 0. in
  let fused_b = ref 0. in
  let compiles = ref 0 in
  let hits = ref 0 in
  List.iter
    (fun nc ->
      let c =
        match nc.nc_shape with
        | None -> 0.
        | Some (shape, _) ->
          if Hashtbl.mem seen shape then begin
            incr hits;
            0.
          end
          else begin
            Hashtbl.replace seen shape ();
            incr compiles;
            nc.nc_compile_seconds
          end
      in
      compile_t := !compile_t +. c;
      exec_t := !exec_t +. nc.nc_exec_seconds;
      fused_b := !fused_b +. nc.nc_fused_bytes;
      let e_start =
        if overlap then begin
          host := !host +. c;
          let start = Float.max !dev !host in
          stall_t := !stall_t +. Float.max 0. (!host -. !dev);
          start
        end
        else begin
          let start = !dev +. c in
          stall_t := !stall_t +. c;
          start
        end
      in
      if tracing && c > 0. then
        Tracer.emit ~track:graph_track ~lane:0
          ~name:("compile:" ^ nc.nc_label)
          ~start:(if overlap then !host -. c else e_start -. c)
          ~finish:(if overlap then !host else e_start)
          ();
      dev := e_start +. nc.nc_exec_seconds;
      if tracing then
        Tracer.emit ~track:graph_track ~lane:1 ~name:("exec:" ^ nc.nc_label)
          ~start:e_start ~finish:!dev ())
    costs;
  Metrics.incr executions_c;
  Metrics.add compiles_c !compiles;
  Metrics.add cache_hits_c !hits;
  {
    r_graph = (Infer.dag bound).Dag.name;
    r_overlap = overlap;
    r_e2e_seconds = !dev;
    r_exec_seconds = !exec_t;
    r_compile_seconds = !compile_t;
    r_hidden_seconds = !compile_t -. !stall_t;
    r_stall_seconds = !stall_t;
    r_compiles = !compiles;
    r_cache_hits = !hits;
    r_fused_bytes = !fused_b;
    r_nodes = List.length costs;
  }
