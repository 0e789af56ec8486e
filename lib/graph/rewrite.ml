module Tracer = Mikpoly_telemetry.Tracer

type pass = { pass_name : string; apply : Dag.t -> Dag.t * int }

type stats = { pass_name : string; rewrites : int }

let reads_of cons id = Option.value (Hashtbl.find_opt cons id) ~default:[]

(* --- Sibling merging --- *)

let merge_once (g : Dag.t) =
  let cons = Dag.consumers g in
  let in_outputs id = List.mem id g.Dag.outputs in
  (* (repeat, operand list, consumer) -> member ids *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (n : Dag.node) ->
      match n.kind with
      | Dag.Gemm { repeat }
        when n.fused = [] && n.chain = None && not (in_outputs n.id) -> (
        match reads_of cons n.id with
        | [ c ] ->
          let cn = Dag.find g c in
          (* the single read must be a plain operand, not an epilogue's *)
          if
            List.mem n.id cn.inputs
            && not
                 (List.exists
                    (fun fe -> List.mem n.id fe.Dag.fe_inputs)
                    cn.fused)
          then begin
            let key = (repeat, n.inputs, c) in
            Hashtbl.replace groups key
              (n.id :: Option.value (Hashtbl.find_opt groups key) ~default:[])
          end
        | _ -> ())
      | _ -> ())
    g.nodes;
  let merges =
    Hashtbl.fold
      (fun (repeat, _, _) members acc ->
        match List.sort compare members with
        | keep :: (_ :: _ as drop) -> (keep, repeat, drop) :: acc
        | _ -> acc)
      groups []
  in
  if merges = [] then (g, 0)
  else begin
    let dropped = Hashtbl.create 16 in
    let kept = Hashtbl.create 16 in
    List.iter
      (fun (keep, repeat, drop) ->
        Hashtbl.replace kept keep (repeat * (1 + List.length drop));
        List.iter (fun d -> Hashtbl.replace dropped d ()) drop)
      merges;
    let nodes =
      List.filter_map
        (fun (n : Dag.node) ->
          if Hashtbl.mem dropped n.id then None
          else
            let n =
              match Hashtbl.find_opt kept n.id with
              | Some repeat -> { n with kind = Dag.Gemm { repeat } }
              | None -> n
            in
            Some
              { n with
                inputs = List.filter (fun v -> not (Hashtbl.mem dropped v)) n.inputs
              })
        g.nodes
    in
    let count =
      List.fold_left (fun a (_, _, drop) -> a + List.length drop) 0 merges
    in
    ({ g with nodes }, count)
  end

let merge_siblings () =
  { pass_name = "merge_siblings";
    apply =
      (fun g ->
        let rec go g total =
          let g, n = merge_once g in
          if n = 0 then (g, total) else go g (total + n)
        in
        go g 0);
  }

(* --- Epilogue fusion --- *)

(* Largest epilogue ratio [traffic x inputs] that still folds, the same
   bound as [Mikpoly_nn.Fusion]. *)
let max_ratio = 4.

let fuse_one (g : Dag.t) =
  let cons = Dag.consumers g in
  let in_outputs id = List.mem id g.Dag.outputs in
  let candidate (e : Dag.node) =
    match e.kind with
    | Dag.Elemwise { traffic; _ } -> (
      let ratio = traffic *. float_of_int (List.length e.inputs) in
      if ratio > max_ratio then None
      else
        match e.inputs with
        | p :: _ -> (
          let pn = Dag.find g p in
          match pn.kind with
          | (Dag.Gemm _ | Dag.Conv _)
            when pn.fused = [] && not (in_outputs p)
                 && reads_of cons p = [ e.id ]
                 (* extra epilogue operands must already be scheduled
                    when the producer writes back — a forward read
                    would consume a value that does not exist yet *)
                 && List.for_all (fun v -> v < pn.id) (List.tl e.inputs) ->
            Some (e, pn, ratio)
          | _ -> None)
        | [] -> None)
    | _ -> None
  in
  match List.find_map candidate g.nodes with
  | None -> None
  | Some (e, p, ratio) ->
    let fe_inputs = List.tl e.inputs in
    let fe = { Dag.fe_label = e.label; fe_ratio = ratio; fe_inputs } in
    let subst v = if v = e.id then p.id else v in
    let nodes =
      List.filter_map
        (fun (n : Dag.node) ->
          if n.id = e.id then None
          else if n.id = p.id then Some { n with fused = [ fe ] }
          else
            Some
              { n with
                inputs = List.map subst n.inputs;
                fused =
                  List.map
                    (fun f ->
                      { f with Dag.fe_inputs = List.map subst f.Dag.fe_inputs })
                    n.fused;
                chain = Option.map subst n.chain;
              })
        g.nodes
    in
    Some { g with nodes; outputs = List.map subst g.outputs }

let fuse_epilogues () =
  { pass_name = "fuse_epilogues";
    apply =
      (fun g ->
        let rec go g total =
          match fuse_one g with
          | Some g -> go g (total + 1)
          | None -> (g, total)
        in
        go g 0);
  }

(* --- GEMM chains --- *)

let fuse_gemm_chains () =
  { pass_name = "fuse_gemm_chains";
    apply =
      (fun g ->
        let cons = Dag.consumers g in
        let in_outputs id = List.mem id g.Dag.outputs in
        let count = ref 0 in
        let nodes =
          List.map
            (fun (n : Dag.node) ->
              match n.kind with
              | (Dag.Gemm _ | Dag.Conv _) when n.chain = None -> (
                let chainable v =
                  match (Dag.find g v).kind with
                  | Dag.Gemm _ | Dag.Conv _ ->
                    (not (in_outputs v)) && reads_of cons v = [ n.id ]
                  | _ -> false
                in
                match List.find_opt chainable n.inputs with
                | Some v ->
                  incr count;
                  { n with chain = Some v }
                | None -> n)
              | _ -> n)
            g.nodes
        in
        ({ g with nodes }, !count));
  }

let run g =
  let passes = [ merge_siblings (); fuse_epilogues (); fuse_gemm_chains () ] in
  let g', rev_stats =
    List.fold_left
      (fun (g, acc) (p : pass) ->
        let g', n =
          Tracer.with_span ("graph.pass." ^ p.pass_name) (fun () -> p.apply g)
        in
        (match Dag.validate g' with
        | Ok () -> ()
        | Error e ->
          invalid_arg
            (Printf.sprintf "Rewrite.run: pass %s broke %S: %s" p.pass_name
               g'.Dag.name e));
        (g', { pass_name = p.pass_name; rewrites = n } :: acc))
      (g, []) passes
  in
  let stats = List.rev rev_stats in
  let total = List.fold_left (fun a s -> a + s.rewrites) 0 stats in
  let g' = if total > 0 then Dag.rename g' (g'.Dag.name ^ "+fused") else g' in
  (g', stats)
