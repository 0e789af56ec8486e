open Mikpoly_util

type report = {
  tables : Table.t list;
  summary : string list;
}

type t = {
  id : string;
  title : string;
  paper_claim : string;
  run : quick:bool -> report;
}

let run_traced (t : t) ~quick =
  Mikpoly_telemetry.Tracer.with_span
    ("experiment." ^ t.id)
    ~attrs:[ ("quick", string_of_bool quick) ]
    (fun () -> t.run ~quick)

let render (t : t) (r : report) =
  let header = Printf.sprintf "==== %s: %s ====" t.id t.title in
  let tables = List.map Table.render r.tables in
  let summary = List.map (fun s -> "  * " ^ s) r.summary in
  String.concat "\n" ((header :: tables) @ summary) ^ "\n"

let speedup_table ~title =
  Table.create ~title ~header:[ "series"; "mean"; "geomean"; "min"; "max"; "cases" ]

let speedup_row table ~label speedups =
  match speedups with
  | [] -> Table.add_row table [ label; "-"; "-"; "-"; "-"; "0" ]
  | _ ->
    Table.add_row table
      [
        label;
        Table.fmt_speedup (Stats.mean speedups);
        Table.fmt_speedup (Stats.geomean speedups);
        Table.fmt_speedup (Stats.minimum speedups);
        Table.fmt_speedup (Stats.maximum speedups);
        string_of_int (List.length speedups);
      ]

type gate = { gate_name : string; gate_ok : bool; gate_detail : string }

let failed_gates gs = List.filter (fun g -> not g.gate_ok) gs

let gates_summary ~all_hold gs =
  match failed_gates gs with
  | [] -> all_hold
  | fs ->
    Printf.sprintf "GATE FAILURES: %s"
      (String.concat "; "
         (List.map (fun g -> g.gate_name ^ " (" ^ g.gate_detail ^ ")") fs))

let gates_json gs =
  let module J = Mikpoly_telemetry.Json in
  [
    ( "gates",
      J.List
        (List.map
           (fun g ->
             J.Obj
               [
                 ("name", J.String g.gate_name);
                 ("ok", J.Bool g.gate_ok);
                 ("detail", J.String g.gate_detail);
               ])
           gs) );
    ("gates_ok", J.Bool (failed_gates gs = []));
  ]

let report_failed_gates ~prefix gs =
  let failed = failed_gates gs in
  List.iter
    (fun g -> Printf.eprintf "%s: %s: %s\n" prefix g.gate_name g.gate_detail)
    failed;
  failed = []

let flops_buckets ~flops ~speedup cases =
  let bucket_of c =
    let f = flops c in
    if f <= 0. then 0 else int_of_float (floor (log10 f))
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let b = bucket_of c in
      let sum, n = Option.value (Hashtbl.find_opt tbl b) ~default:(0., 0) in
      Hashtbl.replace tbl b (sum +. speedup c, n + 1))
    cases;
  Hashtbl.fold (fun b (sum, n) acc -> (b, sum /. float_of_int n, n) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.map (fun (b, mean, n) -> (Printf.sprintf "1e%d-1e%d" b (b + 1), mean, n))
