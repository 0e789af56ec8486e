(* Smoke test: every workload of BENCHMARK.json at about 1% size, once
   untraced and once traced. Each run must exit 0, pass every output
   check, and emit every metric BENCHMARK.json lists, with its unit.
   Every end-to-end value must be positive, and every per-layer metric
   must be measured by at least one workload (perf.exe reads the names
   from BENCHMARK.json, so a misspelt name would otherwise read 0).

   smoke.exe PERF_EXE BENCHMARK_JSON *)

module Json = Mikpoly_telemetry.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      print_endline ("FAIL " ^ s))
    fmt

let member key j =
  match Json.member key j with Some v -> v | None -> failwith ("missing key " ^ key)

let str = function Json.String s -> s | _ -> failwith "expected a string"

let list = function Json.List l -> l | _ -> failwith "expected a list"

let parse s = match Json.parse s with Ok j -> j | Error e -> failwith e

let read_all ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

(* (name, unit) pairs of one metric list of BENCHMARK.json. *)
let declared spec key =
  List.map
    (fun m -> (str (member "name" m), str (member "unit" m)))
    (list (member key spec))

(* Per-layer metrics that no workload run so far has measured. *)
let unmeasured = ref None

let not_measured = "not measured: "

let check ~perf ~spec_file ~expected ~workload ~trace ~seed =
  let args =
    [| perf; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; "0";
       "--trace"; string_of_int trace; "--smoke"; "--out"; "."; "--spec"; spec_file |]
  in
  let ic = Unix.open_process_args_in perf args in
  let lines = read_all ic in
  let what = Printf.sprintf "%s --trace %d" workload trace in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ ->
    let r = parse last in
    if member "correct" r <> Json.Bool true || member "failed" r <> Json.Number 0. then
      fail "%s: an output check failed: %s" what last;
    let fields =
      match member "metrics" r with
      | Json.Obj fields -> fields
      | _ -> failwith "metrics is not an object"
    in
    let emitted = List.map (fun (name, m) -> (name, str (member "unit" m))) fields in
    if trace = 0 then
      List.iter
        (fun (name, m) ->
          match member "value" m with
          | Json.Number v when v > 0. -> ()
          | _ -> fail "%s: %s is not positive" what name)
        fields
    else begin
      let missing =
        List.find_map
          (fun l ->
            if String.starts_with ~prefix:not_measured l then
              let n = String.length not_measured in
              Some (String.split_on_char ' ' (String.sub l n (String.length l - n)))
            else None)
          lines
        |> Option.value ~default:[]
      in
      unmeasured :=
        Some
          (match !unmeasured with
          | None -> missing
          | Some prev -> List.filter (fun m -> List.mem m missing) prev)
    end;
    if emitted <> expected then
      fail "%s: emitted metrics differ from BENCHMARK.json:\n  %s" what
        (String.concat ", " (List.map (fun (n, u) -> n ^ " " ^ u) emitted))
    else Printf.printf "ok   %s (%d metrics)\n%!" what (List.length emitted)
  | _ -> fail "%s: did not exit 0 with a result line" what

let () =
  let perf = Sys.argv.(1) and spec_file = Sys.argv.(2) in
  let spec = parse (In_channel.with_open_text spec_file In_channel.input_all) in
  List.iter
    (fun w ->
      let workload = str (member "name" w) in
      let check = check ~perf ~spec_file ~workload in
      check ~expected:(declared spec "end_to_end") ~trace:0 ~seed:1;
      check ~expected:(declared spec "per_layer") ~trace:1 ~seed:2)
    (list (member "workloads" spec));
  (match !unmeasured with
  | Some (_ :: _ as names) ->
    fail "no workload measures %s" (String.concat ", " names)
  | _ -> ());
  if !failures > 0 then exit 1
