(* Host-side benchmark: one workload per process.

   perf.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
            [--out DIR] [--spec FILE] [--smoke]

   Set-up (offline tuning plus engine construction) runs eleven times and
   reports its median. Then repetitions of the workload, each on fresh
   compilers and engines, run until [--seconds] is spent, cycling through
   the workload's inputs (see [Workloads.all]); each input runs at least
   twice. Every host time is scaled to nominal machine speed (see
   [Speed]). Each metric is the mean over the inputs of its median over
   the input's repetitions. With [--trace 0] the last line of stdout is a
   JSON object with the end-to-end metrics; with [--trace 1] every second
   cycle through the inputs is traced, the JSON carries the per-layer
   metrics, and the spans of the first traced repetition are written
   under [--out] as a Chrome trace and a self-time table. The names and
   units of both kinds of metric are read from [--spec] (BENCHMARK.json).
   [--smoke] runs each workload at about 1% of its size. Exits 1 when an
   output check fails, 2 on bad arguments or a bad spec. *)

module Json = Mikpoly_telemetry.Json
module Export_chrome = Mikpoly_telemetry.Export_chrome
module Export_profile = Mikpoly_telemetry.Export_profile
module Compiler = Mikpoly_core.Compiler
module Kernel_set = Mikpoly_core.Kernel_set
module Stats = Mikpoly_util.Stats

let usage =
  "perf.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR] [--spec \
   FILE] [--smoke]"

let fail_usage msg =
  prerr_endline ("perf: " ^ msg);
  prerr_endline usage;
  exit 2

let workload = ref ""

let seed = ref (-1)

let seconds = ref 10.

let trace = ref 0

let out = ref "bench/perf/out"

let spec = ref "BENCHMARK.json"

let smoke = ref false

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "DIR where a traced run writes its trace");
      ("--spec", Arg.Set_string spec, "FILE metric declarations (default BENCHMARK.json)");
      ("--smoke", Arg.Set smoke, " run at about 1% size");
    ]
    (fun a -> fail_usage ("unexpected argument " ^ a))
    usage;
  if not (List.mem_assoc !workload Workloads.all) then
    fail_usage
      (Printf.sprintf "unknown workload %S (one of: %s)" !workload
         (String.concat ", " (List.map fst Workloads.all)));
  if !seed < 0 then fail_usage "--seed must be given, >= 0";
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace must be 0 or 1";
  if not (!seconds >= 0.) then fail_usage "--seconds must be >= 0"

(* (name, unit) of every metric this run emits, in the order of the
   spec's [end_to_end] or [per_layer] list. *)
let declared =
  let bad msg = fail_usage (Printf.sprintf "%s: %s" !spec msg) in
  let key = if !trace = 1 then "per_layer" else "end_to_end" in
  let text =
    try In_channel.with_open_text !spec In_channel.input_all with Sys_error e -> bad e
  in
  match Json.parse text with
  | Error e -> bad e
  | Ok j -> (
    match Json.member key j with
    | Some (Json.List ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String name), Some (Json.String unit) -> (name, unit)
          | _ -> bad ("a metric in " ^ key ^ " lacks a name or a unit"))
        ms
    | _ -> bad ("no list " ^ key))

(* Per-layer values measured in host time. Like the end-to-end ones they
   are scaled to nominal machine speed, per repetition. *)
let host_time name =
  match List.assoc_opt name declared with
  | Some ("s" | "us") -> true
  | _ -> String.starts_with ~prefix:"polymerize.measured_over_modeled" name

let median = function [] -> 0. | xs -> Stats.median xs

let timed f =
  let t0 = Spans.now () in
  let r = f () in
  (r, Spans.now () -. t0)

(* Self-time rows of one traced repetition, as per-layer metrics. *)
let span_metrics ~steps (scopes, leaves) =
  let rows = Export_profile.rows ~units:(fun _ -> 1.) (scopes @ leaves) in
  let row name = List.find_opt (fun r -> r.Export_profile.name = name) rows in
  let total name = match row name with Some r -> r.Export_profile.total_s | None -> 0. in
  let calls name =
    match row name with Some r -> float_of_int r.Export_profile.calls | None -> 0.
  in
  let loop = total "loop" in
  [
    ( "engine.busy_s",
      total "engine.step" +. total "engine.shapes" +. total "engine.compile" );
    ("engine.step.calls", calls "engine.step");
    ("engine.step.busy_s", total "engine.step");
    ("engine.shapes.calls", calls "engine.shapes");
    ("engine.compile.calls", calls "engine.compile");
    ("engine.compile.busy_s", total "engine.compile");
    ("loop.busy_s", loop);
    ("loop.self_s", match row "loop" with Some r -> r.Export_profile.self_s | None -> 0.);
    ("loop.us_per_step", if steps > 0. then 1e6 *. loop /. steps else 0.);
    ("report.busy_s", total "report");
    ("trace.spans", float_of_int (List.length scopes + List.length leaves));
  ]

(* The Chrome trace keeps every scope but only the first leaves: a
   serving repetition makes hundreds of thousands of engine calls. *)
let chrome_leaves = 20_000

let write_trace ~name (scopes, leaves) =
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  let base = Filename.concat !out name in
  let units _ = 1. in
  let shown = List.filteri (fun i _ -> i < chrome_leaves) leaves in
  Out_channel.with_open_text (base ^ ".trace.json") (fun oc ->
      output_string oc (Export_chrome.to_string ~units (scopes @ shown)));
  Out_channel.with_open_text (base ^ ".profile.txt") (fun oc ->
      output_string oc (Export_profile.render ~top:20 ~units (scopes @ leaves)));
  Printf.printf "trace: %s.trace.json (%d of %d engine spans), %s.profile.txt\n" base
    (List.length shown) (List.length leaves) base

type metric = { name : string; unit : string; value : float }

(* One repetition as the runner saw it. *)
type run = {
  input : int;  (** which of the run's inputs *)
  rep : Workloads.rep;
  spans : (Spans.Span.t list * Spans.Span.t list) option;  (** when traced *)
  ops : float;  (** throughput at nominal machine speed *)
  scale : float;  (** factor from its wall to nominal machine speed *)
}

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun m -> Printf.printf "%-40s %18.6f %s\n" m.name m.value m.unit) metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let metric m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
      (Json.to_string (Json.String m.name))
      (num m.value)
      (Json.to_string (Json.String m.unit))
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let () =
  Mikpoly_util.Domain_pool.set_default_jobs 1;
  (* K inputs, made from seeds KN to KN+K-1 for [--seed N]. *)
  let inputs, make = List.assoc !workload Workloads.all in
  let ws = Array.init inputs (fun j -> make ~smoke:!smoke ~seed:((inputs * !seed) + j)) in
  (* [f ()] with the machine speed measured on both sides: the result, its
     wall, and that wall's factor to nominal speed. (No forced collection
     here: on OCaml 5 one raises the heap's high-water mark.) A smoke run
     checks outputs, not speed, and leaves its walls unscaled. *)
  let measured f =
    if !smoke then
      let r, wall = timed f in
      (r, wall, 1.)
    else
      let before = Speed.measure () in
      let r, wall = timed f in
      (r, wall, Speed.nominal /. ((before +. Speed.measure ()) /. 2.))
  in
  (* Set-up: the offline stage from a cleared kernel-set memo, then the
     engines. Trace generation above is excluded. One set-up takes 10-100 ms,
     too short to ride out the host's bursts, so the median of eleven is
     reported. *)
  let setups =
    List.init (if !smoke then 1 else 11) (fun _ ->
        let (compilers, tune), wall, scale =
          measured (fun () ->
              let compilers, tune =
                timed (fun () ->
                    Kernel_set.clear_cache ();
                    List.map (fun hw -> Compiler.create hw) ws.(0).Workloads.platforms)
              in
              ws.(0).Workloads.engines compilers;
              (compilers, tune))
        in
        (compilers, tune *. scale, wall *. scale))
  in
  let compilers, _, _ = List.hd setups in
  let traced = !trace = 1 in
  (* Each input runs at least twice, so its outputs can be compared; when
     traced, once untraced and once traced. *)
  let min_reps = 2 * inputs in
  let start = Spans.now () in
  (* The heap's high-water mark once set-up and one repetition of each
     input are done: later repetitions repeat the same work, but how many
     run depends on the machine's speed. *)
  let peak_heap_words = ref 0 in
  (* Repetitions until the time is spent; a repetition starts only if it
     is expected to end in time. They cycle through the inputs; when
     traced, every second cycle is. Each keeps its throughput scaled to
     nominal machine speed. *)
  let rec go i last acc =
    if i >= min_reps && Spans.now () -. start +. last > !seconds then List.rev acc
    else begin
      let input = i mod inputs in
      let on = traced && i / inputs mod 2 = 1 in
      let rep, wall, scale =
        measured (fun () ->
            Spans.on := on;
            let r = Spans.scope "rep" ws.(input).Workloads.rep in
            Spans.on := false;
            r)
      in
      if i = inputs - 1 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
      let spans = if on then Some (Spans.take ()) else None in
      let ops = rep.Workloads.throughput /. scale in
      Printf.printf
        "rep %d (input %d)%s: %.3f s, %.1f ops/s (%.1f at nominal speed), digest %s\n%!" i
        input
        (if on then " traced" else "")
        wall rep.Workloads.throughput ops rep.Workloads.digest;
      go (i + 1) wall ({ input; rep; spans; ops; scale } :: acc)
    end
  in
  let all_runs = go 0 0. [] in
  let checked = ref (List.length all_runs) and failed = ref 0 in
  (* The values of one input: its checks are counted, its metrics are
     medians over its repetitions. *)
  let values_of input =
    let runs = List.filter (fun run -> run.input = input) all_runs in
    let x_checked, x_failed, x_metrics = ws.(input).Workloads.finish () in
    let first = (List.hd runs).rep in
    Printf.printf "input %d simulated: p50 %.6g ms, p99 %.6g ms, goodput %.6g /s\n" input
      first.Workloads.sim_p50_ms first.Workloads.sim_p99_ms first.Workloads.sim_goodput;
    let sum f = List.fold_left (fun a run -> a + f run.rep) 0 runs in
    let changed r = if r.Workloads.digest = first.Workloads.digest then 0 else 1 in
    checked := !checked + x_checked + sum (fun r -> r.Workloads.checked);
    failed := !failed + x_failed + sum (fun r -> r.Workloads.failed + changed r);
    let throughputs pick =
      List.filter_map (fun run -> if pick run then Some run.ops else None) runs
    in
    if not traced then
      let word = float_of_int (Sys.word_size / 8) in
      [
        ("setup_s", median (List.map (fun (_, _, s) -> s) setups));
        ("host_ops_per_s", median (throughputs (fun _ -> true)));
        ("peak_heap_mb", float_of_int !peak_heap_words *. word /. 1048576.);
        ("sim_latency_p50_ms", first.Workloads.sim_p50_ms);
      ]
    else begin
      (* Medians per metric: counts, GC words and search walls over the
         untraced repetitions (recording spans allocates), self times over
         the traced ones. *)
      let medians rows =
        List.map
          (fun (name, _) -> (name, median (List.map (List.assoc name) rows)))
          (List.hd rows)
      in
      let scaled run =
        List.map (fun (name, v) -> (name, if host_time name then v *. run.scale else v))
      in
      let untraced run = Option.is_none run.spans in
      let counts =
        medians
          (List.filter_map
             (fun run ->
               if untraced run then Some (scaled run run.rep.Workloads.counts) else None)
             runs)
      in
      if input = 0 then
        write_trace ~name:!workload (Option.get (List.find_map (fun run -> run.spans) runs));
      let steps = List.assoc "loop.steps" counts in
      counts
      @ medians
          (List.filter_map
             (fun run -> Option.map (fun s -> scaled run (span_metrics ~steps s)) run.spans)
             runs)
      @ [
          ("kernel_set.tune_s", median (List.map (fun (_, t, _) -> t) setups));
          ( "kernel_set.entries",
            float_of_int
              (List.fold_left
                 (fun a c -> a + Kernel_set.size (Compiler.kernels c))
                 0 compilers) );
          ( "trace.overhead_ratio",
            median (throughputs untraced)
            /. median (throughputs (fun run -> not (untraced run))) );
          ( "host.ref_ms",
            1e3 *. Speed.nominal /. median (List.map (fun run -> run.scale) runs) );
        ]
      @ x_metrics
    end
  in
  let per_input = List.init inputs values_of in
  let values =
    List.map
      (fun (name, _) ->
        (name, Stats.mean (List.map (List.assoc name) per_input)))
      (List.hd per_input)
  in
  let failed = !failed in
  let missing = List.filter (fun (name, _) -> not (List.mem_assoc name values)) declared in
  if (not traced) && missing <> [] then
    fail_usage
      (Printf.sprintf "%s declares end-to-end metrics perf.exe does not compute: %s" !spec
         (String.concat ", " (List.map fst missing)));
  (* A per-layer metric of a layer this workload does not run reads 0. *)
  if missing <> [] then
    Printf.printf "not measured: %s\n" (String.concat " " (List.map fst missing));
  let metrics =
    List.map
      (fun (name, unit) ->
        { name; unit; value = Option.value ~default:0. (List.assoc_opt name values) })
      declared
  in
  print_result ~correct:(failed = 0) ~attempted:!checked ~failed metrics;
  exit (if failed = 0 then 0 else 1)
