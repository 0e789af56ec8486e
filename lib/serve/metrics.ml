open Mikpoly_util

type t = {
  requests : int;
  completed : int;
  dropped : int;
  rejected : int;
  timed_out : int;
  failed : int;
  retries : int;
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;
  ttft_p50 : float;
  ttft_p95 : float;
  tpot_mean : float;
  throughput_rps : float;
  goodput_rps : float;
  slo_attainment : float;
  tokens_per_second : float;
  mean_queue_depth : float;
  cache_hit_rate : float;
  compile_stall_seconds : float;
  adapt_stall_seconds : float;
  padding_overhead : float;
  makespan : float;
  steps : int;
}

let latency (c : Scheduler.completed) =
  c.finish -. c.request.Request.arrival

let ttft (c : Scheduler.completed) =
  c.first_token -. c.request.Request.arrival

let slo_met (c : Scheduler.completed) =
  let s = c.request.Request.slo in
  ttft c <= s.Request.ttft && latency c <= s.Request.e2e

(* One pass over the completions fills the latency and TTFT arrays and
   every count, and sums TPOT in completion order (as a left fold of
   the list of per-request TPOTs would). *)
let of_outcome (o : Scheduler.outcome) =
  let n_completed = List.length o.completed in
  let latencies = Array.create_float n_completed in
  let ttfts = Array.create_float n_completed in
  let tpot_sum = ref 0. and tpot_count = ref 0 in
  let n_met = ref 0 and out_tokens = ref 0 in
  List.iteri
    (fun i (c : Scheduler.completed) ->
      latencies.(i) <- latency c;
      ttfts.(i) <- ttft c;
      let output_len = c.request.Request.output_len in
      let n = output_len - 1 in
      if n > 0 then begin
        let tpot = (c.finish -. c.first_token) /. float_of_int n in
        tpot_sum := !tpot_sum +. tpot;
        incr tpot_count
      end;
      if slo_met c then incr n_met;
      out_tokens := !out_tokens + output_len)
    o.completed;
  let pcts ps xs =
    if n_completed = 0 then List.map (fun _ -> 0.) ps
    else Stats.percentiles_array ps xs
  in
  let latency_p50, latency_p95, latency_p99 =
    match pcts [ 50.; 95.; 99. ] latencies with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let ttft_p50, ttft_p95 =
    match pcts [ 50.; 95. ] ttfts with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let n_dropped = List.length o.dropped in
  let n_rejected = List.length o.rejected in
  let n_timed_out = List.length o.timed_out in
  let n_failed = List.length o.failed in
  let n_met = !n_met and out_tokens = !out_tokens in
  let total = n_completed + n_dropped + n_rejected + n_timed_out + n_failed in
  let per_second n =
    if o.makespan > 0. then float_of_int n /. o.makespan else 0.
  in
  {
    requests = total;
    completed = n_completed;
    dropped = n_dropped;
    rejected = n_rejected;
    timed_out = n_timed_out;
    failed = n_failed;
    retries = o.retries;
    latency_p50;
    latency_p95;
    latency_p99;
    ttft_p50;
    ttft_p95;
    tpot_mean =
      (if !tpot_count = 0 then 0. else !tpot_sum /. float_of_int !tpot_count);
    throughput_rps = per_second n_completed;
    goodput_rps = per_second n_met;
    slo_attainment =
      (if total = 0 then 1. else float_of_int n_met /. float_of_int total);
    tokens_per_second = per_second out_tokens;
    mean_queue_depth =
      (if o.queue_samples = 0 then 0.
       else float_of_int o.queue_depth_sum /. float_of_int o.queue_samples);
    cache_hit_rate = Shape_cache.hit_rate (Shape_cache.total o.cache);
    compile_stall_seconds = o.compile_stall_seconds;
    adapt_stall_seconds = o.adapt_stall_seconds;
    padding_overhead =
      (if o.actual_tokens = 0 then 0.
       else
         (float_of_int o.padded_tokens /. float_of_int o.actual_tokens) -. 1.);
    makespan = o.makespan;
    steps = o.steps;
  }

let pc x = Printf.sprintf "%.0f%%" (100. *. x)

(* Per-replica program-cache economics, surfaced in the human-readable
   serve report (previously only visible as telemetry counters or in a
   Chrome trace). The scheduler lists live replicas first, then one
   entry per cache retired by a crash, so hits and misses paid before a
   crash stay accounted; the final rows total the fleet and restate the
   run's compile/adapt stall charges. A heterogeneous fleet passes
   [labels] (one per cache entry, e.g. "gpu-0" / "npu-2" /
   "crashed-gpu-0") and [stalls] (per-device-class stall rows) so
   mixed-fleet telemetry attributes every cache and stall to its
   class. *)
let cache_table ?(replicas = max_int) ?labels ?(stalls = [])
    (o : Scheduler.outcome) =
  let table =
    Table.create ~title:"Per-replica program cache and compile stalls"
      ~header:
        [ "replica"; "hits"; "misses"; "hit%"; "insert"; "evict"; "size" ]
  in
  let stat_row label (s : Shape_cache.stats) =
    Table.add_row table
      [
        label;
        string_of_int s.Shape_cache.hits;
        string_of_int s.Shape_cache.misses;
        pc (Shape_cache.hit_rate s);
        string_of_int s.Shape_cache.insertions;
        string_of_int s.Shape_cache.evictions;
        Printf.sprintf "%d/%d" s.Shape_cache.size s.Shape_cache.capacity;
      ]
  in
  let label_of i =
    match labels with
    | Some ls when i < List.length ls -> List.nth ls i
    | _ ->
      if i < replicas then string_of_int i
      else Printf.sprintf "crashed-%d" (i - replicas)
  in
  List.iteri (fun i s -> stat_row (label_of i) s) o.Scheduler.cache;
  stat_row "total" (Shape_cache.total o.Scheduler.cache);
  Table.add_row table
    [
      "stall";
      "compile";
      Table.fmt_time_us o.Scheduler.compile_stall_seconds;
      "";
      "adapt";
      Table.fmt_time_us o.Scheduler.adapt_stall_seconds;
      "";
    ];
  List.iter
    (fun (cls, seconds) ->
      Table.add_row table
        [ "stall"; cls; Table.fmt_time_us seconds; ""; ""; ""; "" ])
    stalls;
  table

let header =
  [
    "config"; "req"; "done"; "drop"; "lost"; "retry"; "p50"; "p95"; "p99";
    "ttft p95"; "tpot"; "goodput/s"; "SLO%"; "hit%"; "stall"; "adapt"; "pad%";
    "queue";
  ]

let to_row ~label m =
  [
    label;
    string_of_int m.requests;
    string_of_int m.completed;
    string_of_int m.dropped;
    string_of_int (m.rejected + m.timed_out + m.failed);
    string_of_int m.retries;
    Table.fmt_time_us m.latency_p50;
    Table.fmt_time_us m.latency_p95;
    Table.fmt_time_us m.latency_p99;
    Table.fmt_time_us m.ttft_p95;
    Table.fmt_time_us m.tpot_mean;
    Printf.sprintf "%.1f" m.goodput_rps;
    pc m.slo_attainment;
    pc m.cache_hit_rate;
    Table.fmt_time_us m.compile_stall_seconds;
    Table.fmt_time_us m.adapt_stall_seconds;
    pc m.padding_overhead;
    Printf.sprintf "%.1f" m.mean_queue_depth;
  ]
