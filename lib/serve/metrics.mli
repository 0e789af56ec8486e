(** Serving-quality metrics over a {!Scheduler.outcome}.

    The quantities a production serving dashboard tracks, computed with
    {!Mikpoly_util.Stats}: latency percentiles, time-to-first-token,
    time-per-output-token, goodput (requests completed within their SLO
    per second), queue depth, program-cache hit rate and padding
    overhead. *)

type t = {
  requests : int;
      (** completed + dropped + rejected + timed_out + failed — every
          request the run touched counts toward SLO attainment *)
  completed : int;
  dropped : int;
  rejected : int;  (** shed by load-shedding admission *)
  timed_out : int;  (** lost to the per-attempt timeout *)
  failed : int;  (** lost to injected faults after all retries *)
  retries : int;  (** re-attempts granted across the run *)
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;  (** end-to-end seconds, arrival to completion *)
  ttft_p50 : float;
  ttft_p95 : float;  (** arrival to first decoded token *)
  tpot_mean : float;  (** mean seconds per output token after the first *)
  throughput_rps : float;  (** completed requests per second of makespan *)
  goodput_rps : float;  (** SLO-met requests per second of makespan *)
  slo_attainment : float;  (** SLO-met fraction of all requests *)
  tokens_per_second : float;
  mean_queue_depth : float;
  cache_hit_rate : float;  (** over all replicas' shape caches *)
  compile_stall_seconds : float;
  adapt_stall_seconds : float;  (** online-adaptation recompilation time *)
  padding_overhead : float;  (** padded/actual token ratio minus 1 *)
  makespan : float;
  steps : int;
}

val slo_met : Scheduler.completed -> bool
(** Both the TTFT and the end-to-end budget were met. *)

val of_outcome : Scheduler.outcome -> t
(** Total on any outcome, including the empty one (zero rates). A
    request meets its SLO when both its TTFT and end-to-end budgets
    hold; dropped, rejected, timed-out and failed requests never do. *)

val cache_table :
  ?replicas:int ->
  ?labels:string list ->
  ?stalls:(string * float) list ->
  Scheduler.outcome ->
  Mikpoly_util.Table.t
(** Per-replica program-cache economics (hits, misses, insertions,
    evictions, occupancy) with a fleet total and the run's compile/adapt
    stall charges — the human-readable view of what was previously only
    telemetry counters. Pass [replicas] (the configured fleet size) to
    label trailing entries, which belong to caches retired by replica
    crashes, as [crashed-i]. A heterogeneous fleet instead passes
    [labels] — one per cache entry, e.g. ["gpu-0"], ["npu-1"],
    ["crashed-npu-0"] — and [stalls], extra [(class, seconds)] rows
    attributing compile stalls to each device class. *)

val header : string list
(** Column names matching {!to_row}, with a leading "config" column. *)

val to_row : label:string -> t -> string list
(** One table row, formatted with {!Mikpoly_util.Table} helpers. *)
