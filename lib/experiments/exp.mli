(** Experiment harness scaffolding: every paper table/figure reproduction
    is an {!t} that produces a {!report}. *)

type report = {
  tables : Mikpoly_util.Table.t list;
  summary : string list;  (** headline numbers, paper-vs-measured notes *)
}

type t = {
  id : string;  (** e.g. "fig6" — the CLI/bench selector *)
  title : string;
  paper_claim : string;  (** what the paper reports for this artifact *)
  run : quick:bool -> report;
      (** [quick] subsamples heavy workloads (used by tests and smoke
          runs); the full run reproduces the complete suite. *)
}

val run_traced : t -> quick:bool -> report
(** [run] wrapped in an [experiment.<id>] root span on the wall-clock
    track, so a profiled run attributes offline tuning, online search
    and simulation time to the experiment that caused them. Identical
    to [run] while the telemetry tracer is disabled. *)

val render : t -> report -> string
(** The experiment's [==== id: title ====] header, its tables and its
    summary bullets. *)

val speedup_row :
  Mikpoly_util.Table.t -> label:string -> float list -> unit
(** Append a (label, mean, geomean, min, max, count) summary row for a
    list of speedups. The table must have that 6-column header, e.g. from
    {!speedup_table}. *)

val speedup_table : title:string -> Mikpoly_util.Table.t
(** A table with the standard speedup-summary header. *)

type gate = { gate_name : string; gate_ok : bool; gate_detail : string }
(** One hard acceptance claim of a subsystem experiment, as checked by
    its CLI subcommand and recorded in its JSON report. *)

val failed_gates : gate list -> gate list

val gates_summary : all_hold:string -> gate list -> string
(** A report's gate bullet: [all_hold] when every gate holds, else
    [GATE FAILURES:] and each failed gate's name and detail. *)

val gates_json : gate list -> (string * Mikpoly_telemetry.Json.t) list
(** A subsystem JSON report's two gate fields: every gate's name, verdict
    and detail, then whether all of them hold. *)

val report_failed_gates : prefix:string -> gate list -> bool
(** Print each failed gate to stderr as [prefix: name: detail]; [true]
    when every gate holds. *)

val flops_buckets :
  flops:('a -> float) -> speedup:('a -> float) -> 'a list ->
  (string * float * int) list
(** Group cases by decade of FLOPs (the x-axis of the paper's scatter
    figures) and return (bucket label, mean speedup, count) series. *)
