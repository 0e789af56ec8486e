(** PE-level schedulers.

    The GPU scheduler models the hardware block dispatcher: pipelined tasks
    are issued in FIFO order (later regions may fill slots the head task
    cannot use, modelling concurrent streams) onto any PE with enough free
    warp slots. The NPU scheduler models the paper's static max-min
    allocation onto DaVinci cores (Section 4). Above a task-count threshold
    both fall back to an analytic smooth model, where wave-quantization
    effects are negligible. *)

type region_work = {
  duration : float;  (** cycles of one pipelined task of this region *)
  warps : int;  (** slots one task occupies *)
  blocks_per_pe : int;  (** resident-task bound per PE for this kernel *)
  count : int;  (** tasks in this region *)
}

type outcome = {
  makespan : float;  (** cycles until the last task drains *)
  busy_pe_cycles : float;
      (** Σ over PEs of the time at least one task was resident — the
          numerator of sm_efficiency. *)
  exact : bool;  (** false when the analytic fallback was used *)
}

val event_sim_threshold : int
(** Total task count above which the analytic model is used. *)

val schedule_gpu :
  ?on_span:(pe:int -> start:float -> finish:float -> warps:int -> region:int -> unit) ->
  num_pes:int -> slot_capacity:int -> region_work list -> outcome
(** [on_span] is invoked once per scheduled task, in dispatch order
    (event-driven mode only; the analytic fallback emits no spans).
    [region] is the task's index among the regions with [count > 0].
    Raises [Invalid_argument] if [num_pes < 1], a [count] or [duration]
    is negative or a [duration] is NaN, a task needs more than
    [slot_capacity] warps or fewer than 1, or [blocks_per_pe < 1]. *)

val schedule_npu :
  ?on_span:(pe:int -> start:float -> finish:float -> warps:int -> region:int -> unit) ->
  num_pes:int -> region_work list -> outcome
(** The static max-min schedule, computed over groups of equally loaded
    cores (DESIGN §5): [makespan], [busy_pe_cycles] and each region's
    first start and last finish are bit-identical to placing each task in
    turn on a least-loaded core. [on_span] is invoked once per task (not
    on the analytic fallback), with [warps = 1]; a task names the
    lowest-index core still at its group's load, so each core's spans run
    back to back from 0. Raises like {!schedule_gpu} with
    [slot_capacity = 1]. *)
