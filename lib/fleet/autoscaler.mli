(** Telemetry-driven replica autoscaling with hysteresis.

    A pure decision function over fleet signals — the {!Fleet} event
    loop samples the signals every [interval] and applies the decision,
    so scaling is deterministic and replayable. Scale up above
    [up_queue_depth] waiting requests per live replica (or when SLO
    attainment falls below 0.9); scale down only below the strictly
    smaller [down_queue_depth] — the gap between the two
    thresholds is the hysteresis band that prevents flapping, and
    [cooldown] spaces consecutive changes.

    Fault-plane interaction (PR 5): a crashed replica counts against
    capacity — it occupies a fleet slot for the [max_replicas] bound —
    and is never read as a scale-down signal; while any replica is
    down, the fleet holds rather than shrinks. A compile-stall fraction
    of busy time above 0.5 also blocks scale-up: a fresh replica starts
    with a cold program cache, so adding one to a compile-bound fleet
    adds stalls, not capacity. *)

type config = {
  min_replicas : int;
  max_replicas : int;
  up_queue_depth : float;  (** waiting per live replica; scale up above *)
  down_queue_depth : float;  (** scale down below; must be < up threshold *)
  cooldown : float;  (** seconds between consecutive scale changes *)
  interval : float;  (** seconds between signal samples *)
}

val validate : config -> unit
(** Raises [Invalid_argument] on non-sensical bounds (e.g. no
    hysteresis gap) or a NaN depth, cooldown or interval. *)

type signal = {
  queue_depth : float;  (** waiting requests per live replica *)
  slo_attainment : float;  (** SLO-met fraction of requests resolved so far *)
  stall_ratio : float;  (** compile-stall share of elapsed serving time *)
  live_replicas : int;  (** active and not crashed *)
  down_replicas : int;  (** crashed, pending restart *)
}

type decision = Hold | Scale_up | Scale_down

val decision_name : decision -> string

val decide : config -> last_change:float -> now:float -> signal -> decision
(** Pure and total; [last_change] is the event time of the previous
    applied scale change (or the run start). Restoring the [min_replicas]
    floor bypasses the cooldown — a fleet below minimum is an outage,
    not an optimization opportunity. *)
