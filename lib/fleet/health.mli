(** Per-device-class health scoring for the heterogeneous fleet.

    Two planes feed one routing verdict:

    - a {!Mikpoly_fault.Breaker} over step outcomes — consecutive
      failures (a class outage fails every step) trip it Open, evicting
      the class until a half-open probe succeeds;
    - a slowdown EWMA over observed step-time multipliers (brown-outs,
      stragglers) driving the {b brown-out ladder}: [Healthy] →
      [Degraded] when the EWMA crosses [degrade_enter]; back to
      [Healthy] only once it falls below [degrade_exit] {e and}
      [min_dwell] has elapsed since the transition — a hysteresis band
      plus dwell, so a flapping class cannot thrash the per-class warm
      stores with churned routing.

    Both run on the caller's event clock, so health verdicts are as
    deterministic as the serving simulation feeding them. *)

type level = Healthy | Degraded | Evicted

val level_name : level -> string

type config = {
  breaker : Mikpoly_fault.Breaker.policy;
      (** consecutive step failures that evict, and the cooldown before
          a half-open probe may be routed *)
  ewma_alpha : float;  (** weight of the newest slowdown sample, (0,1] *)
  degrade_enter : float;  (** EWMA ≥ this → [Degraded] (> 1) *)
  degrade_exit : float;
      (** EWMA ≤ this (and dwell elapsed) → back to [Healthy];
          must be < [degrade_enter] — the hysteresis band *)
  min_dwell : float;  (** seconds a level change is pinned for *)
}

val default : config
(** Trip after 3 consecutive failures with 0.5 s cooldown; α = 0.3,
    degrade at 2.0×, recover below 1.2×, 0.1 s dwell. *)

val validate : config -> unit
(** Raises [Invalid_argument] unless [breaker] passes
    {!Mikpoly_fault.Breaker.validate}, [0 < ewma_alpha <= 1],
    [1 < degrade_enter], [degrade_exit < degrade_enter] and
    [min_dwell >= 0] — so a NaN setting fails too. *)

type t

val create : config -> t

val observe :
  t -> now:float -> slowdown:float -> failed:bool -> [ `Ok | `Tripped ]
(** Record one step outcome on the class: [slowdown] is the step-time
    multiplier actually charged (1.0 = nominal), [failed] whether the
    step's work was lost. Returns [`Tripped] exactly when this
    observation tripped the breaker Open (the caller drains and
    re-routes on that edge). *)

val level : t -> level
(** Current rung: [Evicted] while the breaker is Open or probing,
    otherwise the EWMA ladder's [Healthy]/[Degraded]. *)

val probe_ready : t -> now:float -> bool
(** Evicted, cooldown elapsed, no probe in flight: the router may
    commit one probe request via {!admit_probe}. Pure peek
    ({!Mikpoly_fault.Breaker.would_allow}). *)

val admit_probe : t -> now:float -> bool
(** Commit the half-open probe ({!Mikpoly_fault.Breaker.allow}); the
    next observed step on the class is its verdict. *)

val breaker_stats : t -> Mikpoly_fault.Breaker.stats

val transitions : t -> int
(** Ladder level changes (Healthy ↔ Degraded edges) — bounded under
    hysteresis, the flap gate the experiment asserts. *)

val degraded_entries : t -> int
(** Times the ladder entered [Degraded]. *)
