(** Seeded chaos A/B driver: one fault plan, two serving arms.

    Runs the same request trace under the same {!Mikpoly_fault.Plan}
    twice — once with the resilience machinery (retries, per-attempt
    timeouts, load shedding) and once without — and reduces each arm to
    its {!Metrics} plus the loss-accounting invariants the chaos harness
    gates on. Because fault draws are stateless functions of the plan
    seed, both arms see the identical injected schedule, so the A/B
    isolates exactly what resilience buys. *)

type arm = {
  arm_name : string;
  metrics : Metrics.t;
  injected_faults : int;  (** step faults + stragglers + crashes *)
  crashes : int;
  silent_losses : int;
      (** requests with no terminal status, or more than one; must be 0 *)
  status_digest : string;
      (** FNV-1a hex over the sorted per-request terminal statuses —
          equal digests mean bit-identical outcomes (the reproducibility
          check [mikpoly_cli chaos] runs across seeds and job counts) *)
}

val digest : (int * string) list -> string
(** The terminal-status digest of a run, from [(request id, status
    name)] pairs: FNV-1a hex over the sorted ["id=status"] lines. Equal
    digests mean identical per-request outcomes. *)

type ab = {
  faults : Mikpoly_fault.Plan.t;
  with_resilience : arm;
  without_resilience : arm;
}

val run_arm :
  arm_name:string -> faults:Mikpoly_fault.Plan.t ->
  resilience:Scheduler.resilience option -> Scheduler.config ->
  Scheduler.engine -> Request.t list -> arm
(** One arm: a {!Scheduler.run} under [faults] at the process-default
    job count, reduced to {!arm}. *)

val run_ab :
  ?resilience:Scheduler.resilience -> faults:Mikpoly_fault.Plan.t ->
  Scheduler.config -> Scheduler.engine -> Request.t list -> ab
(** Both arms under the same plan ([resilience] defaults to
    {!Scheduler.default_resilience} for the on-arm). Deterministic: the
    same inputs produce the same digests at every job count. *)

val resilience_wins : ab -> bool
(** Whether the on-arm's SLO attainment strictly beats the off-arm's —
    the headline gate of the chaos A/B. *)

val no_silent_losses : ab -> bool
(** Whether both arms account for every request exactly once. *)
