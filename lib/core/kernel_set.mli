(** The product of MikPoly's offline stage: the Top-n_mik tuned
    micro-kernels with their performance models, cached per platform and
    configuration (the paper notes kernels "do not require re-generation
    for the same operator on the same platform"). *)

type entry = {
  desc : Mikpoly_accel.Kernel_desc.t;
  model : Mikpoly_autosched.Perf_model.t;
  wave_capacity : int;  (** f_multi on this platform *)
  rank : int;  (** 0 = best synthetic score *)
  rank_score : float;
}

type t = {
  hw : Mikpoly_accel.Hardware.t;
  entries : entry array;  (** best-ranked first *)
}

val create : Mikpoly_accel.Hardware.t -> Config.t -> t
(** Runs the offline stage (or returns the memoized result). Domain-safe:
    the memo is mutex-guarded and the lock is held across the tuning
    pass, so concurrent callers for the same (platform, config) tune
    exactly once. Candidate evaluation inside the tuning pass runs
    through {!Mikpoly_util.Domain_pool.map} at the process default. *)

val safe_generic : Mikpoly_accel.Hardware.t -> Config.t -> t
(** The guaranteed-safe single-kernel set: one conservative 16×16×16
    micro-kernel (the MMA/cube granularity, so it tiles any shape) with a
    freshly learned performance model. Runs no tuning pass and touches no
    store or memo — the degradation ladder's last rung, used when the
    kernel store is unusable. Slow but always correct. *)

val clear_cache : unit -> unit
(** Drop memoized kernel sets (used by hyper-parameter sweeps).
    Domain-safe. *)

val size : t -> int

val find : t -> um:int -> un:int -> uk:int -> entry option
