(** A device class serving inside a heterogeneous fleet.

    One backend = one accelerator class (GPU tensor cores or NPU
    cubes), one engine compiled by that class's compiler, and a pinned
    replica count. Kernel stores, calibration profiles and rank models
    are all keyed by {!Mikpoly_accel.Hardware.fingerprint}, so each
    class's artifacts stay separate — the PR-4 fingerprint plumbing is
    what makes per-class stores free. *)

type t = {
  bk_name : string;  (** display name, e.g. ["gpu"] / ["npu"] *)
  bk_kind : Mikpoly_accel.Hardware.kind;
  bk_fingerprint : string;
      (** {!Mikpoly_accel.Hardware.fingerprint} of the class hardware —
          the key for its kernel store / calibration artifacts *)
  bk_pes : int;  (** PEs per replica of this class *)
  bk_replicas : int;  (** replicas this class contributes to the fleet *)
  bk_engine : Mikpoly_serve.Scheduler.engine;
}

val kind_name : Mikpoly_accel.Hardware.kind -> string
(** ["gpu"] or ["npu"]. *)

val make :
  ?name:string ->
  hw:Mikpoly_accel.Hardware.t ->
  replicas:int ->
  Mikpoly_serve.Scheduler.engine ->
  t
(** [name] defaults to {!kind_name} of the hardware. Raises
    [Invalid_argument] when [replicas < 1]. *)
