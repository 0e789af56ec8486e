(** Persistence of calibration profiles.

    Same artifact discipline as {!Mikpoly_core.Kernel_store}: a versioned
    text format with a magic line, the platform name and the full hardware
    {!Mikpoly_accel.Hardware.fingerprint} in the header, then one
    [kernel uM uN uK <curve>] line per calibrated kernel. A profile
    recorded on one hardware configuration is rejected — never silently
    loaded — for another, so a warm restart only starts calibrated when
    the calibration actually applies. *)

val magic : string
(** ["mikpoly-calibration v2"] — v2 added the body checksum. *)

val save : path:string -> Mikpoly_accel.Hardware.t -> Calibration.t -> unit
(** Write the profile to [path] (overwrites). Serialization is canonical:
    curves sorted by kernel key, [%.9g] floats — the same observations
    always produce byte-identical artifacts. Crash-safe: written to a
    same-directory tempfile and atomically renamed into place, with an
    FNV-1a body checksum in the header that {!load} verifies. *)

val load :
  path:string -> Mikpoly_accel.Hardware.t -> (Calibration.t, string) result
(** Restore a profile saved with {!save}. Fails with a human-readable
    reason if the file is malformed, version-bumped, corrupted (checksum
    mismatch), or was recorded on a different platform or hardware
    configuration. Also fails on a curve the fitter never produces: a
    non-finite number, or a non-positive [scale] or [affine] slope. *)
