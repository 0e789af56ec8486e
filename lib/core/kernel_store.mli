(** Persistence of the offline stage's product.

    The paper notes that generated micro-kernels are "compiled into binary
    files" and "do not require re-generation for the same operator on the
    same platform" (Section 4). This module saves a tuned kernel set — tile
    descriptors plus the breakpoints of each learned [g_predict] — to a
    versioned text file and restores it, so a deployment can ship the
    offline artifact instead of re-running auto-tuning. *)

val save : path:string -> Config.t -> Kernel_set.t -> unit
(** Write the set to [path] (overwrites). Crash-safe: the bytes go to a
    tempfile in the same directory, are flushed, and replace [path] with
    an atomic rename — a crash mid-write leaves the previous artifact
    intact. The header carries an FNV-1a checksum of the body, verified
    by {!load}. *)

val load :
  path:string -> Mikpoly_accel.Hardware.t -> Config.t ->
  (Kernel_set.t, string) result
(** Restore a set saved with {!save}. Fails (with a human-readable reason)
    if the file is malformed or was produced for a different platform,
    hardware configuration ({!Mikpoly_accel.Hardware.fingerprint} — a
    same-named device with different microarchitectural constants is
    rejected) or compiler configuration — stale artifacts must never be
    silently reused. A checksum mismatch (bit rot, truncation, a torn
    write from a pre-atomic-rename writer) is likewise rejected with a
    distinct reason, before the body is parsed. So is a body the
    compiler could not search: an empty set, a tile that cannot be
    resident on the device, or a non-finite number. *)

val load_or_create :
  path:string -> Mikpoly_accel.Hardware.t -> Config.t ->
  (Kernel_set.t, string) result
(** Use the artifact at [path] when it exists; only a missing [path] is
    tuned and saved. An existing artifact that {!load} rejects is never
    re-tuned over: its reason is returned and the file is left
    byte-identical, so a store another platform or an operator owns
    survives a misdirected run. *)
