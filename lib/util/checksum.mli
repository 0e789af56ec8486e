(** Fast non-cryptographic content checksums for on-disk artifacts.

    The kernel-set and calibration stores embed a checksum of their body
    in the header so a half-written or bit-flipped artifact is rejected
    instead of silently parsed. *)

val fnv1a64 : string -> int64
(** FNV-1a over the bytes of the string. *)

val fnv1a64_hex : string -> string
(** {!fnv1a64} rendered as 16 lowercase hex digits — the form stored in
    artifact headers. *)
