(** Fast non-cryptographic content checksums for on-disk artifacts.

    The kernel-set and calibration stores embed a checksum of their body
    in the header so a half-written or bit-flipped artifact is rejected
    instead of silently parsed. *)

val fnv1a64 : string -> int64
(** FNV-1a over the bytes of the string. *)

val fnv1a64_lines : string list -> int64
(** [fnv1a64 (String.concat "\n" lines)], without building the joined
    string. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits — the form stored in artifact headers. *)

val fnv1a64_hex : string -> string
(** [to_hex (fnv1a64 s)]. *)
