(** Deterministic feature extractor for the learned candidate ranker.

    One candidate = one (problem shape, micro-kernel, hardware) triple —
    exactly the quantities a {!Mikpoly_core.Compiler} observation
    carries, so training and evaluation compute bit-identical vectors. All
    extensive quantities enter in log scale; hardware constants occupy a
    fixed suffix of the vector so models transfer across fingerprints
    through the shared shape/kernel prefix. *)

val schema_version : int

val names : string array
(** Feature names, index-aligned with {!of_candidate}'s result. *)

val dim : int

val shape_dim : int
(** Length of the hardware-independent prefix of the vector. *)

val schema_id : string
(** Versioned identity of the feature layout (version + checksum of
    {!names}); recorded in the ranking experiment's report. *)

val of_candidate :
  hw:Mikpoly_accel.Hardware.t -> m:int -> n:int -> k:int -> um:int ->
  un:int -> uk:int -> wave_capacity:int -> n_tasks:int -> pipe:float ->
  float array
(** Pure and total for positive dimensions; [pipe] is the kernel's
    Eq.-2 pipeline term for this reduction extent (raw, uncorrected). *)
