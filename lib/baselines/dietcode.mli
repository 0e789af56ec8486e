(** DietCode model (paper Section 2.2, Figures 2 and 10, Table 5).

    DietCode improves static auto-scheduling by tuning a set of programs
    offline for a developer-declared range of each dynamic dimension, then
    picking a pre-compiled program at runtime. Consequences reproduced
    here: (a) it only supports GPU CUDA cores (Vector path, auto-scheduler
    grade codegen); (b) each program is a single-micro-kernel Pattern-I
    loop nest tuned for a sampled grid shape, so shapes between grid
    points run a mismatched kernel; (c) shapes outside the declared range
    are invalid runs. *)

type t

val create :
  Mikpoly_accel.Hardware.t -> m_range:int * int -> n_range:int * int ->
  k_range:int * int -> t
(** Offline stage: tune one program per grid point. The grid takes the
    powers of 4 inside each declared range, plus the range endpoints. *)

val num_programs : t -> int
(** Size of the pre-compiled program set. *)

val backend : t -> Backend.t

val in_range : t -> m:int -> n:int -> k:int -> bool
