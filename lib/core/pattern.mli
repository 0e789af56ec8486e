(** Polymerization patterns (paper Section 3.4, Figure 5).

    A pattern divides the operator's online loops — equivalently its M×N
    output space — into regions, each to be covered by one micro-kernel.
    The paper derives nine representative patterns from a seven-block
    skeleton; we concretize them as the nine rectangle decompositions
    below. The GPU build uses only I and II (Section 4); the NPU uses all
    nine. *)

type t = I | II | III | IV | V | VI | VII | VIII | IX

val all : t list

val gpu_defaults : t list
(** [\[I; II\]]. *)

val npu_defaults : t list
(** All nine. *)

val to_string : t -> string

val arity : t -> int
(** Number of cut parameters the pattern takes: 0 for I, 1 for II/III,
    2 otherwise. *)

type rect = { row_off : int; col_off : int; rows : int; cols : int }

val decompose : t -> m:int -> n:int -> cuts:int list -> rect list option
(** [decompose p ~m ~n ~cuts] instantiates the pattern on an M×N output.
    [cuts] supplies [arity p] cut positions (row cuts first, then column
    cuts, both exclusive of the borders; for VII the two row cuts must be
    increasing, similarly VIII). Returns [None] when the cuts are
    degenerate for this output (e.g. out of range), otherwise the region
    rectangles, primary region first. The rectangles always partition the
    output exactly. *)
