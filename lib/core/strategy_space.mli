(** Analytic strategy-space pruning (hardware-aware hierarchization).

    The online search's candidate space is the product of patterns,
    primary kernels and wave-aligned cuts. Most of it can be ruled out
    analytically, before any candidate is scored, from three sound
    facts about the monotone Eq.-2 cost:

    - {b wave-capacity divisibility}: only cuts landing on wave
      boundaries of the pinned kernel can win ({!row_cuts} and
      {!col_cuts} — of all cuts inside one wave count, only the largest
      survives, since the smaller ones keep the primary strip's wave
      count and strictly grow the remainder);
    - {b kernel dominance}: a kernel whose tiles, wave capacity and
      pipeline cost are all no better than another's (and whose rank
      loses the tie-break) can never appear in a winning program
      ({!skeleton} + {!view});
    - {b pipeline-depth floors}: any region costs at least one wave of
      the cheapest pipeline, and at least its output volume at the best
      cycles-per-element rate in the set ({!region_floor}) — so a
      candidate whose pinned regions plus floored free regions already
      exceed an {e achievable} bound strictly can be skipped unscored.
      Summed over a whole subtree of the search ({!subtree_floor}: a
      split pattern, or a two-pin pattern's pinned first strip), the
      floors reject every leaf of the subtree with one comparison, and
      the search adds the subtree's leaf count to its tally instead of
      visiting the leaves: cut counts in closed form ({!fill_row_cuts}),
      and for the second cuts of a two-pin pattern a step function of
      the one extent the first cut moves ({!steps}).

    All three preserve the search's total tie-break order, so pruned
    and unpruned searches choose bit-identical programs
    ([Selfcheck.check_prune] verifies exactly that). The filters are
    only applied under the plain [Model Full] scorer: calibrated
    corrections and ablated objectives break the cross-kernel
    monotonicity the proofs lean on, and the simulator oracle is not
    Eq.-2 at all. *)

type style = [ `Wave_aligned | `Remainder_only ]

val row_cuts :
  ?style:style -> Kernel_set.entry -> rows:int -> cols:int -> max_cuts:int ->
  int list
(** Wave-aligned row cut candidates for a primary kernel on a
    [rows×cols] region, largest first. With q = ⌊rows/uM⌋ (no cut when
    0), T = min(⌈cols/uN⌉, cap) and w0 = ⌈q·T/cap⌉ − 1: the maximal
    full-tile cut q·uM when it is below [rows], then ⌊w·cap/T⌋·uM for
    w = w0, w0 − 1, …, 1 — for each wave count below the full strip's,
    the largest strip of [⌈cols/uN⌉]-tile rows that fits in it. At most
    [max_cuts] cuts, except that the full cut always comes out (even at
    [max_cuts] 0). [`Remainder_only] keeps just the full cut. *)

val col_cuts :
  ?style:style -> Kernel_set.entry -> rows:int -> cols:int -> max_cuts:int ->
  int list
(** {!row_cuts} on the column axis. *)

val row_cut_count :
  style -> Kernel_set.entry -> rows:int -> cols:int -> max_cuts:int -> int
(** [List.length (row_cuts ~style e ~rows ~cols ~max_cuts)] in closed
    form: 0 if q = 0, else h (the full cut's remainder bit) under
    [`Remainder_only] or when h ≥ [max_cuts], else
    [min max_cuts (h + w0)]. *)

val col_cut_count :
  style -> Kernel_set.entry -> rows:int -> cols:int -> max_cuts:int -> int
(** {!row_cut_count} on the column axis. *)

val fill_row_cuts :
  style -> Kernel_set.entry -> rows:int -> cols:int -> max_cuts:int ->
  int array -> pos:int -> int
(** Writes {!row_cuts} into the array from [pos] on and returns their
    count, without allocating. The array needs [max 1 max_cuts] free
    slots. *)

val fill_col_cuts :
  style -> Kernel_set.entry -> rows:int -> cols:int -> max_cuts:int ->
  int array -> pos:int -> int
(** {!fill_row_cuts} on the column axis. *)

type steps
(** The two-cut counts ([max_cuts] 2) of a set of kernels on a region
    one of whose extents varies, summed, as a step function of that
    extent: each kernel's count min(2, h + w0) is non-decreasing in q
    and in T, so it takes two thresholds, plus the remainder bit between
    them when the cut axis itself varies. Built in O(kernels), for a
    fixed extent of at least 1. *)

val row_steps : style -> Kernel_set.entry array -> cols:int -> steps
(** The sum over the kernels of
    [row_cut_count style e ~rows ~cols ~max_cuts:2], as a function of
    [rows]. *)

val col_steps : style -> Kernel_set.entry array -> rows:int -> steps
(** The sum over the kernels of
    [col_cut_count style e ~rows ~cols ~max_cuts:2], as a function of
    [cols]. *)

val col_steps_over_rows : style -> Kernel_set.entry array -> cols:int -> steps
(** The sum over the kernels of
    [col_cut_count style e ~rows ~cols ~max_cuts:2], as a function of
    [rows]. *)

val step_count : steps -> int -> int
(** The sum at an extent of at least 1, without allocating: per kernel
    one comparison from its upper threshold on, a few below it, and,
    for {!row_steps} and {!col_steps} between a kernel's two
    thresholds, one division. *)

type skeleton
(** The K-independent half of kernel dominance for one kernel set: for
    each entry, the entries with tiles, wave capacity {e and} rank all
    at least as good. *)

val skeleton : Kernel_set.t -> skeleton
(** Built afresh on each call, in O(entries²); [Polymerize] keeps one in
    each of its shared setup tables. *)

type view = {
  live : bool array;
      (** [live.(i)] — entry [i] is not dominated for this K and may
          appear in a winning program *)
  min_pipe : float;
  vol_rate : float;
  v_launch : float;
}

val view : skeleton -> Kernel_set.t -> pipe:float array -> launch:float -> view
(** Finish the dominance check with the per-entry [f_pipe] values of one
    reduction extent ([pipe.(i)] for entry [i]) and compute the floor
    ingredients. [launch] is the per-region launch term in cycles (0 when
    disabled). *)

val region_floor : view -> icount:int -> rows:int -> cols:int -> float
(** Sound lower bound on the Eq.-2 cost of a [rows×cols] region
    (with [icount] batched instances) under {e any} kernel in the set,
    launch term included. *)

val subtree_floor :
  view -> pinned:float -> icount:int -> regions:int -> rows:int -> cols:int ->
  float
(** Lower bound on every leaf gate of a subtree of the search: a pinned
    prefix of exact cost [pinned], plus [regions] regions of any kernels
    tiling the [rows×cols] rest, is at least [pinned + regions·launch +
    max(regions·min_pipe, icount·rows·cols·vol_rate)], the {!region_floor}s
    summed over the rest. A pinned region's exact cost is at least its own
    floor, so with [pinned = 0.] and the whole output this also bounds
    every leaf of a split pattern. The result is shaved by a relative
    1e-12, far above the rounding of the gates' three- or four-term float
    sums, so it never exceeds a leaf's {e computed} gate: when it
    strictly exceeds the incumbent, so does every leaf's gate, and the
    search may count the subtree's leaves as pruned without visiting
    them. [neg_infinity] (never skips) if a pipeline prediction, the
    launch term or [pinned] is negative. *)
