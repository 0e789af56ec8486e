(* Analytic strategy-space pruning (Vortex-style hierarchization): derive,
   per (kernel set, shape), which candidates are *hardware-valid and
   non-dominated* before anything is scored. Everything here is a sound
   under-approximation of the Eq.-2 cost — a pruned candidate provably
   cannot beat the incumbent, including on the tie-break — so the pruned
   and unpruned searches choose bit-identical programs
   ({!Selfcheck.check_prune} is the oracle for that claim). *)

let ceil_div a b = (a + b - 1) / b

type style = [ `Wave_aligned | `Remainder_only ]

(* ---- Wave-aligned cut derivation (hardware-valid tile hierarchies) ----

   Cut candidates along one axis for a pinned primary kernel: positions
   [q·tile] such that the primary strip of [q] tile rows fills exactly a
   whole number of waves (largest strip first, the way the Section 6
   case study carves 3072 of 4096 rows), plus the maximal full-tile cut.
   This is already a dominance filter among cuts: of all cuts landing
   inside the same wave count, only the largest survives — any smaller
   one has the same wave count for the primary strip but strictly more
   remainder work, so it can never win under the monotone Eq.-2 bound.

   In closed form, for an axis of length [len] in tiles of [tile], with
   [tiles] tiles across the other axis and wave capacity [cap]: let
   q = ⌊len/tile⌋ (no cut when it is 0). The full cut q·tile comes first
   when it is interior (the remainder bit h = 1). Then, under
   [`Wave_aligned], with T = min(tiles, cap) and w0 = ⌈q·T/cap⌉ − 1, come
   the strips ⌊w·cap/T⌋·tile for w = w0, w0 − 1, …, 1: the largest strip
   that fits in w waves, for each wave count below the full strip's.
   When tiles ≥ cap a tile row adds at least a wave, so every strip
   q − 1, …, 1 is the largest of its own wave count, which is what T =
   cap gives (w0 = q − 1, strip w = w); when tiles < cap a wave adds at
   least a tile row, so every w ≥ 1 gives its own strip. Each strip is
   below q·tile ≤ len. At most [max_cuts] cuts come out, except that
   the full cut always does (so [max_cuts] 0 still yields it). *)

(* The number of wave strips, w0: q − 1 when T = cap, and 0 when
   [tiles] is 0. *)
let wave_strips ~q ~tiles ~cap =
  if tiles >= cap then q - 1 else Int.max 0 (ceil_div (q * tiles) cap - 1)

(* Strip [w] in tile rows: w itself when T = cap. *)
let strip ~w ~tiles ~cap = if tiles >= cap then w else w * cap / tiles

(* The cut count of an axis with q ≥ 1, remainder bit [h] and [w0]
   wave strips. *)
let count_of style ~h ~w0 ~max_cuts =
  match style with
  | `Remainder_only -> h
  | `Wave_aligned when h >= max_cuts -> h
  | `Wave_aligned -> Int.min max_cuts (h + w0)

let axis_count style ~tile ~tiles ~cap ~len ~max_cuts =
  let q = len / tile in
  if q < 1 then 0
  else
    count_of style
      ~h:(if q * tile < len then 1 else 0)
      ~w0:(wave_strips ~q ~tiles ~cap) ~max_cuts

(* Writes the axis's cuts, largest first, at [dst.(pos)] on, and returns
   how many. *)
let fill_axis style ~tile ~tiles ~cap ~len ~max_cuts dst ~pos =
  let q = len / tile in
  if q < 1 then 0
  else begin
    let h = if q * tile < len then 1 else 0 in
    let w0 = wave_strips ~q ~tiles ~cap in
    let count = count_of style ~h ~w0 ~max_cuts in
    if h = 1 then dst.(pos) <- q * tile;
    for j = h to count - 1 do
      dst.(pos + j) <- strip ~w:(w0 + h - j) ~tiles ~cap * tile
    done;
    count
  end

let row_tiles (e : Kernel_set.entry) ~cols = ceil_div cols e.desc.un

let col_tiles (e : Kernel_set.entry) ~rows = ceil_div rows e.desc.um

let row_cut_count style (e : Kernel_set.entry) ~rows ~cols ~max_cuts =
  axis_count style ~tile:e.desc.um ~tiles:(row_tiles e ~cols)
    ~cap:e.wave_capacity ~len:rows ~max_cuts

let col_cut_count style (e : Kernel_set.entry) ~rows ~cols ~max_cuts =
  axis_count style ~tile:e.desc.un ~tiles:(col_tiles e ~rows)
    ~cap:e.wave_capacity ~len:cols ~max_cuts

let fill_row_cuts style (e : Kernel_set.entry) ~rows ~cols ~max_cuts dst ~pos =
  fill_axis style ~tile:e.desc.um ~tiles:(row_tiles e ~cols)
    ~cap:e.wave_capacity ~len:rows ~max_cuts dst ~pos

let fill_col_cuts style (e : Kernel_set.entry) ~rows ~cols ~max_cuts dst ~pos =
  fill_axis style ~tile:e.desc.un ~tiles:(col_tiles e ~rows)
    ~cap:e.wave_capacity ~len:cols ~max_cuts dst ~pos

let cut_list fill ~max_cuts =
  let dst = Array.make (Int.max 1 max_cuts) 0 in
  List.init (fill dst ~pos:0) (Array.get dst)

let row_cuts ?(style = `Wave_aligned) e ~rows ~cols ~max_cuts =
  cut_list (fill_row_cuts style e ~rows ~cols ~max_cuts) ~max_cuts

let col_cuts ?(style = `Wave_aligned) e ~rows ~cols ~max_cuts =
  cut_list (fill_col_cuts style e ~rows ~cols ~max_cuts) ~max_cuts

(* ---- Two-cut counts as step functions ----

   A two-pin pattern cuts the rest of its pinned strip again with each
   secondary kernel, at most two cuts each. Within one search only one
   extent v of that rest moves with the first cut, and a kernel's count,
   min(2, h + w0), is a step function of it, since w0 = ⌈q·T/cap⌉ − 1
   grows with q and with T. Below [hi] the count is [v ≥ mid] plus the
   remainder bit; from [hi] on it is 2.
   - The cut axis moves (v its length, T fixed, [tile] > 0): w0 reaches 1
     at q1 = ⌊cap/T⌋ + 1 tiles and 2 at q2 = ⌊2·cap/T⌋ + 1, so mid =
     q1·tile and hi = q2·tile; the bit is v's remainder against [tile],
     0 up to v = tile (q1 ≥ 2 there).
   - The other axis moves (v its length, [tile] = 0): q and the bit [h]
     are fixed and T = min(⌈v/u⌉, cap), u its tile. w0 reaches 1 once
     ⌈v/u⌉ > ⌊cap/q⌋, i.e. v > ⌊cap/q⌋·u (q ≥ 2), and 2 once v >
     ⌊2·cap/q⌋·u (q ≥ 3); with h = 1 the count is 2 from the first on.
   [`Remainder_only] keeps the bit alone: [mid] and [hi] at [max_int]. *)
type step = { tile : int; h : int; mid : int; hi : int }

type steps = step array

let never = { tile = 0; h = 0; mid = max_int; hi = max_int }

let cut_axis_step style ~tile ~tiles ~cap =
  match style with
  | `Remainder_only -> { never with tile }
  | `Wave_aligned ->
    let at w = (strip ~w ~tiles ~cap + 1) * tile in
    { tile; h = 0; mid = at 1; hi = at 2 }

let other_axis_step style ~tile ~len ~other_tile ~cap =
  let q = len / tile in
  let h = if q >= 1 && q * tile < len then 1 else 0 in
  let above q_min w =
    if q >= q_min then (w * cap / q * other_tile) + 1 else max_int
  in
  match style with
  | `Remainder_only -> { never with h }
  | `Wave_aligned -> { tile = 0; h; mid = above 2 1; hi = above 3 2 }

let row_steps style es ~cols =
  Array.map
    (fun (e : Kernel_set.entry) ->
      cut_axis_step style ~tile:e.desc.um ~tiles:(row_tiles e ~cols)
        ~cap:e.wave_capacity)
    es

let col_steps style es ~rows =
  Array.map
    (fun (e : Kernel_set.entry) ->
      cut_axis_step style ~tile:e.desc.un ~tiles:(col_tiles e ~rows)
        ~cap:e.wave_capacity)
    es

let col_steps_over_rows style es ~cols =
  Array.map
    (fun (e : Kernel_set.entry) ->
      other_axis_step style ~tile:e.desc.un ~len:cols ~other_tile:e.desc.um
        ~cap:e.wave_capacity)
    es

let step_count (steps : steps) v =
  let c = ref 0 in
  for j = 0 to Array.length steps - 1 do
    let s = steps.(j) in
    c :=
      !c
      +
      if v >= s.hi then 2
      else
        (if v >= s.mid then 1 else 0)
        +
        if s.tile = 0 then s.h
        else if v > s.tile && v mod s.tile <> 0 then 1
        else 0
  done;
  !c

(* ---- Kernel dominance skeleton ----

   Entry [d] dominates entry [e] under Eq.-2 Full scoring when, for every
   region extent, [cost d <= cost e] *and* [d] wins any resulting tie.
   The shape-independent part: [um_d >= um_e] and [un_d >= un_e] give
   [d] no more tiles on any extent, [cap_d >= cap_e] then gives no more
   waves, and [rank_d < rank_e] settles ties (the search's total
   tie-break key orders equal costs by kernel rank, and the dominator's
   is strictly smaller). The K-dependent part — [f_pipe d <= f_pipe e] —
   is checked per K class by {!view}. [Polymerize] keeps one skeleton in
   each of its shared setup tables, so no search rebuilds it. *)
type skeleton = {
  sk_n : int;
  sk_dominators : int array array;
      (** for each entry index, the indices of its candidate dominators *)
}

let skeleton (set : Kernel_set.t) =
  let entries = set.entries in
  let n = Array.length entries in
  let sk_dominators =
    Array.init n (fun i ->
        let e = entries.(i) in
        let acc = ref [] in
        for j = n - 1 downto 0 do
          let d = entries.(j) in
          if
            j <> i && d.rank < e.rank && d.desc.um >= e.desc.um
            && d.desc.un >= e.desc.un
            && d.wave_capacity >= e.wave_capacity
          then acc := j :: !acc
        done;
        Array.of_list !acc)
  in
  { sk_n = n; sk_dominators }

(* ---- Per-K-class view: live mask and pipeline-depth floors ---- *)

type view = {
  live : bool array;
  min_pipe : float;  (** smallest [f_pipe] in the set for this K *)
  vol_rate : float;
      (** min over entries of [pipe / (um·un·cap)] — the best possible
          cycles-per-output-element rate any kernel can reach *)
  v_launch : float;  (** per-region launch term in cycles (0 if disabled) *)
}

let view sk (set : Kernel_set.t) ~pipe ~launch =
  if Array.length pipe <> sk.sk_n then
    invalid_arg "Strategy_space.view: pipe array does not match skeleton";
  let live = Array.make sk.sk_n true in
  for i = 0 to sk.sk_n - 1 do
    let doms = sk.sk_dominators.(i) in
    let j = ref 0 in
    while !j < Array.length doms && not (pipe.(doms.(!j)) <= pipe.(i)) do
      incr j
    done;
    if !j < Array.length doms then live.(i) <- false
  done;
  let min_pipe = ref infinity and vol_rate = ref infinity in
  for i = 0 to sk.sk_n - 1 do
    let e = set.entries.(i) in
    if pipe.(i) < !min_pipe then min_pipe := pipe.(i);
    let r =
      pipe.(i) /. float_of_int (e.desc.um * e.desc.un * e.wave_capacity)
    in
    if r < !vol_rate then vol_rate := r
  done;
  { live; min_pipe = !min_pipe; vol_rate = !vol_rate;
    v_launch = launch }

(* Pipeline-depth floor for a region: every kernel runs at least one wave
   (cost >= min_pipe) and needs at least [ceil(rows/um)·ceil(cols/un)/cap
   >= rows·cols/(um·un·cap)] waves of [pipe] cycles each (cost >=
   area·vol_rate). Both bounds hold for every kernel in the set, so their
   max plus the launch term lower-bounds the cost of the region under any
   fill — the quantity the search may add per unscored free region when
   deciding, before scoring, that a candidate cannot beat the bound. *)
let region_floor v ~icount ~rows ~cols =
  Float.max v.min_pipe
    (float_of_int icount *. float_of_int rows *. float_of_int cols
   *. v.vol_rate)
  +. v.v_launch

(* Subtree floor: the pinned prefix's exact cost plus [regions] free
   regions tiling a [rows×cols] rest. Summing {!region_floor} over the
   regions gives at least [regions·launch + max(regions·min_pipe,
   icount·rows·cols·vol_rate)], since a sum of maxima is at least the
   max of the sums and the areas add up to the rest; a pinned region's
   exact cost is at least its own floor ([⌈tasks/cap⌉·pipe >=
   area·vol_rate] and [pipe >= min_pipe]). So the value bounds every
   leaf gate of the subtree in real arithmetic. The gates add three or
   four non-negative terms, each rounded, so a computed gate may sit a
   few ulps below its real value: the floor is shaved by a relative
   1e-12, far above that rounding, and it is never larger than a leaf's
   computed gate. A negative pipeline prediction would break the
   non-negativity this relies on; the floor is then [neg_infinity] and
   never skips anything. *)
let subtree_floor v ~pinned ~icount ~regions ~rows ~cols =
  if v.min_pipe < 0. || v.v_launch < 0. || pinned < 0. then neg_infinity
  else begin
    let r = float_of_int regions in
    let b =
      pinned +. (r *. v.v_launch)
      +. Float.max (r *. v.min_pipe)
           (float_of_int icount *. float_of_int rows *. float_of_int cols
          *. v.vol_rate)
    in
    b -. (1e-12 *. b)
  end
