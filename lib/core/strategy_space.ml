(* Analytic strategy-space pruning (Vortex-style hierarchization): derive,
   per (kernel set, shape), which candidates are *hardware-valid and
   non-dominated* before anything is scored. Everything here is a sound
   under-approximation of the Eq.-2 cost — a pruned candidate provably
   cannot beat the incumbent, including on the tie-break — so the pruned
   and unpruned searches choose bit-identical programs
   ({!Selfcheck.check_prune} is the oracle for that claim). *)

let ceil_div a b = (a + b - 1) / b

(* ---- Wave-aligned cut derivation (hardware-valid tile hierarchies) ----

   Cut candidates along one axis for a pinned primary kernel: positions
   [q·tile] such that the primary strip of [q] tile rows fills exactly a
   whole number of waves (walked from the largest feasible strip down, the
   way the Section 6 case study carves 3072 of 4096 rows), plus the
   maximal full-tile cut. This is already a dominance filter among cuts:
   of all cuts landing inside the same wave count, only the largest
   survives — any smaller one has the same wave count for the primary
   strip but strictly more remainder work, so it can never win under the
   monotone Eq.-2 bound. *)
let rec walk_waves f acc ~tile ~tiles_other ~cap ~axis_len ~max_cuts ~count
    ~last w =
  if w < 1 then acc
  else begin
    let q = w * cap / tiles_other in
    if q < 1 then acc
    else begin
      (* The walk visits q values in non-increasing order, so a duplicate
         can only equal the most recent cut; [cut < axis_len] also keeps
         q within the full-tile count. *)
      let cut = q * tile in
      let added = cut < axis_len && cut < last in
      let acc = if added then f acc cut else acc in
      let count = if added then count + 1 else count in
      if count >= max_cuts then acc
      else
        (* The next wave boundary strictly below this strip's. *)
        walk_waves f acc ~tile ~tiles_other ~cap ~axis_len ~max_cuts ~count
          ~last:(if added then cut else last)
          (Int.min (w - 1) (ceil_div (q * tiles_other) cap - 1))
    end
  end

(* The one cut walk: [f] sees each cut of the axis in order, largest
   first. Lists and counts are both folds of it, and it allocates nothing
   of its own, so counting a skipped subtree's cuts is integer work. *)
let fold_axis_cuts style ~tile ~other_tile ~cap ~axis_len ~other_len ~max_cuts
    f acc =
  let q_full = axis_len / tile in
  if q_full < 1 then acc
  else begin
    let full = q_full * tile in
    let has_full = full < axis_len in
    let acc = if has_full then f acc full else acc in
    let count = if has_full then 1 else 0 in
    match style with
    | `Remainder_only -> acc
    | `Wave_aligned when count >= max_cuts -> acc
    | `Wave_aligned ->
      (* Walk wave boundaries downward from the maximal full-tile cut. *)
      let tiles_other = ceil_div other_len other_tile in
      walk_waves f acc ~tile ~tiles_other ~cap ~axis_len ~max_cuts ~count
        ~last:(if has_full then full else max_int)
        (ceil_div (q_full * tiles_other) cap - 1)
  end

let fold_row_cuts style (e : Kernel_set.entry) ~rows ~cols ~max_cuts f acc =
  fold_axis_cuts style ~tile:e.desc.um ~other_tile:e.desc.un
    ~cap:e.wave_capacity ~axis_len:rows ~other_len:cols ~max_cuts f acc

let fold_col_cuts style (e : Kernel_set.entry) ~rows ~cols ~max_cuts f acc =
  fold_axis_cuts style ~tile:e.desc.un ~other_tile:e.desc.um
    ~cap:e.wave_capacity ~axis_len:cols ~other_len:rows ~max_cuts f acc

let cons acc cut = cut :: acc

let succ acc _ = acc + 1

let row_cuts ?(style = `Wave_aligned) e ~rows ~cols ~max_cuts =
  List.rev (fold_row_cuts style e ~rows ~cols ~max_cuts cons [])

let col_cuts ?(style = `Wave_aligned) e ~rows ~cols ~max_cuts =
  List.rev (fold_col_cuts style e ~rows ~cols ~max_cuts cons [])

let row_cut_count style e ~rows ~cols ~max_cuts =
  fold_row_cuts style e ~rows ~cols ~max_cuts succ 0

let col_cut_count style e ~rows ~cols ~max_cuts =
  fold_col_cuts style e ~rows ~cols ~max_cuts succ 0

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
