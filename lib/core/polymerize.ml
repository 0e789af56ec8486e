open Mikpoly_accel
open Mikpoly_ir
module Tm = Mikpoly_telemetry
module Dp = Mikpoly_util.Domain_pool

(* Always-on search metrics; one increment/observation per polymerization,
   negligible next to the search itself. *)
let m_searches = Tm.Metrics.counter "polymerize.searches"

let m_candidates =
  Tm.Metrics.histogram "polymerize.candidates"
    ~buckets:[| 10.; 100.; 1_000.; 10_000.; 100_000. |]

let m_search_s =
  Tm.Metrics.histogram "polymerize.search_seconds"
    ~buckets:[| 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1. |]

(* Prune accounting, split by mechanism: [pruned_analytic] candidates were
   ruled out by [Strategy_space] before scoring (dominated kernel, or
   pinned cost + region floors already past the bound); [pruned_bound]
   candidates started scoring and were cut by the running Eq.-2 partial
   sum. *)
let m_pruned_analytic = Tm.Metrics.counter "polymerize.pruned_analytic"

let m_pruned_bound = Tm.Metrics.counter "polymerize.pruned_bound"

let m_batches = Tm.Metrics.counter "polymerize.batches"

type scorer =
  | Model of Cost_model.objective
  | Calibrated of (Kernel_set.entry -> float -> float)
  | Simulate

type compiled = {
  program : Program.t;
  predicted_cost : float;
  pattern : Pattern.t;
  candidates : int;
  pruned : int;
  pruned_analytic : int;
  search_seconds : float;
  first_hit : int;
}

let ceil_div a b = (a + b - 1) / b

let dispatch_seconds = 0.5e-6

let per_candidate_seconds = 15e-9

let modeled_search_seconds (c : compiled) =
  dispatch_seconds +. (per_candidate_seconds *. float_of_int c.candidates)

(* A winning strategy is remembered as (pattern, cuts, pinned kernels);
   the program is only materialized for the winner. Pins cover the
   pattern's regions in order; missing trailing pins are resolved with the
   memoized best single kernel for that region. *)
type choice = {
  c_pattern : Pattern.t;
  c_cuts : int list;
  c_pins : Kernel_set.entry list;
  c_fill : Kernel_set.entry option;  (** oracle: uniform fill for free slots *)
}

(* Total order on equal-cost candidates: (pattern, cuts, pinned kernel
   ranks, fill rank), each compared lexicographically. The search keeps
   the smallest (cost, key), so the winner is independent of enumeration
   order. *)
let rec compare_lex cmp a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
    let c = cmp x y in
    if c <> 0 then c else compare_lex cmp xs ys

let pattern_index : Pattern.t -> int = function
  | I -> 0 | II -> 1 | III -> 2 | IV -> 3 | V -> 4 | VI -> 5 | VII -> 6
  | VIII -> 7 | IX -> 8

let by_rank (a : Kernel_set.entry) (b : Kernel_set.entry) = Int.compare a.rank b.rank

let fill_rank = function Some (e : Kernel_set.entry) -> e.rank | None -> -1

let key_less (a : choice) (b : choice) =
  let c = Int.compare (pattern_index a.c_pattern) (pattern_index b.c_pattern) in
  let c = if c <> 0 then c else compare_lex Int.compare a.c_cuts b.c_cuts in
  let c = if c <> 0 then c else compare_lex by_rank a.c_pins b.c_pins in
  let c = if c <> 0 then c else Int.compare (fill_rank a.c_fill) (fill_rank b.c_fill) in
  c < 0

(* Indices of the [k] smallest [costs] in (cost, index) order: insertion
   into a sorted prefix, so picking 12 of 40 never sorts the other 28. *)
let smallest k (costs : float array) =
  let k = Int.min k (Array.length costs) in
  let top = Array.make k 0 and top_cost = Array.make k infinity in
  let len = ref 0 in
  for i = 0 to Array.length costs - 1 do
    let c = costs.(i) in
    if !len < k || c < top_cost.(k - 1) then begin
      let j = ref (Int.min !len (k - 1)) in
      while !j > 0 && top_cost.(!j - 1) > c do
        top.(!j) <- top.(!j - 1);
        top_cost.(!j) <- top_cost.(!j - 1);
        decr j
      done;
      top.(!j) <- i;
      top_cost.(!j) <- c;
      if !len < k then incr len
    end
  done;
  top

(* Every primary's cuts on one axis of the shape, in one array: for [n]
   primaries, primary [i]'s cut count is [cuts.(i)] and its cuts follow
   from [cuts.(n + i·stride)] on, largest first. The distinct values
   among them, each with how many primaries cut there, are [uniq] and
   [mult] up to [distinct], filled when a skipped two-pin pattern first
   counts its leaves ([distinct] is -1 until then): primaries share
   cuts, so the count runs over a few values, not over every (primary,
   cut) pair. *)
type axis_cuts = {
  cuts : int array;
  mutable distinct : int;
  mutable uniq : int array;
  mutable mult : int array;
}

let no_cuts = { cuts = [||]; distinct = 0; uniq = [||]; mult = [||] }

let fill_distinct (c : axis_cuts) ~n ~stride =
  let uniq = Array.make (n * stride) 0 and mult = Array.make (n * stride) 0 in
  let size = ref 0 in
  for i = 0 to n - 1 do
    for j = n + (i * stride) to n + (i * stride) + c.cuts.(i) - 1 do
      let a = c.cuts.(j) in
      let u = ref 0 in
      while !u < !size && uniq.(!u) <> a do
        incr u
      done;
      if !u < !size then mult.(!u) <- mult.(!u) + 1
      else begin
        uniq.(!size) <- a;
        mult.(!size) <- 1;
        incr size
      end
    done
  done;
  c.uniq <- uniq;
  c.mult <- mult;
  c.distinct <- !size

(* The branch-and-bound state. Both fields are floats, so the record is
   stored flat and updating it never allocates. *)
type incumbent = {
  mutable bound : float;
      (** the lowest achievable cost known so far (seeded with the best
          Pattern-I cost under analytic pruning) *)
  mutable best_cost : float;  (** the recorded winner's cost *)
}

let regions : Pattern.t -> int = function
  | I -> 1
  | II | III -> 2
  | IV -> 4
  | V | VI | VII | VIII | IX -> 3

(* Algorithm 1's heuristic narrowing: how many kernels, best Pattern-I
   cost first, a split pattern tries as its primary kernel and as the
   pinned second kernel of the two-cut Patterns VII-IX. *)
let primary_kernels = 12

let secondary_kernels = 8

(* The half of a search that depends on the shape only through its
   reduction extent K, and on K only through its class ⌈K/g⌉ (below).
   Immutable once built, so every search of the class shares one. *)
type setup = {
  launch : float;
      (** Every region is a separate kernel launch on the device; charging
          it in the search keeps tiny operators on single-region programs
          (the overhead-consciousness that leads the paper to restrict GPU
          pattern use, Section 4). Cycles; 0 when disabled. *)
  analytic : bool;
      (** Analytic pre-pruning (Strategy_space). Sound only under the plain
          Eq.-2 Full objective: calibrated corrections are arbitrary
          per-kernel functions that break cross-kernel dominance, the
          ablated objectives reorder costs, and simulator cycles are not
          Eq.-2 costs at all. All three filters preserve the total
          tie-break order, so the chosen program is bit-identical with
          pruning on or off ([Selfcheck.check_prune] is the oracle). *)
  pipe : float array;
      (** Each kernel's f_pipe = g_predict(⌈K/uK⌉), a constant for the
          whole compile: precomputed so per-candidate scoring stays
          allocation-free. *)
  view : Strategy_space.view option;  (** [Some] exactly when [analytic] *)
}

(* The shared setup tables. With g the gcd of a set's uK values,
   ⌈K/uK⌉ = ⌈⌈K/g⌉ / (uK/g)⌉, so a setup depends on K only through the
   class c = ⌈K/g⌉. One table per (entries, launch, analytic) holds the
   setup of each class up to [table_classes], built on first use from the
   class's largest K (c·g) and published through its slot's [Atomic]:
   domains that race on a slot build identical values, and either may
   stay. Classes past the range are built per search. The table also
   holds the set's dominance skeleton and the distinct live masks of its
   views: the classes of a tuned set share a few dozen at most, so a
   slot points at its mask instead of holding a copy. At most
   [max_tables] tables are kept, newest first; an older one is dropped,
   so tables of cleared, reloaded or fresh safe-generic sets never pile
   up.

   512 classes cover K up to 8 192 at g = 16, 90 % of log-uniform K in
   [16, 16 384]. Doubling the range served the last 10 % too, but its
   extra 0.24 MiB of slots, promoted while the compiles run, lifted
   compile-cold-gpu's peak heap in [bench/perf] from about 13.2 to 15 MiB
   on a 2-core x86 VM. *)
let table_classes = 512

let max_tables = 8

type table = {
  t_entries : Kernel_set.entry array;
  t_launch : float;
  t_analytic : bool;
  g : int;
  skeleton : Strategy_space.skeleton option;  (** [Some] exactly when analytic *)
  masks : bool array list Atomic.t;
  slots : setup Atomic.t array;  (** class [c] at [c - 1]; [unfilled] until used *)
}

let unfilled = { launch = nan; analytic = false; pipe = [||]; view = None }

let tables : table list Atomic.t = Atomic.make []

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let rec intern masks live =
  let known = Atomic.get masks in
  match List.find_opt (fun m -> m = live) known with
  | Some m -> m
  | None ->
    if Atomic.compare_and_set masks known (live :: known) then live
    else intern masks live

(* A setup for reduction extent [k]; [kept] when it goes into a slot,
   whose view then shares the table's copy of its live mask. *)
let build t (set : Kernel_set.t) ~kept ~k =
  let pipe = Array.map (fun e -> Cost_model.f_pipe e ~k_len:k) set.entries in
  let view =
    match t.skeleton with
    | None -> None
    | Some sk ->
      let v = Strategy_space.view sk set ~pipe ~launch:t.t_launch in
      if kept then Some { v with live = intern t.masks v.live } else Some v
  in
  { launch = t.t_launch; analytic = t.t_analytic; pipe; view }

let rec table_in entries launch analytic = function
  | [] -> raise_notrace Not_found
  | t :: rest ->
    if t.t_entries == entries && t.t_analytic = analytic
       && Float.equal t.t_launch launch
    then t
    else table_in entries launch analytic rest

let rec table_for (set : Kernel_set.t) ~launch ~analytic =
  let known = Atomic.get tables in
  match table_in set.entries launch analytic known with
  | t -> t
  | exception Not_found ->
    let t =
      {
        t_entries = set.entries;
        t_launch = launch;
        t_analytic = analytic;
        g =
          Array.fold_left
            (fun g (e : Kernel_set.entry) -> gcd e.desc.uk g)
            0 set.entries;
        skeleton = (if analytic then Some (Strategy_space.skeleton set) else None);
        masks = Atomic.make [];
        slots = Array.init table_classes (fun _ -> Atomic.make unfilled);
      }
    in
    let kept = List.filteri (fun i _ -> i < max_tables - 1) known in
    if Atomic.compare_and_set tables known (t :: kept) then t
    else table_for set ~launch ~analytic

(* The one owner of a search's setup: the shared table's slot for K's
   class, filled on first use. *)
let setup ~scorer (set : Kernel_set.t) (config : Config.t) ~k =
  if Array.length set.entries = 0 then
    invalid_arg "Polymerize: empty kernel set";
  let launch =
    if config.search_launch_term then
      set.hw.Hardware.launch_overhead_s *. set.hw.clock_hz
    else 0.
  in
  let analytic =
    config.analytic_prune
    && (match scorer with Model Cost_model.Full -> true | _ -> false)
  in
  let t = table_for set ~launch ~analytic in
  let c = ((k - 1) / t.g) + 1 in
  if c < 1 || c > table_classes then build t set ~kept:false ~k
  else begin
    let slot = t.slots.(c - 1) in
    let s = Atomic.get slot in
    if s != unfilled then s
    else begin
      let s = build t set ~kept:true ~k:(c * t.g) in
      Atomic.set slot s;
      s
    end
  end

let search_setup set config ~k =
  let s = setup ~scorer:(Model Cost_model.Full) set config ~k in
  (s.pipe, s.view)

let search ~scorer ~tracing (set : Kernel_set.t) (config : Config.t) op =
  let t0 = Unix.gettimeofday () in
  let m, n, k = Operator.gemm_shape op in
  let { launch; analytic; pipe; view } = setup ~scorer set config ~k in
  let entries = set.entries in
  let n_entries = Array.length entries in
  let objective =
    match scorer with
    | Model o -> o
    | Calibrated _ | Simulate -> Cost_model.Full
  in
  let oracle = match scorer with Simulate -> true | Model _ | Calibrated _ -> false in
  (* Per-kernel multiplicative/affine correction learned online; clamped
     non-negative so region-order pruning against the monotone bound stays
     sound. None for the uncalibrated model. *)
  let correction =
    match scorer with Calibrated f -> Some f | Model _ | Simulate -> None
  in
  let icount = Operator.instance_count op in
  let rcost_dims (e : Kernel_set.entry) rows cols =
    let tasks = icount * (ceil_div rows e.desc.um * ceil_div cols e.desc.un) in
    let wave = float_of_int (ceil_div tasks e.wave_capacity) in
    let p = pipe.(e.rank) in
    match objective with
    | Cost_model.Full -> (
      match correction with
      | None -> (wave *. p) +. launch
      | Some f -> Float.max 0. (f e (wave *. p)) +. launch)
    | Cost_model.Wave_only ->
      let padded =
        float_of_int tasks
        *. float_of_int (ceil_div k e.desc.uk)
        *. Kernel_desc.flops e.desc
      in
      (wave *. 1e18) +. padded +. launch
    | Cost_model.Pipe_only -> p +. launch
  in
  (* Heuristic narrowing (Algorithm 1): only the kernels whose Pattern-I
     cost for this shape ranks best are tried as primary/secondary kernels
     of split patterns — a kernel hopeless on its own never anchors a
     region. The per-entry costs are kept: they are exactly the Pattern-I
     candidate scores, so the enumeration below never recomputes them and
     the analytic pruner can seed its bound with the best one. *)
  let p1 = Array.map (fun e -> rcost_dims e m n) entries in
  let by_p1 = smallest primary_kernels p1 in
  let primaries = Array.map (fun i -> entries.(i)) by_p1 in
  let secondaries =
    Array.sub primaries 0 (Int.min secondary_kernels (Array.length primaries))
  in
  (* Branch-and-bound state: the lowest full-candidate cost found so far.
     Monotonically non-increasing, so pruning a partial sum that strictly
     exceeds it can never discard a candidate tying the eventual minimum
     — the winner and its tie-break do not depend on visitation order. *)
  let st = { bound = infinity; best_cost = infinity } in
  let lower_bound c = if c < st.bound then st.bound <- c in
  let live =
    match view with Some v -> v.live | None -> Array.make n_entries true
  in
  let floor_cost rows cols =
    match view with
    | Some v -> Strategy_space.region_floor v ~icount ~rows ~cols
    | None -> 0.
  in
  (* Seed the bound with the best Pattern-I candidate. That cost is
     achievable — [pattern_one] records it — so strict-(>) pruning against
     it can never discard the winner or an exact tie. Only valid when
     Pattern I is actually explored. *)
  if analytic && List.mem Pattern.I config.patterns then
    lower_bound p1.(by_p1.(0));
  (* Best single kernel for a free region, memoized per extent. Dominated
     entries are skipped: the dominator costs no more and sits at a lower
     index, so the lowest-index argmin is unchanged — entry 0 (rank 0) is
     always live, so the scan never comes up empty. *)
  let memo = Hashtbl.create 64 in
  let best_single rows cols =
    let key = (rows * (n + 1)) + cols in
    match Hashtbl.find memo key with
    | hit -> hit
    | exception Not_found ->
      let best_i = ref 0 and best_c = ref infinity in
      for i = 0 to n_entries - 1 do
        if live.(i) then begin
          let c = rcost_dims entries.(i) rows cols in
          if c < !best_c then begin
            best_c := c;
            best_i := i
          end
        end
      done;
      let hit = (entries.(!best_i), !best_c) in
      Hashtbl.add memo key hit;
      hit
  in
  (* The search tallies. [best] is the recorded choice with the smallest
     (cost, tie key); [first_hit] is the [candidates] count at the moment
     it was first recorded. [pruned_a] counts candidates skipped unscored
     by the analytic filters, [pruned] those cut mid-scoring by the
     bound. *)
  let best = ref None in
  let candidates = ref 0 and pruned = ref 0 and pruned_a = ref 0 in
  let first_hit = ref 0 in
  (* Recording a candidate lowers the bound; its choice is built and its
     tie key compared only when [can_win] says its cost is at most the
     winner's. *)
  let can_win cost =
    lower_bound cost;
    match !best with None -> true | Some _ -> cost <= st.best_cost
  in
  let offer cost (ch : choice) =
    match !best with
    | Some b when not (cost < st.best_cost || key_less ch b) -> ()
    | _ ->
      best := Some ch;
      st.best_cost <- cost;
      first_hit := !candidates
  in
  (* Resolve a choice into concrete (rect, kernel) pairs. *)
  let resolve (ch : choice) =
    match Pattern.decompose ch.c_pattern ~m ~n ~cuts:ch.c_cuts with
    | None -> None
    | Some rects ->
      let rec zip rects pins =
        match (rects, pins) with
        | [], _ -> []
        | (r : Pattern.rect) :: rs, [] ->
          let e =
            match ch.c_fill with
            | Some e -> e
            | None -> fst (best_single r.rows r.cols)
          in
          (r, e) :: zip rs []
        | r :: rs, p :: ps -> (r, p) :: zip rs ps
      in
      Some (zip rects ch.c_pins)
  in
  let choice pattern cuts pins fill =
    { c_pattern = pattern; c_cuts = cuts; c_pins = pins; c_fill = fill }
  in
  (* Extents of the split leaf being scored under the model, in
     [Pattern.decompose]'s region order. A leaf is gated and scored from
     its two cut positions alone; only a candidate that can win becomes a
     [choice], and only the winner becomes rectangles. *)
  let leaf_rows = Array.make 4 0 and leaf_cols = Array.make 4 0 in
  let set_extents (p : Pattern.t) a b =
    match p with
    | IV ->
      leaf_rows.(0) <- a; leaf_cols.(0) <- b;
      leaf_rows.(1) <- a; leaf_cols.(1) <- n - b;
      leaf_rows.(2) <- m - a; leaf_cols.(2) <- b;
      leaf_rows.(3) <- m - a; leaf_cols.(3) <- n - b
    | V ->
      leaf_rows.(0) <- a; leaf_cols.(0) <- b;
      leaf_rows.(1) <- a; leaf_cols.(1) <- n - b;
      leaf_rows.(2) <- m - a; leaf_cols.(2) <- n
    | VI ->
      leaf_rows.(0) <- a; leaf_cols.(0) <- b;
      leaf_rows.(1) <- m; leaf_cols.(1) <- n - b;
      leaf_rows.(2) <- m - a; leaf_cols.(2) <- b
    | VII ->
      leaf_rows.(0) <- a; leaf_cols.(0) <- n;
      leaf_rows.(1) <- b - a; leaf_cols.(1) <- n;
      leaf_rows.(2) <- m - b; leaf_cols.(2) <- n
    | VIII ->
      leaf_rows.(0) <- m; leaf_cols.(0) <- a;
      leaf_rows.(1) <- m; leaf_cols.(1) <- b - a;
      leaf_rows.(2) <- m; leaf_cols.(2) <- n - b
    | IX ->
      leaf_rows.(0) <- a; leaf_cols.(0) <- n;
      leaf_rows.(1) <- m - a; leaf_cols.(1) <- b;
      leaf_rows.(2) <- m - a; leaf_cols.(2) <- n - b
    | I | II | III -> invalid_arg "Polymerize: not a two-cut pattern"
  in
  (* Model scoring of a two-cut leaf: its first [pins] regions are pinned
     to [e1] (and [e2]), the rest are free. Region-order pruning against
     the bound is strict (>): a partial sum equal to the incumbent may
     still win the tie-break.

     Analytic gate (before the candidate is counted or any free region
     resolved): pinned regions at their exact cost plus free regions at
     their pipeline-depth floor already lower-bound the candidate, so
     strictly exceeding the achievable bound proves it cannot win — the
     expensive best-single scans for the free regions never happen. *)
  let split_leaf (p : Pattern.t) a b ~pins e1 e2 =
    set_extents p a b;
    let regions = regions p in
    let gated =
      analytic
      &&
      let lb = ref 0. in
      for i = 0 to regions - 1 do
        lb :=
          !lb
          +.
          if i < pins then
            rcost_dims (if i = 0 then e1 else e2) leaf_rows.(i) leaf_cols.(i)
          else floor_cost leaf_rows.(i) leaf_cols.(i)
      done;
      !lb > st.bound
    in
    if gated then incr pruned_a
    else begin
      incr candidates;
      let limit = st.bound in
      let acc = ref 0. and i = ref 0 and over = ref false in
      while (not !over) && !i < regions do
        let r = !i in
        acc :=
          !acc
          +.
          if r < pins then
            rcost_dims (if r = 0 then e1 else e2) leaf_rows.(r) leaf_cols.(r)
          else snd (best_single leaf_rows.(r) leaf_cols.(r));
        if !acc > limit then over := true;
        incr i
      done;
      if !over then incr pruned
      else if can_win !acc then
        offer !acc
          (choice p [ a; b ] (if pins = 1 then [ e1 ] else [ e1; e2 ]) None)
    end
  in
  let score_choice_simulate (ch : choice) =
    match resolve ch with
    | None -> ()
    | Some assignment ->
      incr candidates;
      let regions =
        List.map
          (fun ((r : Pattern.rect), (e : Kernel_set.entry)) ->
            Load.region ~kernel:e.desc
              ~n_tasks:(icount * Load.tiles e.desc ~rows:r.rows ~cols:r.cols)
              ~t_steps:(Load.k_steps e.desc ~k))
          assignment
      in
      let load =
        Load.make ~regions ~footprint_bytes:(Operator.footprint_bytes op)
      in
      let cycles = (Simulator.run set.hw load).cycles in
      if can_win cycles then offer cycles ch
  in
  (* Under the oracle, a choice with free slots is enumerated once with
     its free regions resolved and once per secondary kernel as a uniform
     fill. *)
  let simulate_free pattern cuts pins =
    score_choice_simulate (choice pattern cuts pins None);
    Array.iter
      (fun e -> score_choice_simulate (choice pattern cuts pins (Some e)))
      secondaries
  in
  let split p a b ~pins e1 e2 =
    if oracle then simulate_free p [ a; b ] (if pins = 1 then [ e1 ] else [ e1; e2 ])
    else split_leaf p a b ~pins e1 e2
  in
  (* Pattern I scores are the precomputed [p1]. Under the analytic pruner
     only live entries whose precomputed cost can still matter are
     counted: a dominated entry loses to its dominator including the
     tie-break, and an entry strictly above the achievable bound cannot
     win — both skips keep the recorded winner identical. *)
  let pattern_one () =
    if not oracle then
      for i = 0 to n_entries - 1 do
        if analytic && ((not live.(i)) || p1.(i) > st.bound) then incr pruned_a
        else begin
          incr candidates;
          if can_win p1.(i) then offer p1.(i) (choice I [] [ entries.(i) ] None)
        end
      done
    else
      Array.iter (fun e -> score_choice_simulate (choice I [] [ e ] None)) entries
  in
  (* Each primary's cuts, in closed form, for one axis at a time: filled
     for every primary when a pattern first needs the axis, and shared by
     every pattern that pins it. *)
  let n_prim = Array.length primaries in
  let style = config.cut_style and max_cuts = config.max_cuts in
  let stride = Int.max 1 max_cuts in
  let fill_axis fill =
    let cuts = Array.make (n_prim * (stride + 1)) 0 in
    for i = 0 to n_prim - 1 do
      cuts.(i) <-
        fill style primaries.(i) ~rows:m ~cols:n ~max_cuts cuts
          ~pos:(n_prim + (i * stride))
    done;
    { cuts; distinct = -1; uniq = [||]; mult = [||] }
  in
  let row_cuts = ref no_cuts and col_cuts = ref no_cuts in
  let rows_cut () =
    if !row_cuts == no_cuts then
      row_cuts := fill_axis Strategy_space.fill_row_cuts;
    !row_cuts
  in
  let cols_cut () =
    if !col_cuts == no_cuts then
      col_cuts := fill_axis Strategy_space.fill_col_cuts;
    !col_cuts
  in
  (* [f] on each cut of primary [i]. *)
  let each_cut (c : axis_cuts) i f =
    let first = n_prim + (i * stride) in
    for j = first to first + c.cuts.(i) - 1 do
      f c.cuts.(j)
    done
  in
  let pattern_two i =
    let e1 = primaries.(i) in
    each_cut (rows_cut ()) i (fun r ->
        if oracle then simulate_free II [ r ] [ e1 ]
        else
          let c1 = rcost_dims e1 r n in
          if analytic && c1 +. floor_cost (m - r) n > st.bound then incr pruned_a
          else begin
            incr candidates;
            if c1 > st.bound then incr pruned
            else begin
              let e2, c2 = best_single (m - r) n in
              if can_win (c1 +. c2) then
                offer (c1 +. c2) (choice II [ r ] [ e1; e2 ] None)
            end
          end)
  in
  let pattern_three i =
    let e1 = primaries.(i) in
    each_cut (cols_cut ()) i (fun c ->
        if oracle then simulate_free III [ c ] [ e1 ]
        else
          let c1 = rcost_dims e1 m c in
          if analytic && c1 +. floor_cost m (n - c) > st.bound then incr pruned_a
          else begin
            incr candidates;
            if c1 > st.bound then incr pruned
            else begin
              let e2, c2 = best_single m (n - c) in
              if can_win (c1 +. c2) then
                offer (c1 +. c2) (choice III [ c ] [ e1; e2 ] None)
            end
          end)
  in
  (* Subtree bounds (analytic search only). A subtree is a pinned prefix
     of exact cost [pinned] plus [regions] regions tiling a [rows×cols]
     rest; when its floor strictly exceeds the incumbent, every leaf in it
     fails its gate, and no leaf records anything, so the bound stays put
     while the search counts the leaves instead of visiting them. *)
  let subtree_loses ~pinned ~regions ~rows ~cols =
    match view with
    | Some v ->
      Strategy_space.subtree_floor v ~pinned ~icount ~regions ~rows ~cols
      > st.bound
    | None -> false
  in
  (* The strip a two-pin pattern pins to its primary at first cut [a],
     and the rest its second kernel and free region share. *)
  let strip_rows (p : Pattern.t) a = match p with VIII -> m | _ -> a in
  let strip_cols (p : Pattern.t) a = match p with VIII -> a | _ -> n in
  let rest_rows (p : Pattern.t) a = match p with VIII -> m | _ -> m - a in
  let rest_cols (p : Pattern.t) a = match p with VIII -> n - a | _ -> n in
  let first_axis (p : Pattern.t) =
    match p with VIII -> cols_cut () | _ -> rows_cut ()
  in
  (* The secondaries' second-cut counts on the rest, summed, as a step
     function of the one rest extent the first cut moves: Pattern VII
     cuts the rest's rows, VIII its columns, and IX its columns across
     the rest's rows. Built when a pattern first counts a skipped
     subtree. *)
  let steps = [| None; None; None |] in
  let subtree_leaves (p : Pattern.t) a =
    let slot = match p with VII -> 0 | VIII -> 1 | _ -> 2 in
    let s =
      match steps.(slot) with
      | Some s -> s
      | None ->
        let s =
          match p with
          | VII -> Strategy_space.row_steps style secondaries ~cols:n
          | VIII -> Strategy_space.col_steps style secondaries ~rows:m
          | _ -> Strategy_space.col_steps_over_rows style secondaries ~cols:n
        in
        steps.(slot) <- Some s;
        s
    in
    Strategy_space.step_count s (match p with VIII -> n - a | _ -> m - a)
  in
  let second = [| 0; 0 |] in
  let two_pin (p : Pattern.t) i =
    let e1 = primaries.(i) in
    each_cut (first_axis p) i (fun a ->
        let rows = rest_rows p a and cols = rest_cols p a in
        if
          analytic
          && subtree_loses
               ~pinned:(rcost_dims e1 (strip_rows p a) (strip_cols p a))
               ~regions:2 ~rows ~cols
        then pruned_a := !pruned_a + subtree_leaves p a
        else
          for j = 0 to Array.length secondaries - 1 do
            let e2 = secondaries.(j) in
            let count =
              match p with
              | VII ->
                Strategy_space.fill_row_cuts style e2 ~rows ~cols ~max_cuts:2
                  second ~pos:0
              | _ ->
                Strategy_space.fill_col_cuts style e2 ~rows ~cols ~max_cuts:2
                  second ~pos:0
            in
            for l = 0 to count - 1 do
              (* VII and VIII cut the rest after the strip; IX cuts the
                 bottom band's columns from the left edge. *)
              let b = second.(l) in
              split p a (match p with IX -> b | _ -> a + b) ~pins:2 e1 e2
            done
          done)
  in
  (* Leaves of a whole split pattern, for when its bound skips it. *)
  let over_primaries f =
    let total = ref 0 in
    for i = 0 to n_prim - 1 do
      total := !total + f i
    done;
    !total
  in
  let pattern_leaves (p : Pattern.t) =
    match p with
    | II -> over_primaries (fun i -> (rows_cut ()).cuts.(i))
    | III -> over_primaries (fun i -> (cols_cut ()).cuts.(i))
    | IV | V | VI ->
      let rc = rows_cut () and cc = cols_cut () in
      over_primaries (fun i -> rc.cuts.(i) * cc.cuts.(i))
    | I -> 0
    | VII | VIII | IX ->
      let fc = first_axis p in
      if fc.distinct < 0 then fill_distinct fc ~n:n_prim ~stride;
      let total = ref 0 in
      for u = 0 to fc.distinct - 1 do
        total := !total + (fc.mult.(u) * subtree_leaves p fc.uniq.(u))
      done;
      !total
  in
  (* Patterns run in configuration order, each over its primaries in
     Pattern-I cost order. The pool's grain is whole shapes
     ({!search_batch}), never parts of one search, so the bound's
     evolution and with it every tally is deterministic. *)
  let explore (p : Pattern.t) =
    let each f = for i = 0 to n_prim - 1 do f i done in
    let skipped () = subtree_loses ~pinned:0. ~regions:(regions p) ~rows:m ~cols:n in
    match p with
    | I -> pattern_one ()
    | _ when skipped () -> pruned_a := !pruned_a + pattern_leaves p
    | II -> each pattern_two
    | III -> each pattern_three
    | IV | V | VI ->
      each (fun i ->
          let e1 = primaries.(i) in
          let cc = cols_cut () in
          each_cut (rows_cut ()) i (fun r ->
              each_cut cc i (fun c -> split p r c ~pins:1 e1 e1)))
    | VII | VIII | IX -> each (two_pin p)
  in
  let explore_traced (p : Pattern.t) =
    Tm.Tracer.with_span ("polymerize.pattern." ^ Pattern.to_string p)
      (fun () ->
        let c0 = !candidates and p0 = !pruned and a0 = !pruned_a in
        explore p;
        Tm.Tracer.annotate "candidates" (string_of_int (!candidates - c0));
        Tm.Tracer.annotate "pruned" (string_of_int (!pruned - p0));
        Tm.Tracer.annotate "pruned_analytic" (string_of_int (!pruned_a - a0)))
  in
  List.iter (if tracing then explore_traced else explore) config.patterns;
  (* Pattern I is always feasible; make sure it was explored even when the
     configuration omits it and every split pattern degenerated. *)
  if Option.is_none !best then pattern_one ();
  let winner = match !best with Some ch -> ch | None -> assert false in
  let cost = st.best_cost in
  let assignment =
    match resolve winner with Some a -> a | None -> assert false
  in
  let regions =
    List.map
      (fun ((r : Pattern.rect), (e : Kernel_set.entry)) ->
        Region.make ~row_off:r.row_off ~col_off:r.col_off ~rows:r.rows
          ~cols:r.cols ~k_len:k ~kernel:e.desc)
      assignment
  in
  let program =
    Program.make ~op ~regions
      ~pattern_name:(Pattern.to_string winner.c_pattern)
  in
  {
    program;
    predicted_cost = cost;
    pattern = winner.c_pattern;
    candidates = !candidates;
    pruned = !pruned;
    pruned_analytic = !pruned_a;
    search_seconds = Unix.gettimeofday () -. t0;
    first_hit = !first_hit;
  }

let polymerize ?(scorer = Model Cost_model.Full) ?(instrument = true)
    (set : Kernel_set.t) (config : Config.t) op =
  let finish (c : compiled) =
    if instrument then begin
      Tm.Metrics.incr m_searches;
      Tm.Metrics.observe m_candidates (float_of_int c.candidates);
      Tm.Metrics.observe m_search_s c.search_seconds;
      Tm.Metrics.add m_pruned_analytic c.pruned_analytic;
      Tm.Metrics.add m_pruned_bound c.pruned
    end;
    c
  in
  if not (instrument && Tm.Tracer.enabled ()) then
    finish (search ~scorer ~tracing:false set config op)
  else begin
    let m, n, k = Operator.gemm_shape op in
    Tm.Tracer.with_span "polymerize.search"
      ~attrs:[ ("shape", Printf.sprintf "%dx%dx%d" m n k) ]
      (fun () ->
        let c = search ~scorer ~tracing:true set config op in
        Tm.Tracer.annotate "pattern" (Pattern.to_string c.pattern);
        Tm.Tracer.annotate "candidates" (string_of_int c.candidates);
        Tm.Tracer.annotate "pruned" (string_of_int c.pruned);
        Tm.Tracer.annotate "pruned_analytic" (string_of_int c.pruned_analytic);
        finish c)
  end

(* Batched suite search: one [Dp.map] over whole shapes. Each shape's
   search is independent and fully deterministic, so the result array is
   bit-identical to [Array.map (polymerize ...)] at every job count —
   only wall-clock changes. The shapes share setups through the table. *)
let search_batch ?(scorer = Model Cost_model.Full) ?(instrument = true)
    ?(jobs = 0) (set : Kernel_set.t) (config : Config.t) ops =
  let run () =
    if instrument && Array.length ops > 0 then Tm.Metrics.incr m_batches;
    Dp.map ~jobs ~min_chunk:4 (polymerize ~scorer ~instrument set config) ops
  in
  if not (instrument && Tm.Tracer.enabled ()) then run ()
  else
    Tm.Tracer.with_span "polymerize.search_batch"
      ~attrs:
        [
          ("shapes", string_of_int (Array.length ops));
          ("search.effective_jobs", string_of_int (Dp.effective_jobs jobs));
        ]
      run
