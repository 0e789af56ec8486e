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

let row_cuts = Strategy_space.row_cuts

let col_cuts = Strategy_space.col_cuts

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
   ranks, fill rank). The search keeps the smallest (cost, key), so the
   winner is independent of enumeration order. *)
type tie_key = Pattern.t * int list * int list * int

let choice_key (ch : choice) : tie_key =
  ( ch.c_pattern,
    ch.c_cuts,
    List.map (fun (e : Kernel_set.entry) -> e.rank) ch.c_pins,
    match ch.c_fill with Some e -> e.rank | None -> -1 )

(* Algorithm 1's heuristic narrowing: how many kernels, best Pattern-I
   cost first, a split pattern tries as its primary kernel and as the
   pinned second kernel of the two-cut Patterns VII-IX. *)
let primary_kernels = 12

let secondary_kernels = 8

(* The half of a search that depends on the shape only through its
   reduction extent K. [search_batch] builds one per distinct K and
   shares it across the batch. *)
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

let setup ~scorer (set : Kernel_set.t) (config : Config.t) ~k =
  let launch =
    if config.search_launch_term then
      set.hw.Hardware.launch_overhead_s *. set.hw.clock_hz
    else 0.
  in
  let analytic =
    config.analytic_prune
    && (match scorer with Model Cost_model.Full -> true | _ -> false)
  in
  let pipe = Array.map (fun e -> Cost_model.f_pipe e ~k_len:k) set.entries in
  let view =
    if analytic then
      Some (Strategy_space.view (Strategy_space.skeleton set) set ~pipe ~launch)
    else None
  in
  { launch; analytic; pipe; view }

let search ~scorer ~tracing ~setup (set : Kernel_set.t) (config : Config.t) op
    =
  if Array.length set.entries = 0 then
    invalid_arg "Polymerize.polymerize: empty kernel set";
  let t0 = Unix.gettimeofday () in
  let m, n, k = Operator.gemm_shape op in
  let { launch; analytic; pipe; view } = setup k in
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
     sound. Identity for the uncalibrated model. *)
  let correct =
    match scorer with
    | Calibrated f -> fun e x -> Float.max 0. (f e x)
    | Model _ | Simulate -> fun _ x -> x
  in
  let icount = Operator.instance_count op in
  let rcost_dims (e : Kernel_set.entry) rows cols =
    let tasks = icount * (ceil_div rows e.desc.um * ceil_div cols e.desc.un) in
    let wave = float_of_int (ceil_div tasks e.wave_capacity) in
    let p = pipe.(e.rank) in
    match objective with
    | Cost_model.Full -> correct e (wave *. p) +. launch
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
  let by_p1 =
    let idx = Array.init n_entries Fun.id in
    Array.sort (fun a b -> compare p1.(a) p1.(b)) idx;
    idx
  in
  let take cnt =
    Array.map (fun i -> entries.(i))
      (Array.sub by_p1 0 (min cnt n_entries))
  in
  let primaries = take primary_kernels in
  let secondaries = take secondary_kernels in
  (* Branch-and-bound state: the lowest full-candidate cost found so far.
     Monotonically non-increasing, so pruning a partial sum that strictly
     exceeds it can never discard a candidate tying the eventual minimum
     — the winner and its tie-break do not depend on visitation order. *)
  let bound = ref infinity in
  let lower_bound c = if c < !bound then bound := c in
  let live_ok =
    match view with Some v -> fun i -> v.live.(i) | None -> fun _ -> true
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
    let key = (rows, cols) in
    match Hashtbl.find_opt memo key with
    | Some hit -> hit
    | None ->
      let best_e = ref entries.(0) and best_c = ref infinity in
      for i = 0 to n_entries - 1 do
        if live_ok i then begin
          let c = rcost_dims entries.(i) rows cols in
          if c < !best_c then begin
            best_c := c;
            best_e := entries.(i)
          end
        end
      done;
      let hit = (!best_e, !best_c) in
      Hashtbl.add memo key hit;
      hit
  in
  (* The search tallies. [best] is the smallest (cost, tie_key) recorded;
     [first_hit] is the [candidates] count at the moment it was first
     recorded. [pruned_a] counts candidates skipped unscored by the
     analytic filters, [pruned] those cut mid-scoring by the bound. *)
  let best = ref None in
  let candidates = ref 0 and pruned = ref 0 and pruned_a = ref 0 in
  let first_hit = ref 0 in
  let record cost choice =
    let key = choice_key choice in
    (match !best with
    | Some (bc, bk, _) when (bc, bk) <= (cost, key) -> ()
    | _ ->
      best := Some (cost, key, choice);
      first_hit := !candidates);
    lower_bound cost
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
  (* Model scoring of a generic (multi-cut) choice, with region-order
     pruning against the bound. Pruning is strict (>): a partial sum equal
     to the incumbent may still win the tie-break.

     Analytic gate (before the candidate is counted or any free region
     resolved): pinned regions at their exact cost plus free regions at
     their pipeline-depth floor already lower-bound the candidate, so
     strictly exceeding the achievable bound proves it cannot win — the
     expensive best-single scans for the free regions never happen. *)
  let score_choice_model (ch : choice) =
    let gated =
      analytic
      && (match Pattern.decompose ch.c_pattern ~m ~n ~cuts:ch.c_cuts with
         | None -> false
         | Some rects ->
           let rec lb acc rects pins =
             match (rects, pins) with
             | [], _ -> acc
             | (r : Pattern.rect) :: rs, (e : Kernel_set.entry) :: ps ->
               lb (acc +. rcost_dims e r.rows r.cols) rs ps
             | (r : Pattern.rect) :: rs, [] ->
               lb (acc +. floor_cost r.rows r.cols) rs []
           in
           lb 0. rects ch.c_pins > !bound)
    in
    if gated then incr pruned_a
    else
      match resolve ch with
      | None -> ()
      | Some assignment ->
        incr candidates;
        let limit = !bound in
        let rec go acc = function
          | [] -> record acc ch
          | ((r : Pattern.rect), e) :: rest ->
            let acc = acc +. rcost_dims e r.rows r.cols in
            if acc > limit then incr pruned else go acc rest
        in
        go 0. assignment
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
      record (Simulator.run set.hw load).cycles ch
  in
  let choice pattern cuts pins fill =
    { c_pattern = pattern; c_cuts = cuts; c_pins = pins; c_fill = fill }
  in
  (* Under the oracle, a choice with free slots is additionally enumerated
     with every secondary kernel as a uniform fill. *)
  let consider ?(has_free = false) pattern cuts pins =
    if not oracle then score_choice_model (choice pattern cuts pins None)
    else begin
      score_choice_simulate (choice pattern cuts pins None);
      if has_free then
        Array.iter
          (fun e -> score_choice_simulate (choice pattern cuts pins (Some e)))
          secondaries
    end
  in
  (* Fast allocation-free path for Pattern I. Under the analytic pruner
     only live entries whose precomputed cost can still matter are
     counted: a dominated entry loses to its dominator including the
     tie-break, and an entry strictly above the achievable bound cannot
     win — both skips keep the recorded winner identical. *)
  let pattern_one () =
    if not oracle then
      for i = 0 to n_entries - 1 do
        if analytic && (not (live_ok i) || p1.(i) > !bound) then incr pruned_a
        else begin
          incr candidates;
          record p1.(i) (choice I [] [ entries.(i) ] None)
        end
      done
    else
      Array.iter (fun e -> score_choice_simulate (choice I [] [ e ] None)) entries
  in
  let pattern_two (e1 : Kernel_set.entry) =
    List.iter
      (fun r ->
        if oracle then consider ~has_free:true II [ r ] [ e1 ]
        else
          let c1 = rcost_dims e1 r n in
          if analytic && c1 +. floor_cost (m - r) n > !bound then incr pruned_a
          else begin
            incr candidates;
            if c1 > !bound then incr pruned
            else begin
              let e2, c2 = best_single (m - r) n in
              record (c1 +. c2) (choice II [ r ] [ e1; e2 ] None)
            end
          end)
      (row_cuts ~style:config.cut_style e1 ~rows:m ~cols:n ~max_cuts:config.max_cuts)
  in
  let pattern_three (e1 : Kernel_set.entry) =
    List.iter
      (fun c ->
        if oracle then consider ~has_free:true III [ c ] [ e1 ]
        else
          let c1 = rcost_dims e1 m c in
          if analytic && c1 +. floor_cost m (n - c) > !bound then incr pruned_a
          else begin
            incr candidates;
            if c1 > !bound then incr pruned
            else begin
              let e2, c2 = best_single m (n - c) in
              record (c1 +. c2) (choice III [ c ] [ e1; e2 ] None)
            end
          end)
      (col_cuts ~style:config.cut_style e1 ~rows:m ~cols:n ~max_cuts:config.max_cuts)
  in
  let two_cut_pattern pattern (e1 : Kernel_set.entry) =
    let rcs = row_cuts ~style:config.cut_style e1 ~rows:m ~cols:n ~max_cuts:config.max_cuts in
    let ccs = col_cuts ~style:config.cut_style e1 ~rows:m ~cols:n ~max_cuts:config.max_cuts in
    List.iter
      (fun r ->
        List.iter (fun c -> consider ~has_free:true pattern [ r; c ] [ e1 ]) ccs)
      rcs
  in
  (* Patterns run in configuration order, each over its primaries in
     Pattern-I cost order. The pool's grain is whole shapes
     ({!search_batch}), never parts of one search, so the bound's
     evolution and with it every tally is deterministic. *)
  let explore (p : Pattern.t) =
    let each f = Array.iter f primaries in
    match p with
    | I -> pattern_one ()
    | II -> each pattern_two
    | III -> each pattern_three
    | IV | V | VI -> each (two_cut_pattern p)
    | VII ->
      each (fun e1 ->
          List.iter
            (fun r1 ->
              Array.iter
                (fun (e2 : Kernel_set.entry) ->
                  List.iter
                    (fun dr ->
                      if r1 + dr < m then
                        consider ~has_free:true VII [ r1; r1 + dr ] [ e1; e2 ])
                    (row_cuts ~style:config.cut_style e2 ~rows:(m - r1) ~cols:n ~max_cuts:2))
                secondaries)
            (row_cuts ~style:config.cut_style e1 ~rows:m ~cols:n ~max_cuts:config.max_cuts))
    | VIII ->
      each (fun e1 ->
          List.iter
            (fun c1 ->
              Array.iter
                (fun (e2 : Kernel_set.entry) ->
                  List.iter
                    (fun dc ->
                      if c1 + dc < n then
                        consider ~has_free:true VIII [ c1; c1 + dc ] [ e1; e2 ])
                    (col_cuts ~style:config.cut_style e2 ~rows:m ~cols:(n - c1) ~max_cuts:2))
                secondaries)
            (col_cuts ~style:config.cut_style e1 ~rows:m ~cols:n ~max_cuts:config.max_cuts))
    | IX ->
      each (fun e1 ->
          List.iter
            (fun r ->
              Array.iter
                (fun (e2 : Kernel_set.entry) ->
                  List.iter
                    (fun c -> consider ~has_free:true IX [ r; c ] [ e1; e2 ])
                    (col_cuts ~style:config.cut_style e2 ~rows:(m - r) ~cols:n ~max_cuts:2))
                secondaries)
            (row_cuts ~style:config.cut_style e1 ~rows:m ~cols:n ~max_cuts:config.max_cuts))
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
  let cost, _, winner = match !best with Some x -> x | None -> assert false in
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

let instrumented ~scorer ~instrument ~setup (set : Kernel_set.t)
    (config : Config.t) op =
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
    finish (search ~scorer ~tracing:false ~setup set config op)
  else begin
    let m, n, k = Operator.gemm_shape op in
    Tm.Tracer.with_span "polymerize.search"
      ~attrs:[ ("shape", Printf.sprintf "%dx%dx%d" m n k) ]
      (fun () ->
        let c = search ~scorer ~tracing:true ~setup set config op in
        Tm.Tracer.annotate "pattern" (Pattern.to_string c.pattern);
        Tm.Tracer.annotate "candidates" (string_of_int c.candidates);
        Tm.Tracer.annotate "pruned" (string_of_int c.pruned);
        Tm.Tracer.annotate "pruned_analytic" (string_of_int c.pruned_analytic);
        finish c)
  end

let polymerize ?(scorer = Model Cost_model.Full) ?(instrument = true)
    (set : Kernel_set.t) (config : Config.t) op =
  instrumented ~scorer ~instrument
    ~setup:(fun k -> setup ~scorer set config ~k)
    set config op

(* Batched suite search: one pool region over whole shapes. Each shape's
   search is independent and fully deterministic, so the result array is
   bit-identical to [Array.map (polymerize ...)] at every job count —
   only wall-clock changes. The requested job count is clamped to the
   cores that can actually run concurrently ([Dp.effective_jobs]):
   over-subscribing a small host with worker domains is precisely the
   slowdown the per-unit design suffered from. *)
let search_batch ?(scorer = Model Cost_model.Full) ?(instrument = true) ?jobs
    ?(min_chunk = 4) (set : Kernel_set.t) (config : Config.t) ops =
  if min_chunk < 1 then
    invalid_arg "Polymerize.search_batch: min_chunk must be >= 1";
  let requested =
    match jobs with
    | Some j -> max 1 j
    | None -> Dp.default_jobs ()
  in
  let ejobs = Dp.effective_jobs requested in
  let n = Array.length ops in
  (* One {!setup} per distinct reduction extent, shared by every shape of
     the batch with that K. Setups are immutable once built; computing
     them before the pool region keeps the parallel arm read-only. *)
  let setups = Hashtbl.create 8 in
  Array.iter
    (fun op ->
      let _, _, k = Operator.gemm_shape op in
      if not (Hashtbl.mem setups k) then
        Hashtbl.add setups k (setup ~scorer set config ~k))
    ops;
  let one op =
    instrumented ~scorer ~instrument ~setup:(Hashtbl.find setups) set config op
  in
  let run () =
    if n = 0 then [||]
    else begin
      if instrument then Tm.Metrics.incr m_batches;
      if ejobs <= 1 || n <= min_chunk then Array.map one ops
      else begin
        let res = Array.make n None in
        Dp.parallel_for_batched
          (Dp.global ~jobs:ejobs ())
          ~min_chunk ~start:0 ~stop:n
          (fun i -> res.(i) <- Some (one ops.(i)));
        Array.map (function Some c -> c | None -> assert false) res
      end
    end
  in
  if not (instrument && Tm.Tracer.enabled ()) then run ()
  else
    Tm.Tracer.with_span "polymerize.search_batch"
      ~attrs:
        [
          ("shapes", string_of_int n);
          ("search.jobs", string_of_int requested);
          ("search.effective_jobs", string_of_int ejobs);
        ]
      run
