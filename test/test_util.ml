(* Tests for the utility substrate: PRNG, statistics, piecewise-linear
   fitting, heap, checksums, table rendering and the domain pool. *)

open Mikpoly_util

let check_float = Alcotest.(check (float 1e-9))

let qtest = QCheck_alcotest.to_alcotest

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_prng_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_prng_int_in () =
  let rng = Prng.create 4 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_prng_int_in_singleton () =
  let rng = Prng.create 5 in
  Alcotest.(check int) "degenerate range" 42 (Prng.int_in rng 42 42)

let test_prng_float_range () =
  let rng = Prng.create 6 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_prng_float_varies () =
  let rng = Prng.create 8 in
  let xs = List.init 50 (fun _ -> Prng.float rng 1.) in
  let distinct = List.sort_uniq compare xs in
  Alcotest.(check bool) "many distinct draws" true (List.length distinct > 40)

let test_prng_log_int_in_bounds () =
  let rng = Prng.create 9 in
  for _ = 1 to 2000 do
    let v = Prng.log_int_in rng 3 5000 in
    Alcotest.(check bool) "in [3,5000]" true (v >= 3 && v <= 5000)
  done

let test_prng_log_int_in_spreads () =
  let rng = Prng.create 10 in
  let draws = List.init 500 (fun _ -> Prng.log_int_in rng 1 4096) in
  let small = List.length (List.filter (fun v -> v <= 64) draws) in
  let large = List.length (List.filter (fun v -> v > 512) draws) in
  Alcotest.(check bool) "log-uniform hits both ends" true (small > 50 && large > 50)

let test_prng_split_independent () =
  let parent = Prng.create 11 in
  let child = Prng.split parent in
  let xs = List.init 20 (fun _ -> Prng.int parent 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int child 1_000_000) in
  Alcotest.(check bool) "independent streams" true (xs <> ys)

let test_prng_choice_shuffle () =
  let rng = Prng.create 12 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 50 do
    let v = Prng.choice rng arr in
    Alcotest.(check bool) "choice member" true (Array.exists (( = ) v) arr)
  done;
  let arr2 = Array.init 100 Fun.id in
  Prng.shuffle rng arr2;
  let sorted = Array.copy arr2 in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation"
    (Array.init 100 Fun.id) sorted

let test_prng_invalid_args () =
  let rng = Prng.create 13 in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_in: empty range")
    (fun () -> ignore (Prng.int_in rng 5 4))

(* --- Stats --- *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ])

let test_stats_geomean () =
  check_float "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ] ** 3. /. 4.)

let test_stats_geomean_simple () =
  check_float "geomean of equal" 3. (Stats.geomean [ 3.; 3.; 3. ])

let test_stats_median () =
  check_float "odd median" 2. (Stats.median [ 3.; 1.; 2. ]);
  check_float "even median" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ])

let test_stats_percentile () =
  let xs = List.init 101 float_of_int in
  check_float "p0" 0. (Stats.percentile 0. xs);
  check_float "p100" 100. (Stats.percentile 100. xs);
  check_float "p50" 50. (Stats.percentile 50. xs)

(* A percentile outside [0, 100] is an error, and so is NaN: [nan < 0.]
   and [nan > 100.] are both false. *)
let test_stats_percentile_out_of_range () =
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "p = %g" p)
        (Invalid_argument "Stats.percentile: p out of range")
        (fun () -> ignore (Stats.percentile p [ 1.; 2. ]));
      Alcotest.check_raises
        (Printf.sprintf "percentiles with p = %g" p)
        (Invalid_argument "Stats.percentile: p out of range")
        (fun () -> ignore (Stats.percentiles [ 50.; p ] [ 1.; 2. ]));
      Alcotest.check_raises
        (Printf.sprintf "percentiles_array with p = %g" p)
        (Invalid_argument "Stats.percentile: p out of range")
        (fun () -> ignore (Stats.percentiles_array [ p ] [| 1.; 2. |])))
    [ -1.; 101.; nan ]

(* The percentile as it was computed before the one-sort batch: one
   polymorphic-compare sort per requested percentile. *)
let reference_percentile p xs =
  let arr = Array.of_list (List.sort compare xs) in
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
  end

(* Samples rich in ties: duplicates, both zeros (equal under compare, so
   only a stable sort keeps their order and the sign of an interpolated
   zero), NaNs (equal to each other and below every other float under
   compare), infinities, single-element lists, and lists of up to 600
   samples, so the merge sort's runs and merges are crossed. *)
let arb_percentile_case =
  let open QCheck in
  let sample =
    Gen.(
      frequency
        [
          ( 3,
            oneofl
              [
                0.; -0.; 1.; -1.; 2.5; infinity; neg_infinity; 1e-300; nan;
                -.nan;
              ]
          );
          (2, float_range (-10.) 10.);
        ])
  in
  let ps =
    Gen.(
      list_size (int_range 1 5)
        (frequency
           [ (2, oneofl [ 0.; 50.; 95.; 99.; 100. ]); (1, float_range 0. 100.) ]))
  in
  make
    ~print:
      Print.(pair (list (fun p -> Printf.sprintf "%h" p))
        (list (fun x -> Printf.sprintf "%h" x)))
    Gen.(
      pair ps
        (list_size
           (frequency [ (3, int_range 1 40); (1, int_range 41 600) ])
           sample))

let prop_percentiles_match_reference =
  QCheck.Test.make ~name:"percentiles: bit-identical to one sort per p"
    ~count:500 arb_percentile_case (fun (ps, xs) ->
      let bits = List.map Int64.bits_of_float in
      let expected = bits (List.map (fun p -> reference_percentile p xs) ps) in
      bits (Stats.percentiles ps xs) = expected
      && bits (Stats.percentiles_array ps (Array.of_list xs)) = expected
      && bits (List.map (fun p -> Stats.percentile p xs) ps) = expected)

let test_stats_stddev () =
  check_float "stddev" 2. (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

let test_stats_minmax_sum () =
  check_float "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
  check_float "max" 3. (Stats.maximum [ 3.; 1.; 2. ]);
  check_float "sum" 6. (Stats.sum [ 3.; 1.; 2. ])

let test_stats_pearson () =
  let pairs = List.init 10 (fun i -> (float_of_int i, 2. *. float_of_int i +. 1.)) in
  check_float "perfect correlation" 1. (Stats.pearson pairs);
  let anti = List.init 10 (fun i -> (float_of_int i, -.float_of_int i)) in
  check_float "perfect anticorrelation" (-1.) (Stats.pearson anti)

let test_stats_histogram () =
  let h = Stats.histogram ~bins:4 [ 0.; 1.; 2.; 3.; 4. ] in
  Alcotest.(check int) "bins" 4 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 5 total

let test_stats_empty () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

(* --- Piecewise --- *)

let test_piecewise_exact_interp () =
  let f = Piecewise.of_points [ (0., 0.); (1., 10.); (2., 0.) ] in
  check_float "at breakpoint" 10. (Piecewise.eval f 1.);
  check_float "midpoint" 5. (Piecewise.eval f 0.5);
  check_float "second segment" 5. (Piecewise.eval f 1.5)

let test_piecewise_extrapolation () =
  let f = Piecewise.of_points [ (1., 1.); (2., 2.) ] in
  check_float "left extrapolation" 0. (Piecewise.eval f 0.);
  check_float "right extrapolation" 4. (Piecewise.eval f 4.)

let test_piecewise_fit_linear_collapses () =
  let samples = List.init 50 (fun i -> (float_of_int i, 3. *. float_of_int i +. 2.)) in
  let f = Piecewise.fit samples in
  Alcotest.(check bool) "few breakpoints" true
    (List.length (Piecewise.breakpoints f) <= 3);
  check_float "still accurate" 0. (Piecewise.max_rel_error f samples)

let test_piecewise_fit_error_bound () =
  let g x = if x < 10. then 5. +. (2. *. x) else 25. +. (0.5 *. (x -. 10.)) in
  let samples = List.init 100 (fun i -> (float_of_int i, g (float_of_int i))) in
  let f = Piecewise.fit ~tolerance:0.01 samples in
  Alcotest.(check bool) "error within 2x tolerance" true
    (Piecewise.max_rel_error f samples <= 0.02)

let test_piecewise_duplicate_abscissa () =
  Alcotest.check_raises "duplicate x"
    (Invalid_argument "Piecewise.of_points: duplicate abscissa") (fun () ->
      ignore (Piecewise.of_points [ (1., 1.); (1., 2.) ]))

let test_piecewise_degenerate_inputs () =
  (* A piecewise-linear function needs two knots: the empty and
     single-knot models are rejected, never silently constant. *)
  Alcotest.check_raises "empty"
    (Invalid_argument "Piecewise.of_points: need >= 2 points") (fun () ->
      ignore (Piecewise.of_points []));
  Alcotest.check_raises "single knot"
    (Invalid_argument "Piecewise.of_points: need >= 2 points") (fun () ->
      ignore (Piecewise.of_points [ (1., 1.) ]))

let test_piecewise_non_monotone_input () =
  (* Knots given out of abscissa order define the same function as the
     sorted ones — construction sorts, it does not trust input order. *)
  let shuffled = Piecewise.of_points [ (2., 0.); (0., 0.); (1., 10.) ] in
  let sorted = Piecewise.of_points [ (0., 0.); (1., 10.); (2., 0.) ] in
  List.iter
    (fun x ->
      check_float
        (Printf.sprintf "same value at %g" x)
        (Piecewise.eval sorted x) (Piecewise.eval shuffled x))
    [ -1.; 0.; 0.5; 1.; 1.5; 2.; 3. ];
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "breakpoints sorted"
    (Piecewise.breakpoints sorted)
    (Piecewise.breakpoints shuffled)

let test_piecewise_far_extrapolation () =
  (* Out-of-range queries follow the terminal segments linearly, even far
     beyond the knot span — the calibration layer leans on this when a
     shape is much larger than anything observed. *)
  let f = Piecewise.of_points [ (0., 0.); (10., 20.) ] in
  check_float "far right" 200. (Piecewise.eval f 100.);
  check_float "far left" (-200.) (Piecewise.eval f (-100.))

(* --- Kendall tau --- *)

let test_kendall_tau_perfect () =
  let pairs = List.init 10 (fun i -> (float_of_int i, float_of_int (i * i))) in
  check_float "monotone agreement" 1. (Stats.kendall_tau pairs);
  let anti = List.init 10 (fun i -> (float_of_int i, -.float_of_int i)) in
  check_float "monotone disagreement" (-1.) (Stats.kendall_tau anti)

let test_kendall_tau_partial () =
  (* One swapped adjacent pair out of four items: 5 concordant pairs, 1
     discordant, tau = (5 - 1) / 6. *)
  let pairs = [ (1., 1.); (2., 3.); (3., 2.); (4., 4.) ] in
  check_float "one inversion" (4. /. 6.) (Stats.kendall_tau pairs)

let test_kendall_tau_ties () =
  (* tau-b: tied pairs count in neither numerator side and shrink the
     denominator. All-tied y degenerates to 0, not a crash. *)
  check_float "all tied" 0.
    (Stats.kendall_tau [ (1., 5.); (2., 5.); (3., 5.) ]);
  (* The mirror regression: a constant {e predictor} (all-tied x) must
     also score 0, never a spurious 1 — under naive tau a constant
     scorer has no discordant pairs and would look like perfect ranking.
     The ranking evaluator leans on this when a scorer degenerates. *)
  check_float "constant predictor" 0.
    (Stats.kendall_tau [ (5., 1.); (5., 2.); (5., 3.) ]);
  check_float "all pairs tied both ways" 0.
    (Stats.kendall_tau [ (5., 7.); (5., 7.); (5., 7.) ]);
  (* Partial ties: 3 items, x ties the first two. Untied pairs are
     (1,3) and (2,3), both concordant; tau-b = 2 / sqrt(2 * 3). *)
  check_float "partial x ties"
    (2. /. sqrt 6.)
    (Stats.kendall_tau [ (5., 1.); (5., 2.); (6., 3.) ]);
  Alcotest.check_raises "too few samples"
    (Invalid_argument "Stats.kendall_tau: need at least two samples")
    (fun () -> ignore (Stats.kendall_tau [ (1., 1.) ]))

let prop_piecewise_interpolates =
  QCheck.Test.make ~name:"piecewise: exact interpolant hits every sample" ~count:50
    QCheck.(list_of_size (Gen.int_range 2 20) (pair (float_range 0. 1000.) (float_range 1. 1000.)))
    (fun pts ->
      let dedup =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) pts
      in
      QCheck.assume (List.length dedup >= 2);
      let f = Piecewise.of_points dedup in
      List.for_all (fun (x, y) -> abs_float (Piecewise.eval f x -. y) < 1e-6 *. (1. +. abs_float y)) dedup)

(* --- Heap --- *)

(* Drain [h], payloads in pop order. *)
let drain h =
  let rec go acc = if Heap.is_empty h then List.rev acc else go (Heap.pop h :: acc) in
  go []

let test_heap_sorted_pops () =
  let h = Heap.create () in
  List.iter (fun x -> Heap.push h (float_of_int x) 0 x) [ 5; 3; 8; 1; 9; 2 ];
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 5; 8; 9 ] (drain h)

let test_heap_peek () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.check_raises "top of empty" (Invalid_argument "Heap.top: empty")
    (fun () -> ignore (Heap.top h));
  Heap.push h 4. 0 "four";
  Heap.push h 2. 1 "two, tie 1";
  Heap.push h 2. 0 "two, tie 0";
  Alcotest.(check (float 0.)) "min key" 2. (Heap.min_key h);
  Alcotest.(check string) "peek min, tie first" "two, tie 0" (Heap.top h);
  Alcotest.(check int) "size" 3 (Heap.size h);
  Alcotest.(check string) "pop = top" "two, tie 0" (Heap.pop h);
  Alcotest.(check int) "size after pop" 2 (Heap.size h)

let prop_heap_matches_sort =
  QCheck.Test.make ~name:"heap: drains in sorted order" ~count:100
    QCheck.(list (pair (int_range 0 5) small_nat))
    (fun xs ->
      let h = Heap.create () in
      List.iter (fun (k, tie) -> Heap.push h (float_of_int k) tie (k, tie)) xs;
      drain h = List.sort compare xs)

(* Equal keys pop in exactly the order the closure heap gave them: the
   GPU dispatcher's events rely on it. *)
let prop_heap_matches_closure_heap =
  QCheck.Test.make ~name:"heap: equal keys pop in the closure heap's order"
    ~count:200
    QCheck.(list (option (int_range 0 4)))
    (fun ops ->
      let h = Heap.create () in
      let c = Closure_heap.create ~cmp:(fun (a, _) (b, _) -> Float.compare a b) in
      let popped = ref [] and expected = ref [] in
      List.iteri
        (fun i op ->
          match op with
          | Some k ->
            Heap.push h (float_of_int k) 0 i;
            Closure_heap.push c (float_of_int k, i)
          | None -> (
            match Closure_heap.pop c with
            | None -> ()
            | Some (_, j) ->
              expected := j :: !expected;
              popped := Heap.pop h :: !popped))
        ops;
      let rec rest acc =
        match Closure_heap.pop c with None -> List.rev acc | Some (_, j) -> rest (j :: acc)
      in
      List.rev_append !popped (drain h) = List.rev_append !expected (rest []))

(* --- Checksum --- *)

let test_fnv1a64_vectors () =
  List.iter
    (fun (s, hex) -> Alcotest.(check string) (Printf.sprintf "%S" s) hex (Checksum.fnv1a64_hex s))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ]

let prop_fnv1a64_lines =
  QCheck.Test.make ~name:"fnv1a64_lines hashes the joined lines" ~count:100
    QCheck.(list string)
    (fun lines ->
      Checksum.fnv1a64_lines lines = Checksum.fnv1a64 (String.concat "\n" lines))

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~title:"t" ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 4 = "== t")

let test_table_row_width_mismatch () =
  let t = Table.create ~title:"t" ~header:[ "a" ] in
  Alcotest.check_raises "row width"
    (Invalid_argument "Table.add_row: row width does not match header") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_table_csv_quoting () =
  let t = Table.create ~title:"t" ~header:[ "a" ] in
  Table.add_row t [ "x,y" ];
  Alcotest.(check string) "quoted" "a\n\"x,y\"" (Table.to_csv t)

let test_table_fmt () =
  Alcotest.(check string) "speedup" "1.49x" (Table.fmt_speedup 1.49);
  Alcotest.(check string) "us" "2.00us" (Table.fmt_time_us 2e-6);
  Alcotest.(check string) "ms" "1.500ms" (Table.fmt_time_us 1.5e-3)

(* --- Domain_pool --- *)

exception Boom of int

let with_default_jobs d f =
  let saved = Domain_pool.default_jobs () in
  Domain_pool.set_default_jobs d;
  Fun.protect ~finally:(fun () -> Domain_pool.set_default_jobs saved) f

let self () = (Domain.self () :> int)

(* The sorted ids of the domains a map over [n] elements ran bodies on.
   With [~meet], the body of element 0 waits (up to 5 s) until a second
   domain has run a body, so a map that can use two domains does; with
   [~pause], every body sleeps 0.2 ms, so every worker that wakes claims
   a chunk. *)
let domains_used ?jobs ?(meet = false) ?(pause = false) ~min_chunk n =
  let seen = Atomic.make [] in
  let rec note d =
    let l = Atomic.get seen in
    if not (List.mem d l || Atomic.compare_and_set seen l (d :: l)) then note d
  in
  let t0 = Unix.gettimeofday () in
  ignore
    (Domain_pool.map ?jobs ~min_chunk
       (fun i ->
         note (self ());
         if pause then Unix.sleepf 2e-4;
         if meet && i = 0 then
           while
             List.length (Atomic.get seen) < 2 && Unix.gettimeofday () -. t0 < 5.
           do
             Domain.cpu_relax ()
           done)
       (Array.init n Fun.id));
  List.sort compare (Atomic.get seen)

let multicore = Domain.recommended_domain_count () >= 2

let prop_map_is_array_map =
  QCheck.Test.make ~name:"map: equals Array.map and recovers" ~count:100
    QCheck.(
      quad
        (list_of_size Gen.(0 -- 300) small_int)
        (int_range 0 8) (int_range 1 16) small_nat)
    (fun (xs, jobs, min_chunk, k) ->
      let a = Array.of_list xs in
      let n = Array.length a in
      let f x = (x * x) + 1 in
      let same () = Domain_pool.map ~jobs ~min_chunk f a = Array.map f a in
      let reraised () =
        n = 0
        ||
        let bad = k mod n in
        match
          Domain_pool.map ~jobs ~min_chunk
            (fun i -> if i = bad then raise (Boom i) else i)
            (Array.init n Fun.id)
        with
        | _ -> false
        | exception Boom i -> i = bad
      in
      same () && reraised () && same ())

let test_pool_exception_propagates_and_drains () =
  (match
     Domain_pool.map ~jobs:4 ~min_chunk:1
       (fun i -> if i = 37 then raise (Boom i))
       (Array.init 100 Fun.id)
   with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 37 -> ());
  (* the failed map must leave the workers idle and usable *)
  let hits = Atomic.make 0 in
  ignore
    (Domain_pool.map ~jobs:4 ~min_chunk:1
       (fun _ -> Atomic.incr hits)
       (Array.make 64 ()));
  Alcotest.(check int) "usable after failure" 64 (Atomic.get hits)

let test_pool_nested_submit_runs_inline () =
  let inline = Atomic.make true in
  let sums =
    Domain_pool.map ~jobs:2 ~min_chunk:1
      (fun i ->
        let outer = self () in
        (* a body mapping again must not deadlock: it runs inline *)
        Array.fold_left ( + ) 0
          (Domain_pool.map ~jobs:2 ~min_chunk:1
             (fun j ->
               if self () <> outer then Atomic.set inline false;
               i * j)
             [| 1; 2; 3 |]))
      [| 0; 1; 2; 3 |]
  in
  Alcotest.(check (array int)) "nested results" [| 0; 6; 12; 18 |] sums;
  Alcotest.(check bool) "inner bodies on their outer body's domain" true
    (Atomic.get inline)

let test_pool_batched_covers () =
  let a = Array.init 1000 Fun.id in
  Alcotest.(check (array int)) "every element, in order"
    (Array.map (fun i -> i + 1) a)
    (Domain_pool.map ~jobs:4 ~min_chunk:16 (fun i -> i + 1) a)

let test_pool_batched_inline_paths () =
  let caller = [ self () ] in
  Alcotest.(check (list int)) "jobs=1: caller only" caller
    (domains_used ~jobs:1 ~pause:true ~min_chunk:1 100);
  Alcotest.(check (list int)) "at most min_chunk elements: caller only" caller
    (domains_used ~jobs:4 ~pause:true ~min_chunk:64 64);
  with_default_jobs 1 (fun () ->
      Alcotest.(check (list int)) "default 1: caller only" caller
        (domains_used ~pause:true ~min_chunk:1 100))

let test_pool_batched_dispatches_when_worth_it () =
  let used =
    List.length (domains_used ~jobs:4 ~meet:multicore ~min_chunk:8 1024)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d domains: two or more, at most effective_jobs" used)
    true
    (used >= (if multicore then 2 else 1)
    && used <= Domain_pool.effective_jobs 4);
  Alcotest.check_raises "min_chunk validated"
    (Invalid_argument "Domain_pool.map: min_chunk must be >= 1")
    (fun () -> ignore (Domain_pool.map ~min_chunk:0 Fun.id [| 1 |]))

(* The regression test for [~jobs:0], which used to mean one worker. *)
let test_pool_jobs0_inherits () =
  if multicore then
    with_default_jobs 2 (fun () ->
        Alcotest.(check int) "two domains" 2
          (List.length (domains_used ~jobs:0 ~meet:true ~min_chunk:1 200)))

let test_pool_never_oversubscribes () =
  with_default_jobs 4 (fun () ->
      let used =
        List.length (domains_used ~jobs:4 ~pause:true ~min_chunk:1 64)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d domains <= %d cores" used
           (Domain.recommended_domain_count ()))
        true
        (used <= Domain.recommended_domain_count ()))

let test_pool_concurrent_maps () =
  let a = Array.init 10_000 Fun.id in
  let f i = (i * 7) + 3 in
  for _ = 1 to 20 do
    let other =
      Domain.spawn (fun () -> Domain_pool.map ~jobs:2 ~min_chunk:1 f a)
    in
    let mine = Domain_pool.map ~jobs:2 ~min_chunk:1 f a in
    Alcotest.(check bool) "this domain's map" true (mine = Array.map f a);
    Alcotest.(check bool) "the other domain's map" true
      (Domain.join other = Array.map f a)
  done

(* jobs 1 runs on the caller. On a host with three or more cores, a map
   at another effective count replaces the workers, shutting the old
   ones down; every map after a replacement, and after a second one, is
   still right. *)
let test_pool_jobs1_and_replaced_workers () =
  Alcotest.(check (list int)) "jobs=1 runs inline" [ self () ]
    (domains_used ~jobs:1 ~pause:true ~min_chunk:1 5);
  let a = Array.init 500 Fun.id and f i = (3 * i) - 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d after a replacement" jobs)
        true
        (Domain_pool.map ~jobs ~min_chunk:1 f a = Array.map f a))
    [ 2; 3; 2; 3; 1; 2 ]

(* Decoding a job count: what [resolve_jobs] did is [effective_jobs]'s. *)
let test_pool_resolve_jobs () =
  let cores = Domain.recommended_domain_count () in
  with_default_jobs 3 (fun () ->
      Alcotest.(check int) "0 inherits the default" (min 3 cores)
        (Domain_pool.effective_jobs 0);
      Alcotest.(check int) "negative inherits too" (min 3 cores)
        (Domain_pool.effective_jobs (-2));
      Alcotest.(check int) "explicit wins" (min 2 cores)
        (Domain_pool.effective_jobs 2));
  with_default_jobs 0 (fun () ->
      Alcotest.(check int) "0 sets the recommended count"
        (Domain_pool.recommended_jobs ()) (Domain_pool.default_jobs ()));
  let r = Domain_pool.recommended_jobs () in
  Alcotest.(check bool) "recommended in 1..8" true (r >= 1 && r <= 8)

(* The host's core count bounds every job count. *)
let test_pool_host_cores_and_effective_jobs () =
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check int) "effective_jobs floor" 1 (Domain_pool.effective_jobs 1);
  Alcotest.(check int) "effective_jobs clamps to the cores" cores
    (Domain_pool.effective_jobs 1000);
  Alcotest.(check bool) "the clamp is at most the cores" true
    (Domain_pool.effective_jobs 64 <= cores)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "int_in" `Quick test_prng_int_in;
          Alcotest.test_case "int_in singleton" `Quick test_prng_int_in_singleton;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float varies" `Quick test_prng_float_varies;
          Alcotest.test_case "log_int_in bounds" `Quick test_prng_log_int_in_bounds;
          Alcotest.test_case "log_int_in spreads" `Quick test_prng_log_int_in_spreads;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "choice/shuffle" `Quick test_prng_choice_shuffle;
          Alcotest.test_case "invalid args" `Quick test_prng_invalid_args;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "geomean equal" `Quick test_stats_geomean_simple;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile out of range" `Quick
            test_stats_percentile_out_of_range;
          qtest prop_percentiles_match_reference;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min/max/sum" `Quick test_stats_minmax_sum;
          Alcotest.test_case "pearson" `Quick test_stats_pearson;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "empty input" `Quick test_stats_empty;
        ] );
      ( "piecewise",
        [
          Alcotest.test_case "exact interpolation" `Quick test_piecewise_exact_interp;
          Alcotest.test_case "extrapolation" `Quick test_piecewise_extrapolation;
          Alcotest.test_case "fit collapses linear" `Quick test_piecewise_fit_linear_collapses;
          Alcotest.test_case "fit error bound" `Quick test_piecewise_fit_error_bound;
          Alcotest.test_case "duplicate abscissa" `Quick test_piecewise_duplicate_abscissa;
          Alcotest.test_case "degenerate inputs rejected" `Quick
            test_piecewise_degenerate_inputs;
          Alcotest.test_case "non-monotone input sorted" `Quick
            test_piecewise_non_monotone_input;
          Alcotest.test_case "far extrapolation" `Quick
            test_piecewise_far_extrapolation;
          qtest prop_piecewise_interpolates;
        ] );
      ( "kendall_tau",
        [
          Alcotest.test_case "perfect agreement" `Quick test_kendall_tau_perfect;
          Alcotest.test_case "partial agreement" `Quick test_kendall_tau_partial;
          Alcotest.test_case "ties and degenerate input" `Quick
            test_kendall_tau_ties;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorted pops" `Quick test_heap_sorted_pops;
          Alcotest.test_case "peek/size" `Quick test_heap_peek;
          qtest prop_heap_matches_sort;
          qtest prop_heap_matches_closure_heap;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "fnv1a64 vectors" `Quick test_fnv1a64_vectors;
          qtest prop_fnv1a64_lines;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "width mismatch" `Quick test_table_row_width_mismatch;
          Alcotest.test_case "csv quoting" `Quick test_table_csv_quoting;
          Alcotest.test_case "formatting" `Quick test_table_fmt;
        ] );
      ( "domain_pool",
        [
          qtest prop_map_is_array_map;
          Alcotest.test_case "exception propagates, pool drains" `Quick
            test_pool_exception_propagates_and_drains;
          Alcotest.test_case "nested submit runs inline" `Quick
            test_pool_nested_submit_runs_inline;
          Alcotest.test_case "batched covers range" `Quick
            test_pool_batched_covers;
          Alcotest.test_case "batched inline paths dispatch nothing" `Quick
            test_pool_batched_inline_paths;
          Alcotest.test_case "batched dispatches when worth it" `Quick
            test_pool_batched_dispatches_when_worth_it;
          Alcotest.test_case "~jobs:0 under default 2 uses 2 domains" `Quick
            test_pool_jobs0_inherits;
          Alcotest.test_case "never more domains than cores" `Quick
            test_pool_never_oversubscribes;
          Alcotest.test_case "concurrent maps both correct" `Quick
            test_pool_concurrent_maps;
          Alcotest.test_case "jobs=1 and shutdown idempotent" `Quick
            test_pool_jobs1_and_replaced_workers;
          Alcotest.test_case "resolve_jobs" `Quick test_pool_resolve_jobs;
          Alcotest.test_case "host_cores and effective_jobs" `Quick
            test_pool_host_cores_and_effective_jobs;
        ] );
    ]
