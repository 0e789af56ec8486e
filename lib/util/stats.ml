let require_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty list")
  | xs -> xs

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  let xs = require_nonempty "Stats.mean" xs in
  sum xs /. float_of_int (List.length xs)

let geomean xs =
  let xs = require_nonempty "Stats.geomean" xs in
  List.iter (fun x -> if x <= 0. then invalid_arg "Stats.geomean: non-positive value") xs;
  let log_sum = List.fold_left (fun acc x -> acc +. log x) 0. xs in
  exp (log_sum /. float_of_int (List.length xs))

let stddev xs =
  let xs = require_nonempty "Stats.stddev" xs in
  let m = mean xs in
  let var = mean (List.map (fun x -> (x -. m) ** 2.) xs) in
  sqrt var

(* [Array.stable_sort Float.compare] on a float array, transcribed from
   the standard library's merge sort (insertion sort below [cutoff]
   elements, a temporary array of half the length) with the comparison
   inlined: a polymorphic sort boxes both floats of every comparison for
   its closure. A stable sort's output is fixed by the order alone, so
   the result is the same bit for bit. *)
let cutoff = 5

(* [a.(srcofs .. srcofs+len-1)] insertion-sorted into [dst] from
   [dstofs]. *)
let isortto (a : float array) srcofs (dst : float array) dstofs len =
  for i = 0 to len - 1 do
    let e = a.(srcofs + i) in
    let j = ref (dstofs + i - 1) in
    while !j >= dstofs && Float.compare dst.(!j) e > 0 do
      dst.(!j + 1) <- dst.(!j);
      decr j
    done;
    dst.(!j + 1) <- e
  done

(* The sorted runs [a.(i1 .. i1+n1-1)] and [src2.(i2 .. i2+n2-1)] merged
   into [dst] from [d], the first run's element first on ties. *)
let merge (a : float array) i1 n1 (src2 : float array) i2 n2
    (dst : float array) d =
  let e1 = i1 + n1 and e2 = i2 + n2 in
  let i = ref i1 and j = ref i2 and k = ref d in
  while !i < e1 && !j < e2 do
    if Float.compare a.(!i) src2.(!j) <= 0 then begin
      dst.(!k) <- a.(!i);
      incr i
    end
    else begin
      dst.(!k) <- src2.(!j);
      incr j
    end;
    incr k
  done;
  if !i < e1 then Array.blit a !i dst !k (e1 - !i)
  else Array.blit src2 !j dst !k (e2 - !j)

(* [a.(srcofs .. srcofs+len-1)] sorted into [dst] from [dstofs]. *)
let rec sortto a srcofs dst dstofs len =
  if len <= cutoff then isortto a srcofs dst dstofs len
  else begin
    let l1 = len / 2 in
    let l2 = len - l1 in
    sortto a (srcofs + l1) dst (dstofs + l1) l2;
    sortto a srcofs a (srcofs + l2) l1;
    merge a (srcofs + l2) l1 dst (dstofs + l1) l2 dst dstofs
  end

let stable_sort a =
  let l = Array.length a in
  if l <= cutoff then isortto a 0 a 0 l
  else begin
    let l1 = l / 2 in
    let l2 = l - l1 in
    let t = Array.create_float l2 in
    sortto a l1 t 0 l2;
    sortto a 0 a l2 l1;
    merge a l2 l1 t 0 l2 a 0
  end

(* Every requested percentile of [arr], sorted in place first. The sort
   is stable and [Float.compare] orders floats as polymorphic [compare]
   does, so equal samples such as [-0.] and [0.] keep their input order
   and every interpolated value keeps its bits. *)
let sort_percentiles ps arr =
  List.iter
    (fun p ->
      if not (p >= 0. && p <= 100.) then
        invalid_arg "Stats.percentile: p out of range")
    ps;
  stable_sort arr;
  let n = Array.length arr in
  List.map
    (fun p ->
      if n = 1 then arr.(0)
      else begin
        let rank = p /. 100. *. float_of_int (n - 1) in
        let lo = int_of_float (floor rank) in
        let hi = min (n - 1) (lo + 1) in
        let frac = rank -. float_of_int lo in
        (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
      end)
    ps

let percentiles ps xs =
  sort_percentiles ps (Array.of_list (require_nonempty "Stats.percentile" xs))

let percentiles_array ps xs =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty array";
  sort_percentiles ps (Array.copy xs)

let percentile p xs = List.hd (percentiles [ p ] xs)

let median xs = percentile 50. xs

let minimum xs = List.fold_left min infinity (require_nonempty "Stats.minimum" xs)

let maximum xs = List.fold_left max neg_infinity (require_nonempty "Stats.maximum" xs)

let histogram ~bins xs =
  let xs = require_nonempty "Stats.histogram" xs in
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let lo = minimum xs and hi = maximum xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
  let counts = Array.make bins 0 in
  let place x =
    let i = int_of_float ((x -. lo) /. width) in
    let i = max 0 (min (bins - 1) i) in
    counts.(i) <- counts.(i) + 1
  in
  List.iter place xs;
  Array.mapi
    (fun i c ->
      let b_lo = lo +. (float_of_int i *. width) in
      (b_lo, b_lo +. width, c))
    counts

let kendall_tau pairs =
  match pairs with
  | [] | [ _ ] -> invalid_arg "Stats.kendall_tau: need at least two samples"
  | _ ->
    let arr = Array.of_list pairs in
    let n = Array.length arr in
    let concordant = ref 0
    and discordant = ref 0
    and ties_x = ref 0
    and ties_y = ref 0 in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        let xi, yi = arr.(i) and xj, yj = arr.(j) in
        let sx = compare xi xj and sy = compare yi yj in
        if sx = 0 && sy = 0 then begin
          incr ties_x;
          incr ties_y
        end
        else if sx = 0 then incr ties_x
        else if sy = 0 then incr ties_y
        else if sx * sy > 0 then incr concordant
        else incr discordant
      done
    done;
    let pairs_total = n * (n - 1) / 2 in
    let denom_x = float_of_int (pairs_total - !ties_x)
    and denom_y = float_of_int (pairs_total - !ties_y) in
    let denom = sqrt (denom_x *. denom_y) in
    if denom = 0. then 0.
    else float_of_int (!concordant - !discordant) /. denom

let pearson pairs =
  match pairs with
  | [] | [ _ ] -> invalid_arg "Stats.pearson: need at least two samples"
  | _ ->
    let xs = List.map fst pairs and ys = List.map snd pairs in
    let mx = mean xs and my = mean ys in
    let num =
      List.fold_left (fun acc (x, y) -> acc +. ((x -. mx) *. (y -. my))) 0. pairs
    in
    let sx = sqrt (List.fold_left (fun a x -> a +. ((x -. mx) ** 2.)) 0. xs) in
    let sy = sqrt (List.fold_left (fun a y -> a +. ((y -. my) ** 2.)) 0. ys) in
    if sx = 0. || sy = 0. then 0. else num /. (sx *. sy)
