type t = { xs : float array; ys : float array }

let of_points pts =
  let pts = List.sort (fun (a, _) (b, _) -> compare a b) pts in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then invalid_arg "Piecewise.of_points: duplicate abscissa";
      check rest
    | _ -> ()
  in
  check pts;
  if List.length pts < 2 then invalid_arg "Piecewise.of_points: need >= 2 points";
  { xs = Array.of_list (List.map fst pts); ys = Array.of_list (List.map snd pts) }

let breakpoints t = Array.to_list (Array.map2 (fun x y -> (x, y)) t.xs t.ys)

let to_string t =
  String.concat " "
    (List.map (fun (x, y) -> Printf.sprintf "%.9g:%.9g" x y) (breakpoints t))

let points_of_string s =
  let parse_one tok =
    match String.split_on_char ':' tok with
    | [ x; y ] -> (float_of_string x, float_of_string y)
    | _ -> failwith "bad breakpoint"
  in
  List.map parse_one
    (List.filter (fun t -> t <> "") (String.split_on_char ' ' s))

let eval t x =
  let n = Array.length t.xs in
  (* Find the segment [i, i+1] bracketing x (clamped for extrapolation). *)
  let rec search lo hi =
    if hi - lo <= 1 then lo
    else begin
      let mid = (lo + hi) / 2 in
      if t.xs.(mid) <= x then search mid hi else search lo mid
    end
  in
  let i =
    if x <= t.xs.(0) then 0
    else if x >= t.xs.(n - 1) then n - 2
    else search 0 (n - 1)
  in
  let x0 = t.xs.(i) and x1 = t.xs.(i + 1) in
  let y0 = t.ys.(i) and y1 = t.ys.(i + 1) in
  y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0))

let rel_error approx exact =
  if exact = 0. then abs_float approx else abs_float (approx -. exact) /. abs_float exact

let max_rel_error t samples =
  List.fold_left (fun acc (x, y) -> max acc (rel_error (eval t x) y)) 0. samples

(* Error introduced at sample [k] if breakpoints [i..j] (exclusive) were
   replaced by the straight segment from i to j. *)
let segment_error xs ys i j k =
  let x0 = xs.(i) and x1 = xs.(j) in
  let y0 = ys.(i) and y1 = ys.(j) in
  let approx = y0 +. ((y1 -. y0) *. (xs.(k) -. x0) /. (x1 -. x0)) in
  rel_error approx ys.(k)

let fit ?(max_segments = 16) ?(tolerance = 0.01) samples =
  let exact = of_points samples in
  let xs = exact.xs and ys = exact.ys in
  let n = Array.length xs in
  if n <= 2 then exact
  else begin
    (* [keep.(i)] marks breakpoints retained in the model. Greedily drop the
       interior breakpoint whose removal has the smallest induced error. *)
    let keep = Array.make n true in
    let kept () =
      let acc = ref [] in
      for i = n - 1 downto 0 do
        if keep.(i) then acc := i :: !acc
      done;
      !acc
    in
    let removal_cost idx =
      (* Neighbouring kept breakpoints around idx. *)
      let rec prev i = if keep.(i) then i else prev (i - 1) in
      let rec next i = if keep.(i) then i else next (i + 1) in
      let i = prev (idx - 1) and j = next (idx + 1) in
      let err = ref 0. in
      for k = i + 1 to j - 1 do
        if k <> idx && not keep.(k) then err := max !err (segment_error xs ys i j k)
      done;
      err := max !err (segment_error xs ys i j idx);
      !err
    in
    let continue = ref true in
    while !continue do
      let interior = List.filter (fun i -> i > 0 && i < n - 1) (kept ()) in
      let segments = List.length (kept ()) - 1 in
      if interior = [] then continue := false
      else begin
        let best =
          List.fold_left
            (fun acc idx ->
              let cost = removal_cost idx in
              match acc with
              | Some (_, best_cost) when best_cost <= cost -> acc
              | _ -> Some (idx, cost))
            None interior
        in
        match best with
        | None -> continue := false
        | Some (idx, cost) ->
          if cost <= tolerance || segments > max_segments then keep.(idx) <- false
          else continue := false
      end
    done;
    let pts = List.map (fun i -> (xs.(i), ys.(i))) (kept ()) in
    of_points pts
  end
