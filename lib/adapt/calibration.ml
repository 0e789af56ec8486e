module Pw = Mikpoly_util.Piecewise

type key = int * int * int

type curve =
  | Identity
  | Scale of float
  | Affine of float * float
  | Knots of Pw.t

type t = {
  fingerprint : string;
  curves : (key * curve) list;  (** sorted by key *)
}

let identity ~fingerprint = { fingerprint; curves = [] }

let of_curves ~fingerprint curves =
  let sorted = List.sort (fun (k1, _) (k2, _) -> compare k1 k2) curves in
  { fingerprint; curves = sorted }

let fingerprint t = t.fingerprint

let curves t = t.curves

let find t key = List.assoc_opt key t.curves

let eval_curve curve x =
  let y =
    match curve with
    | Identity -> x
    | Scale a -> a *. x
    | Affine (a, b) -> (a *. x) +. b
    | Knots pw -> Pw.eval pw x
  in
  Float.max 0. y

let apply t key x =
  match find t key with None -> x | Some c -> eval_curve c x

let curve_equal a b =
  match (a, b) with
  | Identity, Identity -> true
  | Scale a, Scale b -> a = b
  | Affine (a1, b1), Affine (a2, b2) -> a1 = a2 && b1 = b2
  | Knots p1, Knots p2 -> Pw.breakpoints p1 = Pw.breakpoints p2
  | _ -> false

let equal a b =
  a.fingerprint = b.fingerprint
  && List.length a.curves = List.length b.curves
  && List.for_all2
       (fun (k1, c1) (k2, c2) -> k1 = k2 && curve_equal c1 c2)
       a.curves b.curves

(* Collapse samples sharing an abscissa to their mean ordinate, sorted by
   abscissa — both for determinism and because [Piecewise.of_points]
   rejects duplicate abscissae. *)
let condense samples =
  let sorted = List.sort compare samples in
  let rec group acc = function
    | [] -> List.rev acc
    | (x, y) :: rest ->
      let same, rest = List.partition (fun (x', _) -> x' = x) rest in
      let ys = y :: List.map snd same in
      let mean = List.fold_left ( +. ) 0. ys /. float_of_int (List.length ys) in
      group ((x, mean) :: acc) rest
  in
  group [] sorted

let affine_of points =
  (* Least squares y = a·x + b over the condensed points. *)
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. points in
  let denom = (n *. sxx) -. (sx *. sx) in
  if denom <= 0. then None
  else begin
    let a = ((n *. sxy) -. (sx *. sy)) /. denom in
    let b = (sy -. (a *. sx)) /. n in
    if a <= 0. then None else Some (Affine (a, b))
  end

let scale_of points =
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  if sx <= 0. || sy <= 0. then Identity else Scale (sy /. sx)

let curve_of_samples samples =
  let points =
    condense samples |> List.filter (fun (x, y) -> x > 0. && y > 0.)
  in
  match points with
  | [] -> Identity
  | [ _ ] -> scale_of points
  | _ :: _ :: _ when List.length points >= 4 ->
    Knots (Pw.fit ~max_segments:4 ~tolerance:0.02 points)
  | _ -> (
    match affine_of points with Some c -> c | None -> scale_of points)

let fit ~fingerprint samples =
  let curves =
    samples
    |> List.filter (fun (_, pts) -> pts <> [])
    |> List.map (fun (key, pts) -> (key, curve_of_samples pts))
    |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
  in
  { fingerprint; curves }

let correction_for_set (cal : t) (set : Mikpoly_core.Kernel_set.t) =
  (* Rank-indexed curve table: [Polymerize] calls the correction once per
     candidate region, so the lookup must not scan an assoc list. *)
  let table =
    Array.map
      (fun (e : Mikpoly_core.Kernel_set.entry) ->
        match find cal (e.desc.um, e.desc.un, e.desc.uk) with
        | Some c -> c
        | None -> Identity)
      set.entries
  in
  fun (e : Mikpoly_core.Kernel_set.entry) x ->
    if e.rank >= 0 && e.rank < Array.length table then
      eval_curve table.(e.rank) x
    else x

let curve_to_string = function
  | Identity -> "identity"
  | Scale a -> Printf.sprintf "scale %.9g" a
  | Affine (a, b) -> Printf.sprintf "affine %.9g %.9g" a b
  | Knots pw -> "knots " ^ Pw.to_string pw

let to_string t =
  String.concat ""
    (List.map
       (fun ((um, un, uk), c) ->
         Printf.sprintf "kernel %d %d %d %s\n" um un uk (curve_to_string c))
       t.curves)
