(* Gradient-boosted decision stumps over the Features vector, fitted to
   log-residual targets. Pure OCaml, no dependencies, and bit-reproducible:
   the greedy split search scans features in index order and thresholds in
   ascending order, taking the first strict improvement — so equal-gain
   splits resolve to (lowest feature, lowest threshold) and the same
   training set always yields the same model. *)

type stump = {
  s_feature : int;
  s_threshold : float;
  s_left : float;  (** added when [x.(s_feature) <= s_threshold] *)
  s_right : float;
}

type t = {
  base : float;
  stumps : stump list;  (** in boosting order; contributions sum *)
}

let constant base = { base; stumps = [] }

let predict t x =
  List.fold_left
    (fun acc s ->
      acc +. (if x.(s.s_feature) <= s.s_threshold then s.s_left else s.s_right))
    t.base t.stumps

(* Best stump for the current residuals on one feature: examples sorted
   by feature value, every midpoint between distinct consecutive values a
   candidate threshold; the SSE reduction of a split with mean leaves is
   S_L²/n_L + S_R²/n_R − S²/n, so maximizing the first two terms
   suffices. Returns (gain, threshold, left_sum, left_n). *)
let best_split_on xs residuals feature =
  let sorted =
    let a = Array.init (Array.length xs) Fun.id in
    Array.sort
      (fun i j ->
        match compare xs.(i).(feature) xs.(j).(feature) with
        | 0 -> compare i j
        | c -> c)
      a;
    a
  in
  let n = Array.length sorted in
  let total = Array.fold_left (fun acc i -> acc +. residuals.(i)) 0. sorted in
  let best = ref None in
  let left_sum = ref 0. in
  for pos = 0 to n - 2 do
    let i = sorted.(pos) in
    left_sum := !left_sum +. residuals.(i);
    let here = xs.(i).(feature) and next = xs.(sorted.(pos + 1)).(feature) in
    if here < next then begin
      let nl = float_of_int (pos + 1) and nr = float_of_int (n - pos - 1) in
      let sl = !left_sum in
      let sr = total -. sl in
      let gain = (sl *. sl /. nl) +. (sr *. sr /. nr) in
      let threshold = here +. ((next -. here) /. 2.) in
      match !best with
      | Some (g, _, _, _) when g >= gain -> ()
      | _ -> best := Some (gain, threshold, sl, pos + 1)
    end
  done;
  !best

let fit ?base ?(rounds = 64) ?(learning_rate = 0.25) ~features:xs ~targets ()
    =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Model.fit: no examples";
  if Array.length targets <> n then
    invalid_arg "Model.fit: features/targets length mismatch";
  if rounds < 0 then invalid_arg "Model.fit: negative rounds";
  let dim = Array.length xs.(0) in
  let model =
    match base with
    | Some m -> m
    | None ->
      (* Cold fit: the base is the target mean, so a 0-round model is the
         best constant predictor. *)
      constant (Array.fold_left ( +. ) 0. targets /. float_of_int n)
  in
  let pred = Array.init n (fun i -> predict model xs.(i)) in
  let residuals = Array.init n (fun i -> targets.(i) -. pred.(i)) in
  let new_stumps = ref [] in
  (try
     for _round = 1 to rounds do
       let best = ref None in
       for f = 0 to dim - 1 do
         match best_split_on xs residuals f with
         | None -> ()
         | Some (gain, threshold, sl, nl) -> (
           match !best with
           | Some (g, _, _, _, _) when g >= gain -> ()
           | _ -> best := Some (gain, f, threshold, sl, nl))
       done;
       match !best with
       | None -> raise Exit (* every feature constant *)
       | Some (_, f, threshold, sl, nl) ->
         let total = Array.fold_left ( +. ) 0. residuals in
         let left = learning_rate *. (sl /. float_of_int nl) in
         let right =
           learning_rate *. ((total -. sl) /. float_of_int (n - nl))
         in
         let s = { s_feature = f; s_threshold = threshold; s_left = left; s_right = right } in
         new_stumps := s :: !new_stumps;
         for i = 0 to n - 1 do
           residuals.(i) <-
             residuals.(i)
             -. (if xs.(i).(f) <= threshold then left else right)
         done
     done
   with Exit -> ());
  { model with stumps = model.stumps @ List.rev !new_stumps }
