(* The cut walk [Mikpoly_core.Strategy_space] replaced with a closed
   form, kept as a reference model: [test_core]'s differential
   properties check the closed-form cut values, their order and their
   counts against it on both axes and under both styles.

   The walk steps down the wave counts of the pinned kernel's strip from
   the one below the maximal full-tile cut's, and keeps the largest
   strip of each wave count: [q = w·cap/tiles_other] tile rows, dropped
   when it repeats the previous cut. From each kept strip it jumps to
   the largest wave count whose strip is strictly smaller. *)

open Mikpoly_core

let ceil_div a b = (a + b - 1) / b

let rec walk_waves f acc ~tile ~tiles_other ~cap ~axis_len ~max_cuts ~count
    ~last w =
  if w < 1 then acc
  else begin
    let q = w * cap / tiles_other in
    if q < 1 then acc
    else begin
      let cut = q * tile in
      let added = cut < axis_len && cut < last in
      let acc = if added then f acc cut else acc in
      let count = if added then count + 1 else count in
      if count >= max_cuts then acc
      else
        walk_waves f acc ~tile ~tiles_other ~cap ~axis_len ~max_cuts ~count
          ~last:(if added then cut else last)
          (Int.min (w - 1) (ceil_div (q * tiles_other) cap - 1))
    end
  end

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
      let tiles_other = ceil_div other_len other_tile in
      walk_waves f acc ~tile ~tiles_other ~cap ~axis_len ~max_cuts ~count
        ~last:(if has_full then full else max_int)
        (ceil_div (q_full * tiles_other) cap - 1)
  end

let row_cuts style (e : Kernel_set.entry) ~rows ~cols ~max_cuts =
  List.rev
    (fold_axis_cuts style ~tile:e.desc.um ~other_tile:e.desc.un
       ~cap:e.wave_capacity ~axis_len:rows ~other_len:cols ~max_cuts
       (fun acc cut -> cut :: acc)
       [])

let col_cuts style (e : Kernel_set.entry) ~rows ~cols ~max_cuts =
  List.rev
    (fold_axis_cuts style ~tile:e.desc.un ~other_tile:e.desc.um
       ~cap:e.wave_capacity ~axis_len:cols ~other_len:rows ~max_cuts
       (fun acc cut -> cut :: acc)
       [])
