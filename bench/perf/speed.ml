(* Machine speed, measured next to every set-up and repetition.

   The shared hosts this benchmark runs on drift by tens of percent over
   minutes, and every workload drifts with them. A fixed computation
   timed right before and after a measurement slows down by about the
   same factor, so the benchmark scales its host times by
   [measure () /. nominal]: they read as times on a host where the
   reference takes [nominal] seconds. *)

(* About the reference's time on the 2-core x86 host the benchmark was
   written on, so scaled numbers stay close to raw ones there. *)
let nominal = 0.018

module Int_map = Map.Make (Int)

(* The workloads' own kind of work, from the standard library only (so
   no change to the program can speed it up): building and sorting
   lists, and map and hash-table updates and lookups. Everything but a
   4096-key table dies young, so the workload's heap barely changes the
   reference's cost. Over 7 minutes on a 2-core VM, dividing by it cut
   the spread of 10-repetition medians from 14% to 3% for a serving
   loop and from 17% to 4% for cold compiles; a pointer chase over
   4 MiB tracked the host's drift less well. *)
let work () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for round = 1 to 24 do
    let l = List.init 2000 (fun i -> ((i * 7919) + (round * 104729)) land 0xFFF) in
    let m =
      List.fold_left
        (fun m x -> Int_map.add x round m)
        Int_map.empty (List.sort compare l)
    in
    List.iter (fun x -> Hashtbl.replace h x round) l;
    acc := List.fold_left (fun s x -> s + Hashtbl.find h x + Int_map.find x m) !acc l
  done;
  ignore (Sys.opaque_identity !acc)

(* The faster of two runs of the reference, in seconds. *)
let measure () =
  let once () =
    let t0 = Spans.now () in
    work ();
    Spans.now () -. t0
  in
  let a = once () in
  Float.min a (once ())
