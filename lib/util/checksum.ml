(* FNV-1a, 64-bit. Not cryptographic — the artifact stores use it to
   detect accidental corruption (bit flips, truncation, interleaved
   writes), where a fast, dependency-free hash with a fixed-width hex
   rendering is exactly enough. *)

let prime = 0x100000001b3L

let basis = 0xcbf29ce484222325L

let step h c = Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) prime

let extend h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := step !h (String.unsafe_get s i)
  done;
  !h

let fnv1a64 s = extend basis s

let fnv1a64_lines = function
  | [] -> basis
  | first :: rest ->
    List.fold_left (fun h line -> extend (step h '\n') line) (extend basis first) rest

let to_hex h = Printf.sprintf "%016Lx" h

let fnv1a64_hex s = to_hex (fnv1a64 s)
