(* Products carry low bits only upward, so the high half is folded back
   onto the low bits a power-of-two table indexes by. *)
let mix h =
  let h = h * 0x100000001b3 in
  (h lxor (h lsr 31)) land max_int

module Int = struct
  type t = int

  let equal (a : int) b = a = b

  let hash = mix
end

module Pair = struct
  type t = int * int

  let equal ((a, b) : t) ((a', b') : t) = a = a' && b = b'

  let hash ((a, b) : t) = mix (mix a lxor b)
end

module Triple = struct
  type t = int * int * int

  let equal ((a, b, c) : t) ((a', b', c') : t) = a = a' && b = b' && c = c'

  let hash ((a, b, c) : t) = mix (mix (mix a lxor b) lxor c)
end
