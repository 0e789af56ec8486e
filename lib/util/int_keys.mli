(** Keys of one, two and three ints for [Hashtbl.Make]. Equality and hash
    read the ints directly, instead of going through the polymorphic
    [compare] and [Hashtbl.hash] ([caml_compare], [caml_hash]) as a
    plain [Hashtbl] does. *)

module Int : Hashtbl.HashedType with type t = int

module Pair : Hashtbl.HashedType with type t = int * int

module Triple : Hashtbl.HashedType with type t = int * int * int
(** A GEMM shape (M, N, K): the key of [Serve.Shape_cache] and of the
    engines' per-shape memos. *)
