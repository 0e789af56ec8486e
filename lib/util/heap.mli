(** Mutable binary min-heap of payloads keyed by a float and an int
    tie-breaker. Used by the GPU event dispatcher ([Accel.Sched]) and by
    each serving replica's waiting queue ([Serve.Batcher]).

    Keys and ties live in unboxed arrays, so an operation allocates
    nothing but the occasional doubling of the arrays; there is no
    comparison closure and no option.

    Entry [a] sorts before entry [b] when [Float.compare a.key b.key < 0],
    or the keys compare equal and [a.tie < b.tie]. Entries equal in both
    pop in an order fixed by the sequence of operations alone. [push]
    appends the entry and swaps it with its parent while it sorts
    strictly before the parent. [pop] moves the last entry to the root
    and sifts it down: at each level the candidate is the entry, replaced
    by the left child if that sorts strictly before it, then by the right
    child if that sorts strictly before the candidate; the entry swaps
    with a child candidate and stops when the candidate is itself. The GPU
    dispatcher passes a constant tie and relies on this rule for its
    order among equal keys. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> int -> 'a -> unit
(** [push t key tie x] inserts [x]. *)

val min_key : 'a t -> float
(** The key of the minimum entry. Raises [Invalid_argument] if empty. *)

val top : 'a t -> 'a
(** The payload of the minimum entry, left in place. Raises
    [Invalid_argument] if empty. *)

val pop : 'a t -> 'a
(** Remove the minimum entry and return its payload. Raises
    [Invalid_argument] if empty. *)
