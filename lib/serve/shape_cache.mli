(** Bounded LRU cache of compiled programs, keyed by GEMM shape.

    The compiler's own per-shape memo ({!Mikpoly_core.Compiler.compile})
    is unbounded — fine for experiments, unacceptable for a long-running
    serving replica where the stream of distinct dynamic shapes grows
    without limit. This cache is the serving-side replacement: a fixed
    capacity, least-recently-used eviction, and counters so the runtime
    can report hit rate and compile-stall behaviour instead of inferring
    it. A capacity of 0 models a cache-less system: every lookup misses
    and nothing is retained. Shapes are hashed and compared as three
    ints ({!Mikpoly_util.Int_keys.Triple}), not by the polymorphic
    [Hashtbl.hash] and [compare]. *)

type key = int * int * int
(** A GEMM shape (M, N, K). *)

type 'a t

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  size : int;
  capacity : int;
}

val create : capacity:int -> 'a t
(** [capacity] must be >= 0; 0 caches nothing. *)

val create_weighted : weight:(key -> float) -> capacity:int -> 'a t
(** Like {!create}, but with mass-aware admission instead of plain LRU:
    when the cache is full, the victim is the {e lowest-weight} resident
    (recency breaks ties, oldest first), and an incoming key whose weight
    is strictly below that victim's is refused outright ({!rejections}
    counts refusals). [weight] is consulted at admission time, so a
    time-decayed mass (e.g. {!Mikpoly_fleet.Learner} bucket mass) works:
    each decision uses the masses current at that moment. A cold-bucket
    scan therefore churns only among cold residents and can never push
    out a hot bucket — the failure mode of plain LRU under scans longer
    than the capacity. *)

val capacity : 'a t -> int

val size : 'a t -> int

val mem : 'a t -> key -> bool
(** Membership without touching recency or counters. *)

val find : 'a t -> key -> 'a option
(** Counts a hit or a miss and, on hit, marks the entry most recently
    used. *)

val find_n : 'a t -> key -> int -> 'a option
(** [find_n t key n] is [n] consecutive {!find}s of [key] in O(1): a
    resident key takes [n] hits and ends most recently used, with the
    recency clock advanced by [n] exactly as [n] finds advance it; an
    absent key takes one miss, as the first of those finds would, and
    the caller decides what the rest do. Raises [Invalid_argument] if
    [n < 1]. *)

val add : 'a t -> key -> 'a -> unit
(** Insert (or refresh) a binding, evicting the least recently used
    entry if the cache is full (for a {!create_weighted} cache: the
    lowest-weight entry, or refusing the insert — see there). No-op at
    capacity 0. Refreshing a resident key never consults the admission
    policy. *)

val rejections : 'a t -> int
(** Inserts refused by weighted admission; always 0 for {!create}
    caches. *)

val stats : 'a t -> stats

val hit_rate : stats -> float
(** hits / (hits + misses); 0 when no lookups happened. *)

val total : stats list -> stats
(** Field-wise sum, for aggregating per-replica caches. *)

val lru_order : 'a t -> key list
(** Current keys, least recently used first. Exposed for tests. *)
