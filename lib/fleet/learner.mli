(** Online bucket learner: a decayed histogram of observed shape
    signatures per tenant.

    The fleet observes every arrival's bucketed shape signature and
    periodically asks for the top-K signatures by decayed mass; the warm
    store precompiles those buckets off the request critical path. Mass
    halves every event-clock second, so the ranking tracks
    the live distribution rather than the whole history. Fully
    deterministic: ranking ties go to the smaller signature, never to
    hash order. *)

type t

val create : unit -> t

val observe : t -> now:float -> tenant:int -> signature:int -> weight:float -> unit
(** Add [weight] mass (typically the tenant's tier weight, so paid
    traffic steers the warm store harder) to [(tenant, signature)] at
    event time [now]. *)

val top_k : t -> now:float -> k:int -> (int * float) list
(** Signatures ranked by decayed mass summed across tenants, largest
    first, at most [k]; ties break to the smaller signature. *)

val mass : t -> now:float -> signature:int -> float
(** Decayed mass of one signature summed across tenants at event time
    [now]; 0 for a never-observed signature. The admission weight behind
    the warm store's mass-aware eviction
    ({!Mikpoly_serve.Shape_cache.create_weighted}). *)

val signatures : t -> int list
(** Every signature ever observed, ascending — for reports. *)
