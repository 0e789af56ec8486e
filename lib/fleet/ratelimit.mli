(** Tenant-level rate limiting ahead of the WFQ.

    One token bucket per tenant: capacity [burst], refilled at [rate]
    tokens per second of the *event clock*, lazily at each admission
    decision — so the limiter is as deterministic as the clock it is
    fed, independent of wall time and [--jobs]. A request costs one
    token by default (pass [~cost] to charge token work instead).

    This is overload *shedding before admission*: a tenant whose
    arrival rate exceeds its refill rate has its excess refused at the
    door with a terminal "rate-limited" status, instead of entering the
    WFQ and being shed per-replica after admission (the SLO batcher's
    job). Tiers buy bigger buckets via [rate_for]. *)

type config = {
  rl_rate : float;  (** sustained tokens/second (> 0) *)
  rl_burst : float;  (** bucket capacity (>= 1 request cost) *)
}

val validate : config -> unit
(** Raises [Invalid_argument] on non-positive rate or burst. *)

val for_tier : base:config -> Tenant.tier -> config
(** Scale a base bucket by the tier's WFQ weight (4 : 2 : 1), so the
    shedding order under fleet-wide overload matches the service
    order. *)

type t

val create :
  ?cost:(Mikpoly_serve.Request.t -> float) ->
  rate_for:(Tenant.t -> config) ->
  unit ->
  t
(** Buckets are created lazily per tenant, full. [cost] defaults to
    [fun _ -> 1.] (each request is one token). *)

val admit : t -> now:float -> Tenant.tagged -> bool
(** Refill the request's tenant bucket up to [now], then try to spend
    the request's cost: [true] admits (tokens deducted), [false] sheds.
    [now] must not run backwards for a given tenant; the bucket clamps
    regressive clocks to the last refill instant. *)

type stats = {
  rl_admitted : int;
  rl_shed : int;
  rl_tenants : int;  (** distinct tenants seen *)
}

val stats : t -> stats
