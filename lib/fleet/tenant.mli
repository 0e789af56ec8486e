(** Tenants and multi-tenant request traces.

    A fleet serves many tenants, each on an SLO tier that buys a
    weighted share of admission ({!Wfq}). Requests stay plain
    {!Mikpoly_serve.Request.t} values — the tenant rides alongside in a
    {!tagged} pair, so everything in [lib/serve] (batchers, bucketing,
    metrics) applies unchanged. *)

type tier =
  | Gold  (** weight 4 — paid, latency-sensitive traffic *)
  | Silver  (** weight 2 *)
  | Best_effort  (** weight 1 — batch/background traffic *)

val tier_name : tier -> string

val weight : tier -> int
(** Admission weight: a backlogged tenant receives service in proportion
    to its tier weight (4 : 2 : 1). *)

val tiers : tier list
(** All tiers, gold first. *)

type t = {
  tenant_id : int;  (** unique, non-negative *)
  tenant_name : string;
  tier : tier;
}

type tagged = {
  req : Mikpoly_serve.Request.t;
  tenant : t;
}

type spec = {
  tenant : t;
  rate : float;  (** Poisson arrival rate, requests/second *)
  count : int;
}

val requests : tagged list -> Mikpoly_serve.Request.t list
(** Strip the tenants — the trace a tenant-blind baseline scheduler
    sees. *)

type profile = {
  p_ttft : float option;  (** TTFT budget override for the tier *)
  p_tpot : float option;
  p_max_prompt : int option;
  p_max_output : int option;
  p_length_dist : Mikpoly_serve.Request.length_dist option;
}
(** Per-tier workload shape: interactive tiers carry tight first-token
    budgets and chat-sized prompts, batch tiers long loose-deadline
    jobs. [None] fields fall back to the trace-wide arguments. *)

val no_profile : profile

val trace :
  ?length_dist:Mikpoly_serve.Request.length_dist ->
  ?ttft_budget:float -> ?tpot_budget:float -> ?profiles:(tier -> profile) ->
  seed:int -> max_prompt:int ->
  max_output:int -> spec list -> unit -> tagged list
(** Merge per-tenant Poisson streams into one arrival-ordered trace.
    Each tenant draws from its own seed-derived PRNG stream (resizing
    one tenant never perturbs another's arrivals) and request ids are
    reassigned to be unique fleet-wide. Pass
    [~length_dist:(Pareto { alpha = 1.1 })] for the heavy-tail prompt
    mix of real multi-tenant traffic, and [profiles] to give each tier
    its own SLO budgets and length caps ({!profile}). Raises
    [Invalid_argument] on duplicate or negative tenant ids. *)

val lookup : tagged list -> int -> t
(** Tenant of a request id from the trace; raises [Invalid_argument] on
    an unknown id. *)
