module Tm = Mikpoly_telemetry

let m_admitted = Tm.Metrics.counter "fleet.ratelimit.admitted"

let m_shed = Tm.Metrics.counter "fleet.ratelimit.shed"

type config = {
  rl_rate : float;
  rl_burst : float;
}

(* [not (x >= bound)], so that NaN fails each check too. *)
let validate c =
  if not (c.rl_rate > 0.) then invalid_arg "Ratelimit: rate must be > 0";
  if not (c.rl_burst >= 1.) then invalid_arg "Ratelimit: burst must be >= 1"

let for_tier ~base tier =
  let w = float_of_int (Tenant.weight tier) in
  { rl_rate = base.rl_rate *. w; rl_burst = base.rl_burst *. w }

type bucket = {
  b_config : config;
  mutable b_tokens : float;
  mutable b_refilled : float;  (* event-clock instant of the last refill *)
  mutable b_admitted : int;
  mutable b_shed : int;
}

type t = {
  rate_for : Tenant.t -> config;
  buckets : (int, bucket) Hashtbl.t;
}

let create ~rate_for = { rate_for; buckets = Hashtbl.create 16 }

let bucket t (tenant : Tenant.t) =
  match Hashtbl.find_opt t.buckets tenant.Tenant.tenant_id with
  | Some b -> b
  | None ->
    let config = t.rate_for tenant in
    validate config;
    let b =
      {
        b_config = config;
        b_tokens = config.rl_burst;
        b_refilled = 0.;
        b_admitted = 0;
        b_shed = 0;
      }
    in
    Hashtbl.replace t.buckets tenant.Tenant.tenant_id b;
    b

let admit t ~now (tg : Tenant.tagged) =
  let b = bucket t tg.Tenant.tenant in
  let dt = Float.max 0. (now -. b.b_refilled) in
  b.b_tokens <- Float.min b.b_config.rl_burst
      (b.b_tokens +. (dt *. b.b_config.rl_rate));
  b.b_refilled <- Float.max b.b_refilled now;
  if b.b_tokens >= 1. then begin
    b.b_tokens <- b.b_tokens -. 1.;
    b.b_admitted <- b.b_admitted + 1;
    Tm.Metrics.incr m_admitted;
    true
  end
  else begin
    b.b_shed <- b.b_shed + 1;
    Tm.Metrics.incr m_shed;
    false
  end

type stats = {
  rl_admitted : int;
  rl_shed : int;
  rl_tenants : int;
}

let stats t =
  Hashtbl.fold
    (fun _ b acc ->
      {
        rl_admitted = acc.rl_admitted + b.b_admitted;
        rl_shed = acc.rl_shed + b.b_shed;
        rl_tenants = acc.rl_tenants + 1;
      })
    t.buckets
    { rl_admitted = 0; rl_shed = 0; rl_tenants = 0 }
