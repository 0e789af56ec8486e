module Breaker = Mikpoly_fault.Breaker

type level = Healthy | Degraded | Evicted

let level_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Evicted -> "evicted"

type config = {
  breaker : Breaker.policy;
  ewma_alpha : float;
  degrade_enter : float;
  degrade_exit : float;
  min_dwell : float;
}

let default =
  {
    breaker = { Breaker.failure_threshold = 3; cooldown = 0.5 };
    ewma_alpha = 0.3;
    degrade_enter = 2.0;
    degrade_exit = 1.2;
    min_dwell = 0.1;
  }

(* [not (x >= bound)], so that NaN fails each check too. *)
let validate c =
  Breaker.validate c.breaker;
  if not (c.ewma_alpha > 0. && c.ewma_alpha <= 1.) then
    invalid_arg "Health: ewma_alpha must be in (0, 1]";
  if not (c.degrade_enter > 1.) then
    invalid_arg "Health: degrade_enter must be > 1";
  if not (c.degrade_exit < c.degrade_enter) then
    invalid_arg "Health: degrade_exit must be < degrade_enter (hysteresis)";
  if not (c.min_dwell >= 0.) then invalid_arg "Health: min_dwell must be >= 0"

type t = {
  config : config;
  breaker : Breaker.t;
  mutable ewma : float;
  mutable rung : level;  (* Healthy | Degraded only; Evicted is the breaker *)
  mutable rung_since : float;
  mutable transitions : int;
  mutable degraded_entries : int;
}

let create config =
  validate config;
  {
    config;
    breaker = Breaker.create ~policy:config.breaker ();
    ewma = 1.;
    rung = Healthy;
    rung_since = 0.;
    transitions = 0;
    degraded_entries = 0;
  }

let observe t ~now ~slowdown ~failed =
  let c = t.config in
  t.ewma <- (c.ewma_alpha *. slowdown) +. ((1. -. c.ewma_alpha) *. t.ewma);
  (* The ladder: entering Degraded is immediate on crossing the enter
     threshold (protect the fleet fast); leaving needs the EWMA back
     under the lower exit threshold AND the dwell elapsed — the
     hysteresis that keeps a flapping class from churning the routing
     and thrashing each class's warm store. *)
  (match t.rung with
  | Healthy when t.ewma >= c.degrade_enter ->
    t.rung <- Degraded;
    t.rung_since <- now;
    t.transitions <- t.transitions + 1;
    t.degraded_entries <- t.degraded_entries + 1
  | Degraded
    when t.ewma <= c.degrade_exit && now -. t.rung_since >= c.min_dwell ->
    t.rung <- Healthy;
    t.rung_since <- now;
    t.transitions <- t.transitions + 1
  | _ -> ());
  if failed then begin
    let trips_before = (Breaker.stats t.breaker).Breaker.trips in
    Breaker.record_failure t.breaker ~now;
    if (Breaker.stats t.breaker).Breaker.trips > trips_before then `Tripped
    else `Ok
  end
  else begin
    Breaker.record_success t.breaker;
    `Ok
  end

let level t =
  match Breaker.state t.breaker with
  | Breaker.Open | Breaker.Half_open -> Evicted
  | Breaker.Closed -> t.rung

let probe_ready t ~now =
  match Breaker.state t.breaker with
  | Breaker.Open -> Breaker.would_allow t.breaker ~now
  | Breaker.Closed | Breaker.Half_open -> false

let admit_probe t ~now = Breaker.allow t.breaker ~now

let breaker_stats t = Breaker.stats t.breaker

let transitions t = t.transitions

let degraded_entries t = t.degraded_entries
