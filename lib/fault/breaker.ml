module Tm = Mikpoly_telemetry

let m_trips = Tm.Metrics.counter "fault.breaker.trips"

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type policy = {
  failure_threshold : int;
  cooldown : float;
}

let default = { failure_threshold = 3; cooldown = 1.0 }

type stats = {
  trips : int;
  probes : int;
  consecutive_failures : int;
  rejected : int;
}

type t = {
  policy : policy;
  mutable state : state;
  mutable failures : int;  (** consecutive, while closed *)
  mutable open_until : float;
  mutable trips : int;
  mutable probes : int;
  mutable rejected : int;
}

(* [not (cooldown >= 0.)]: a NaN cooldown would never let an open
   breaker probe again ([now >= nan] is false). *)
let validate policy =
  if policy.failure_threshold < 1 then
    invalid_arg "Breaker: failure_threshold must be >= 1";
  if not (policy.cooldown >= 0.) then
    invalid_arg "Breaker: cooldown must be >= 0"

let create ?(policy = default) () =
  validate policy;
  {
    policy;
    state = Closed;
    failures = 0;
    open_until = 0.;
    trips = 0;
    probes = 0;
    rejected = 0;
  }

let trip t ~now =
  t.state <- Open;
  t.open_until <- now +. t.policy.cooldown;
  t.failures <- 0;
  t.trips <- t.trips + 1;
  Tm.Metrics.incr m_trips

(* [now] is whatever monotone clock the protected loop lives on — the
   serving event clock, or an observation counter for the adapter. *)
let allow t ~now =
  match t.state with
  | Closed -> true
  | Half_open ->
    (* A probe is already in flight; hold further work until its verdict
       arrives as record_success/record_failure. *)
    t.rejected <- t.rejected + 1;
    false
  | Open ->
    if now >= t.open_until then begin
      t.state <- Half_open;
      t.probes <- t.probes + 1;
      true
    end
    else begin
      t.rejected <- t.rejected + 1;
      false
    end

(* Pure peek for schedulers that must *rank* a breaker-guarded target
   among alternatives before committing to it: same verdict [allow]
   would give, but no Open->Half_open transition and no rejection
   accounting, so calling it any number of times (in any event-scan
   order) cannot perturb the breaker's state. *)
let would_allow t ~now =
  match t.state with
  | Closed -> true
  | Half_open -> false
  | Open -> now >= t.open_until

let record_success t =
  t.state <- Closed;
  t.failures <- 0

let record_failure t ~now =
  match t.state with
  | Half_open -> trip t ~now (* the probe failed: back to open *)
  | Open -> ()
  | Closed ->
    t.failures <- t.failures + 1;
    if t.failures >= t.policy.failure_threshold then trip t ~now

let state t = t.state

let stats t =
  {
    trips = t.trips;
    probes = t.probes;
    consecutive_failures = t.failures;
    rejected = t.rejected;
  }
