type config = {
  min_replicas : int;
  max_replicas : int;
  up_queue_depth : float;
  down_queue_depth : float;
  cooldown : float;
  interval : float;
}

(* Running SLO attainment below which the fleet counts as overloaded. *)
let slo_floor = 0.9

(* Compile-stall fraction of busy time above which scale-up is
   pointless: cold caches would add stalls. *)
let stall_ceiling = 0.5

let validate c =
  if c.min_replicas < 1 then
    invalid_arg "Autoscaler: min_replicas must be >= 1";
  if c.max_replicas < c.min_replicas then
    invalid_arg "Autoscaler: max_replicas must be >= min_replicas";
  (* [not (x >= bound)], so that NaN fails each check too. *)
  if not (c.down_queue_depth >= 0. && c.up_queue_depth > c.down_queue_depth)
  then
    invalid_arg
      "Autoscaler: need 0 <= down_queue_depth < up_queue_depth (hysteresis)";
  if not (c.cooldown >= 0.) then invalid_arg "Autoscaler: cooldown must be >= 0";
  if not (c.interval > 0.) then invalid_arg "Autoscaler: interval must be > 0"

type signal = {
  queue_depth : float;
  slo_attainment : float;
  stall_ratio : float;
  live_replicas : int;
  down_replicas : int;
}

type decision = Hold | Scale_up | Scale_down

let decision_name = function
  | Hold -> "hold"
  | Scale_up -> "scale-up"
  | Scale_down -> "scale-down"

(* Hysteresis: scale up above [up_queue_depth] (or below [slo_floor]),
   scale down only below the strictly smaller [down_queue_depth] — the
   gap prevents flapping, and [cooldown] spaces consecutive changes.
   Two fault-plane rules: a crashed replica counts against capacity
   (down replicas are part of the fleet for the max bound) and is NEVER
   read as a scale-down signal — low queue depth while replicas are
   down means the fleet is shedding, not over-provisioned. And when the
   stall ratio is already above [stall_ceiling], adding a cold-cache
   replica would add compile stalls, not capacity — hold instead. *)
let decide c ~last_change ~now signal =
  if signal.live_replicas + signal.down_replicas < c.min_replicas then
    Scale_up
  else if now -. last_change < c.cooldown then Hold
  else begin
    let overloaded =
      signal.queue_depth > c.up_queue_depth
      || signal.slo_attainment < slo_floor
    in
    if overloaded then
      if
        signal.live_replicas + signal.down_replicas < c.max_replicas
        && signal.stall_ratio <= stall_ceiling
      then Scale_up
      else Hold
    else if signal.down_replicas > 0 then Hold
    else if
      signal.queue_depth < c.down_queue_depth
      && signal.slo_attainment >= slo_floor
      && signal.live_replicas > c.min_replicas
    then Scale_down
    else Hold
  end
