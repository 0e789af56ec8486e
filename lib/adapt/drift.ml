let alpha = 0.2 (* EWMA smoothing of the reported residual level *)

let delta = 0.05 (* Page–Hinkley slack: drift magnitude to ignore *)

let lambda = 0.5 (* Page–Hinkley threshold: deviation mass to fire *)

type t = {
  mutable count : int;
  mutable mean : float;
  mutable ewma : float;
  mutable m_up : float;
  mutable m_up_min : float;
  mutable m_dn : float;
  mutable m_dn_max : float;
}

let create () =
  {
    count = 0;
    mean = 0.;
    ewma = 0.;
    m_up = 0.;
    m_up_min = 0.;
    m_dn = 0.;
    m_dn_max = 0.;
  }

let reset t =
  t.count <- 0;
  t.mean <- 0.;
  t.ewma <- 0.;
  t.m_up <- 0.;
  t.m_up_min <- 0.;
  t.m_dn <- 0.;
  t.m_dn_max <- 0.

let count t = t.count

let mean t = t.mean

let ewma t = t.ewma

let observe t x =
  t.count <- t.count + 1;
  if t.count = 1 then t.ewma <- x
  else t.ewma <- (alpha *. x) +. ((1. -. alpha) *. t.ewma);
  t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.count);
  (* Two-sided Page–Hinkley on the deviation from the running mean: a
     constant bias moves the mean, not the cumulative deviations, so only
     mid-stream shifts accumulate past [lambda]. *)
  t.m_up <- t.m_up +. (x -. t.mean -. delta);
  if t.m_up < t.m_up_min then t.m_up_min <- t.m_up;
  t.m_dn <- t.m_dn +. (x -. t.mean +. delta);
  if t.m_dn > t.m_dn_max then t.m_dn_max <- t.m_dn;
  let fired =
    t.m_up -. t.m_up_min > lambda || t.m_dn_max -. t.m_dn > lambda
  in
  if fired then reset t;
  fired
