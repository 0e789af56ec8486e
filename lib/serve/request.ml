type slo = {
  ttft : float;
  e2e : float;
}

type t = {
  id : int;
  arrival : float;
  prompt_len : int;
  output_len : int;
  slo : slo;
}

type length_dist =
  | Log_uniform
  | Log_uniform_band of { lo : int }
  | Pareto of { alpha : float }
  | Log_normal of { sigma : float }

let dist_name = function
  | Log_uniform -> "log-uniform"
  | Log_uniform_band { lo } -> Printf.sprintf "log-uniform-band-%d" lo
  | Pareto { alpha } -> Printf.sprintf "pareto-%g" alpha
  | Log_normal { sigma } -> Printf.sprintf "lognormal-%g" sigma

let validate_dist = function
  | Log_uniform -> ()
  | Log_uniform_band { lo } ->
    if lo < 1 then invalid_arg "Request: Log_uniform_band lo must be >= 1"
  | Pareto { alpha } ->
    if alpha <= 0. then invalid_arg "Request: Pareto alpha must be positive"
  | Log_normal { sigma } ->
    if sigma <= 0. then invalid_arg "Request: Log_normal sigma must be positive"

module Ids = Hashtbl.Make (Mikpoly_util.Int_keys.Int)

let validate_trace ~caller request trace =
  let ids = Ids.create (List.length trace) in
  List.iter
    (fun x ->
      let r = request x in
      if not (Float.is_finite r.arrival) then
        invalid_arg
          (Printf.sprintf "%s: request %d arrives at %g" caller r.id r.arrival);
      if r.prompt_len < 1 then
        invalid_arg
          (Printf.sprintf "%s: request %d has prompt_len %d, below 1" caller r.id
             r.prompt_len);
      if r.output_len < 1 then
        invalid_arg
          (Printf.sprintf "%s: request %d has output_len %d, below 1" caller r.id
             r.output_len);
      if Ids.mem ids r.id then
        invalid_arg
          (Printf.sprintf "%s: request id %d appears more than once" caller r.id);
      Ids.add ids r.id ())
    trace

let compare_arrival a b =
  match compare a.arrival b.arrival with 0 -> compare a.id b.id | c -> c

let deadline r = r.arrival +. r.slo.e2e

let tokens r = r.prompt_len + r.output_len

let slo_for ?(ttft_budget = 0.25) ?(tpot_budget = 0.02) ~output_len () =
  if ttft_budget <= 0. || tpot_budget <= 0. then
    invalid_arg "Request.slo_for: budgets must be positive";
  { ttft = ttft_budget; e2e = ttft_budget +. (tpot_budget *. float_of_int output_len) }

let exponential rng ~rate =
  let u = Mikpoly_util.Prng.float rng 1.0 in
  -.log (1. -. u) /. rate

(* Draw a length in [1, hi] under the chosen tail. All three draws
   consume a bounded, distribution-dependent number of PRNG values, so
   traces remain bit-reproducible per seed. *)
let length_in rng dist hi =
  match dist with
  | Log_uniform -> Mikpoly_util.Prng.log_int_in rng 1 hi
  | Log_uniform_band { lo } -> Mikpoly_util.Prng.log_int_in rng (min lo hi) hi
  | Pareto { alpha } ->
    (* Inverse-CDF Pareto with x_min = 1: the classic heavy tail. [u] is
       in [0, 1), so [1 - u] is in (0, 1] and the power is finite. *)
    let u = Mikpoly_util.Prng.float rng 1.0 in
    let v = (1. -. u) ** (-1. /. alpha) in
    max 1 (min hi (int_of_float v))
  | Log_normal { sigma } ->
    (* Box–Muller on two draws; the median sits near the low end (x_min
       = 1) like Pareto, with sigma widening the tail. *)
    let u1 = Mikpoly_util.Prng.float rng 1.0 in
    let u2 = Mikpoly_util.Prng.float rng 1.0 in
    let z = sqrt (-2. *. log (1. -. u1)) *. cos (2. *. Float.pi *. u2) in
    let v = exp (sigma *. z) in
    max 1 (min hi (int_of_float v))

let draw rng ?(length_dist = Log_uniform) ?ttft_budget ?tpot_budget ~id ~arrival
    ~max_prompt ~max_output () =
  let prompt_len = length_in rng length_dist max_prompt in
  let output_len = length_in rng length_dist max_output in
  {
    id;
    arrival;
    prompt_len;
    output_len;
    slo = slo_for ?ttft_budget ?tpot_budget ~output_len ();
  }

let check_lengths ~count ~max_prompt ~max_output =
  if count < 0 then invalid_arg "Request: negative count";
  if max_prompt < 1 || max_output < 1 then
    invalid_arg "Request: max_prompt and max_output must be >= 1"

(* An infinite rate would put every arrival at t = 0. *)
let valid_rate r = r > 0. && Float.is_finite r

let poisson ?(length_dist = Log_uniform) ?ttft_budget ?tpot_budget ~seed ~rate
    ~count ~max_prompt ~max_output () =
  if not (valid_rate rate) then
    invalid_arg "Request.poisson: rate must be positive and finite";
  check_lengths ~count ~max_prompt ~max_output;
  validate_dist length_dist;
  let rng = Mikpoly_util.Prng.create seed in
  let clock = ref 0. in
  List.init count (fun id ->
      clock := !clock +. exponential rng ~rate;
      draw rng ~length_dist ?ttft_budget ?tpot_budget ~id ~arrival:!clock
        ~max_prompt ~max_output ())

let bursty ?(length_dist = Log_uniform) ?ttft_budget ?tpot_budget ~seed
    ~base_rate ~burst_rate ~period ~duty ~count ~max_prompt ~max_output () =
  if not (valid_rate base_rate && valid_rate burst_rate) then
    invalid_arg "Request.bursty: rates must be positive and finite";
  if period <= 0. || duty <= 0. || duty > 1. then
    invalid_arg "Request.bursty: need period > 0 and 0 < duty <= 1";
  check_lengths ~count ~max_prompt ~max_output;
  validate_dist length_dist;
  let rng = Mikpoly_util.Prng.create seed in
  let rate_at t =
    let phase = Float.rem t period in
    if phase < duty *. period then burst_rate else base_rate
  in
  let clock = ref 0. in
  List.init count (fun id ->
      clock := !clock +. exponential rng ~rate:(rate_at !clock);
      draw rng ~length_dist ?ttft_budget ?tpot_budget ~id ~arrival:!clock
        ~max_prompt ~max_output ())
