(** Serving requests and deterministic arrival traces.

    A request is an LLM generation job: a prompt to prefill and a number
    of output tokens to decode, arriving at a wall-clock instant with a
    per-request latency SLO. Traces are generated from
    {!Mikpoly_util.Prng} so every serving experiment is reproducible
    bit-for-bit (the repo-wide determinism contract). *)

type slo = {
  ttft : float;  (** time-to-first-token budget, seconds from arrival *)
  e2e : float;  (** end-to-end completion budget, seconds from arrival *)
}

type t = {
  id : int;
  arrival : float;  (** seconds since trace start *)
  prompt_len : int;
  output_len : int;
  slo : slo;
}

(** Prompt/output length distribution for generated traces. All three
    draw in [\[1, max\]] from the trace's PRNG stream, so traces stay
    bit-reproducible per seed.

    - [Log_uniform]: the original moderate skew;
    - [Pareto]: power-law tail with x_min = 1 — a small [alpha]
      (e.g. 1.1) produces the heavy tail of real multi-tenant traffic,
      where a few huge prompts dominate token work;
    - [Log_normal]: median near 1, [sigma] widening the tail. *)
type length_dist =
  | Log_uniform
  | Log_uniform_band of { lo : int }
      (** log-uniform in [\[lo, max\]] — a band of uniformly large
          jobs (batch inference), no small-prompt mass; requires
          [lo >= 1] *)
  | Pareto of { alpha : float }  (** requires [alpha > 0] *)
  | Log_normal of { sigma : float }  (** requires [sigma > 0] *)

val dist_name : length_dist -> string

val validate_trace : caller:string -> ('a -> t) -> 'a list -> unit
(** [validate_trace ~caller request trace] raises [Invalid_argument]
    (message prefixed by [caller]) unless every [request x] of the trace
    arrives at a finite time, has [prompt_len >= 1] and [output_len >= 1]
    and carries an id no other does. The serving loops call it before
    their first event: queues order requests by (arrival, id), which a
    NaN arrival or a repeated id leaves without an order, an empty
    prompt has no token bucket to compile for, and a request with
    nothing to decode never completes. *)

val compare_arrival : t -> t -> int
(** Order by arrival time, ties broken by id (total and deterministic). *)

val deadline : t -> float
(** [arrival +. slo.e2e]. *)

val tokens : t -> int
(** Total token work: [prompt_len + output_len]. *)

val poisson :
  ?length_dist:length_dist -> ?ttft_budget:float -> ?tpot_budget:float ->
  seed:int -> rate:float -> count:int -> max_prompt:int -> max_output:int ->
  unit -> t list
(** [count] requests with exponential inter-arrival times at [rate]
    requests/second; prompt and output lengths follow [length_dist]
    (default [Log_uniform]) in [\[1, max\]]. Sorted by arrival. Raises
    [Invalid_argument] unless [rate] is positive and finite. *)

val bursty :
  ?length_dist:length_dist -> ?ttft_budget:float -> ?tpot_budget:float ->
  seed:int -> base_rate:float -> burst_rate:float -> period:float ->
  duty:float -> count:int -> max_prompt:int -> max_output:int -> unit -> t list
(** Piecewise-Poisson arrivals: within every [period] seconds the first
    [duty] fraction runs at [burst_rate], the remainder at [base_rate] —
    the diurnal / thundering-herd pattern serving systems must absorb.
    Requires [0 < duty <= 1] and positive, finite rates. *)
